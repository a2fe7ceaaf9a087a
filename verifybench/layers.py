"""Per-layer spans installed from outside the program.

:class:`Tracer` wraps public entry points of each layer with timing
shims, runs nothing itself, and puts every original back on
:meth:`Tracer.uninstall`.  Time is kept as exclusive (self) time per
layer: at each span boundary the interval since the previous boundary
is charged to the innermost open span, so the self times of all layers
partition the wall time of ``BatchRunner.run`` exactly.  Inclusive
totals per span name are kept beside them.

The per-cycle RTLShell hooks ``CompiledSimulator.poke``/``peek`` cost
about as much as a clock read, so they are counted but not timed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

STYLES = (
    "fsm", "sp", "combinational", "rtl-sp", "rtl-fsm", "shiftreg",
    "rtl-shiftreg",
)
#: Metric name of each oracle class.
ORACLES = {
    "ExceptionOracle": "exception",
    "StreamPrefixOracle": "streams",
    "CycleExactOracle": "trace",
    "RelayOccupancyOracle": "relay",
    "AnalyticBoundsOracle": "analytic",
    "PerturbationOracle": "perturbation",
}
#: Per-layer metric names and units, in report order.
LAYER_METRICS: dict[str, str] = {
    "generate.s": "s",
    "build.s": "s",
    "build.calls": "count",
    "build.kernel_compiles": "count",
    "build.kernel_cache_hit_ratio": "ratio",
    "build.kernel_compile_ms": "ms",
    "simulate.s": "s",
    "simulate.calls": "count",
    "simulate.cycles": "count",
    "simulate.us_per_cycle": "us",
    "simulate.early_exits": "count",
    "simulate.self.s": "s",
    **{f"simulate.style.{style}.s": "s" for style in STYLES},
    "kernel.s": "s",
    "kernel.calls": "count",
    "glue.pokes": "count",
    "glue.peeks": "count",
    "plan.s": "s",
    "plan.calls": "count",
    "oracle.self.s": "s",
    "oracle.checks": "count",
    **{f"oracle.{name}.s": "s" for name in ORACLES.values()},
    "perturb.derive.s": "s",
    "perturb.simulations": "count",
    "perturb.simulate.s": "s",
    "runner.self.s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class Tracer:
    """Span shims around one campaign's layer entry points."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._stack: list[str] = []
        self._last = 0.0
        self._perturbing = 0
        self._patches: list[tuple[object, str, object]] = []
        self._cache_before: dict[str, float] = {}
        self._cache_after: dict[str, float] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    # -- span bookkeeping -----------------------------------------------------

    def _enter(self, layer: str) -> float:
        now = self._clock()
        stack = self._stack
        if stack:
            self.self_s[stack[-1]] += now - self._last
        self._last = now
        stack.append(layer)
        return now

    def _exit(self, key: str, start: float) -> float:
        now = self._clock()
        self.self_s[self._stack.pop()] += now - self._last
        self._last = now
        duration = now - start
        self.total_s[key] += duration
        self.calls[key] += 1
        return duration

    def _span(self, fn, layer: str, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(key, start)

        return wrapper

    def _simulate_span(self, fn):
        @functools.wraps(fn)
        def run(simulation, *args, **kwargs):
            start = self._enter("simulate")
            result = None
            try:
                result = fn(simulation, *args, **kwargs)
                return result
            finally:
                duration = self._exit("simulate", start)
                style = simulation.system.name.rpartition(":")[2]
                self.total_s[f"simulate.style.{style}"] += duration
                if self._perturbing:
                    self.total_s["perturb.simulate"] += duration
                    self.counts["perturb.simulations"] += 1
                if result is not None:
                    self.counts["simulate.cycles"] += result.cycles
                    self.counts["simulate.early_exits"] += result.deadlocked

        return run

    def _perturb_span(self, fn):
        inner = self._span(fn, "oracle", "oracle.perturbation")

        @functools.wraps(fn)
        def check(*args, **kwargs):
            self._perturbing += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._perturbing -= 1

        return check

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every layer entry point; the next ``BatchRunner.run``
        becomes the root span."""
        from repro.lis.simulator import Simulation
        from repro.rtl.compile_sim import CompiledSimulator, cache_stats
        from repro.verify import cases, oracles, perturb, runner

        span = self._span
        self._patch(
            runner.BatchRunner, "run",
            lambda fn: span(fn, "runner", "runner"),
        )
        self._patch(
            runner, "make_cases", lambda fn: span(fn, "generate", "generate")
        )
        self._patch(
            cases, "build_system", lambda fn: span(fn, "build", "build")
        )
        self._patch(Simulation, "run", self._simulate_span)
        for attr in ("settle", "step"):
            self._patch(
                CompiledSimulator, attr,
                lambda fn: span(fn, "kernel", "kernel"),
            )
        self._patch(
            CompiledSimulator, "poke",
            lambda fn: self._counted(fn, "glue.pokes"),
        )
        self._patch(
            CompiledSimulator, "peek",
            lambda fn: self._counted(fn, "glue.peeks"),
        )
        self._patch(
            cases, "plan_topology_activations",
            lambda fn: span(fn, "plan", "plan"),
        )
        self._patch(
            oracles, "run_pipeline",
            lambda fn: span(fn, "oracle", "oracle.pipeline"),
        )
        for cls in _subclasses(oracles.Oracle):
            if "check" not in vars(cls):
                continue
            name = ORACLES.get(cls.__name__)
            if name is None:
                raise RuntimeError(
                    f"oracle {cls.__name__} has no per-layer metric"
                )
            if name == "perturbation":
                self._patch(cls, "check", self._perturb_span)
            else:
                self._patch(
                    cls, "check",
                    lambda fn, key=f"oracle.{name}": span(fn, "oracle", key),
                )
        self._patch(
            perturb, "derive_variants",
            lambda fn: span(fn, "derive", "perturb.derive"),
        )
        self._cache_before = cache_stats()

    def uninstall(self) -> bool:
        """Put every original back; True when each one is in place."""
        from repro.rtl.compile_sim import cache_stats

        self._cache_after = cache_stats()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(
            vars(owner)[attr] is original
            for owner, attr, original in self._patches
        )
        self._patches.clear()
        return restored

    # -- the report -----------------------------------------------------------

    def metrics(self, checks: int) -> dict[str, float]:
        """Per-layer metrics of the traced campaign (every name of
        :data:`LAYER_METRICS` except ``trace.overhead``, which compares
        two campaigns).  ``checks`` is the campaign's oracle check
        count, read from its report."""
        total, calls, counts = self.total_s, self.calls, self.counts
        delta = {
            key: self._cache_after.get(key, 0) - value
            for key, value in self._cache_before.items()
        }
        consults = delta["hits"] + delta["misses"]
        cycles = counts["simulate.cycles"]
        wall = total["runner"]
        return {
            "generate.s": total["generate"],
            "build.s": total["build"],
            "build.calls": calls["build"],
            "build.kernel_compiles": delta["misses"],
            "build.kernel_cache_hit_ratio": (
                delta["hits"] / consults if consults else 0.0
            ),
            "build.kernel_compile_ms": delta["compile_ms"],
            "simulate.s": total["simulate"],
            "simulate.calls": calls["simulate"],
            "simulate.cycles": cycles,
            "simulate.us_per_cycle": (
                total["simulate"] / cycles * 1e6 if cycles else 0.0
            ),
            "simulate.early_exits": counts["simulate.early_exits"],
            "simulate.self.s": self.self_s["simulate"],
            **{
                f"simulate.style.{style}.s": total[f"simulate.style.{style}"]
                for style in STYLES
            },
            "kernel.s": total["kernel"],
            "kernel.calls": calls["kernel"],
            "glue.pokes": counts["glue.pokes"],
            "glue.peeks": counts["glue.peeks"],
            "plan.s": total["plan"],
            "plan.calls": calls["plan"],
            "oracle.self.s": self.self_s["oracle"],
            "oracle.checks": checks,
            **{
                f"oracle.{name}.s": total[f"oracle.{name}"]
                for name in ORACLES.values()
            },
            "perturb.derive.s": total["perturb.derive"],
            "perturb.simulations": counts["perturb.simulations"],
            "perturb.simulate.s": total["perturb.simulate"],
            "runner.self.s": self.self_s["runner"],
            "trace.coverage": (
                (wall - self.self_s["runner"]) / wall if wall else 0.0
            ),
        }


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
