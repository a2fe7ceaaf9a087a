"""Seeded fault injection for the supervised campaign runner.

The supervised pool's fault model (crash isolation, deadlines,
retries) is only trustworthy if it is exercised, so this module gives
the worker side a deterministic saboteur: a :class:`ChaosConfig`
names, per case index, whether the worker should **crash**
(``os._exit``, simulating a segfault/OOM kill), **hang** (sleep past
the deadline), fail **flaky** (crash on the first attempt, succeed on
retry — the transient-failure model retries exist for), or **delay**
(sleep briefly but succeed, for jitter without faults).

Faults are keyed by case *index*, so the same config hits the same
cases whatever the job count — chaos runs stay as reproducible as the
campaigns they sabotage.  Configs come from explicit index sets
(tests), seeded rates (:meth:`ChaosConfig.seeded`, CI smokes), or the
CLI spec grammar (:func:`parse_chaos`):

    crash:3,11;hang:7;flaky:5
    seed:7;crash-rate:0.1;hang-rate:0.05;flaky-rate:0.1;hang-s:30
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Mapping

__all__ = ["CHAOS_EXIT", "ChaosConfig", "parse_chaos"]

#: Exit code used by injected crashes — recognisable in ``worker died
#: (exit code 86)`` fault details.
CHAOS_EXIT = 86


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic per-case fault plan, applied worker-side.

    ``crash``/``hang``/``flaky``/``delay`` are case-index tuples;
    ``hang_s`` is the hang sleep (choose it larger than the campaign
    timeout), ``delay_s`` the benign delay.
    """

    crash: tuple[int, ...] = ()
    hang: tuple[int, ...] = ()
    flaky: tuple[int, ...] = ()
    delay: tuple[int, ...] = ()
    hang_s: float = 30.0
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "flaky", "delay"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if self.hang_s <= 0:
            raise ValueError("chaos hang-s must be positive")
        if self.delay_s < 0:
            raise ValueError("chaos delay-s must be >= 0")

    @property
    def faulted(self) -> frozenset[int]:
        """Indices that fault at least once (delay is benign)."""
        return frozenset(self.crash) | frozenset(self.hang) | frozenset(
            self.flaky
        )

    def apply(self, index: int, attempt: int) -> None:
        """Inject this config's fault for case ``index`` — called in
        the worker before the case runs.  ``attempt`` is 0-based;
        flaky cases only sabotage attempt 0."""
        if index in self.crash or (
            index in self.flaky and attempt == 0
        ):
            os._exit(CHAOS_EXIT)
        if index in self.hang:
            time.sleep(self.hang_s)
        if index in self.delay:
            time.sleep(self.delay_s)

    @classmethod
    def seeded(
        cls,
        seed: int,
        cases: int,
        *,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        flaky_rate: float = 0.0,
        delay_rate: float = 0.0,
        hang_s: float = 30.0,
        delay_s: float = 0.05,
    ) -> "ChaosConfig":
        """Draw a fault plan: one uniform draw per case, bucketed by
        cumulative rate thresholds (crash, then hang, then flaky, then
        delay), so the same seed always sabotages the same cases."""
        for name, rate in (
            ("crash", crash_rate),
            ("hang", hang_rate),
            ("flaky", flaky_rate),
            ("delay", delay_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"chaos {name}-rate must be in [0, 1]"
                )
        rng = random.Random(seed)
        buckets: dict[str, list[int]] = {
            "crash": [],
            "hang": [],
            "flaky": [],
            "delay": [],
        }
        thresholds = (
            ("crash", crash_rate),
            ("hang", crash_rate + hang_rate),
            ("flaky", crash_rate + hang_rate + flaky_rate),
            ("delay", crash_rate + hang_rate + flaky_rate + delay_rate),
        )
        for index in range(cases):
            draw = rng.random()
            for name, bound in thresholds:
                if draw < bound:
                    buckets[name].append(index)
                    break
        return cls(
            crash=tuple(buckets["crash"]),
            hang=tuple(buckets["hang"]),
            flaky=tuple(buckets["flaky"]),
            delay=tuple(buckets["delay"]),
            hang_s=hang_s,
            delay_s=delay_s,
        )

    def to_dict(self) -> dict:
        return {
            "crash": list(self.crash),
            "hang": list(self.hang),
            "flaky": list(self.flaky),
            "delay": list(self.delay),
            "hang_s": self.hang_s,
            "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ChaosConfig":
        return cls(
            crash=tuple(data.get("crash", ())),
            hang=tuple(data.get("hang", ())),
            flaky=tuple(data.get("flaky", ())),
            delay=tuple(data.get("delay", ())),
            hang_s=data.get("hang_s", 30.0),
            delay_s=data.get("delay_s", 0.05),
        )


_INDEX_KEYS = {"crash", "hang", "flaky", "delay"}
_FLOAT_KEYS = {"hang-s": "hang_s", "delay-s": "delay_s"}
_RATE_KEYS = {
    "crash-rate": "crash_rate",
    "hang-rate": "hang_rate",
    "flaky-rate": "flaky_rate",
    "delay-rate": "delay_rate",
}


def parse_chaos(spec: str, cases: int) -> ChaosConfig:
    """Parse a ``--chaos`` spec into a :class:`ChaosConfig`.

    Two grammars, both ``;``-separated ``key:value`` fields: explicit
    indices (``crash:3,11;hang:7``) or seeded rates
    (``seed:7;crash-rate:0.1;hang-s:30``).  Mixing ``seed``/rates with
    explicit index lists is rejected.
    """
    indices: dict[str, tuple[int, ...]] = {}
    floats: dict[str, float] = {}
    rates: dict[str, float] = {}
    seed: int | None = None
    for raw_field in spec.split(";"):
        raw_field = raw_field.strip()
        if not raw_field:
            continue
        key, sep, value = raw_field.partition(":")
        key = key.strip()
        value = value.strip()
        if not sep or not value:
            raise ValueError(
                f"bad chaos field {raw_field!r}: expected key:value"
            )
        try:
            if key == "seed":
                seed = int(value)
            elif key in _INDEX_KEYS:
                indices[key] = tuple(
                    int(part) for part in value.split(",") if part.strip()
                )
            elif key in _FLOAT_KEYS:
                floats[_FLOAT_KEYS[key]] = float(value)
            elif key in _RATE_KEYS:
                rates[_RATE_KEYS[key]] = float(value)
            else:
                raise ValueError(
                    f"unknown chaos key {key!r} "
                    f"(expected seed, crash, hang, flaky, delay, "
                    f"*-rate, hang-s, delay-s)"
                )
        except ValueError as exc:
            if "chaos" in str(exc):
                raise
            raise ValueError(
                f"bad chaos value in {raw_field!r}: {exc}"
            ) from None
    if (seed is not None or rates) and indices:
        raise ValueError(
            "chaos spec mixes seeded rates with explicit indices"
        )
    if rates and seed is None:
        raise ValueError("chaos rate fields need a seed field")
    if seed is not None:
        return ChaosConfig.seeded(seed, cases, **rates, **floats)
    config = ChaosConfig(**indices, **floats)
    out_of_range = [i for i in config.faulted | set(config.delay)
                    if not 0 <= i < cases]
    if out_of_range:
        raise ValueError(
            f"chaos case indices out of range for {cases} cases: "
            f"{sorted(out_of_range)}"
        )
    return config
