"""The verify-campaign workloads: one ``BatchConfig`` recipe each.

Every workload runs the public campaign path in-process at ``jobs=1``
with the default ``cycles`` and ``deadlock_window``.  At ``jobs=2`` on
a two-core machine the supervised pool's cases/s spreads by more than
20% run to run, so the pool stays unmeasured.  ``cases`` is sized so
one campaign takes roughly six seconds on a two-core x86 box with
Python 3.11; per-case cost varies by about 40%, so a run spreads its
time over several campaign seeds (see ``run.py``).

``perturb-dynamic`` leaves out the combinational style: about one
case in 5000 has a base run that moves only a few tokens before it
deadlocks, and a resegmented variant of it under combinational
wrappers deadlocks before its first token, which the perturbation
oracle rightly reports as a vacuous comparison (campaign seed 406,
case 28).  ``regular`` still runs combinational wrappers.

Each workload runs one mechanism the other bypasses: the activation
planner and shift-register wrappers only in ``regular``, perturbation
variants only in ``perturb-dynamic``.  Between them they cover every
layer: generation, build, the LIS fabric, RTLShell glue, compiled
kernels, planning, oracles, perturbation and the runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: int
    config: dict[str, Any] = field(default_factory=dict)
    #: Mechanisms only this workload may run (the self-checks).
    plans: bool = False
    perturbs: bool = False


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="regular",
            why=(
                "regular traffic with 7 styles: the only workload running "
                "the activation planner and shift-register wrappers; the "
                "fabric's steady state dominates"
            ),
            cases=60,
            config={"profile": "regular"},
            plans=True,
        ),
        Workload(
            name="perturb-dynamic",
            why=(
                "dynamic stall-plan perturbation under four styles: the "
                "oracle re-simulates each variant, so oracle spans take "
                "most of the wall time"
            ),
            cases=40,
            config={
                "profile": "small",
                "styles": ("fsm", "sp", "rtl-sp", "rtl-fsm"),
                "perturb": 2,
                "perturb_dynamic": True,
                "perturb_styles": "all",
            },
            perturbs=True,
        ),
    )
}
