"""Schedule analytics: complexity triples, wrapper cost predictors.

The paper's §5 claim is a statement about asymptotics: SP logic
complexity is Θ(ports), FSM complexity is Θ(period length).  This
module computes the analytic predictors the scaling benches compare
against the mapped areas.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.compiler import auto_run_width
from ..core.schedule import IOSchedule
from ..rtl.ast import clog2


@dataclass(frozen=True)
class ComplexityModel:
    """Closed-form size predictors for one schedule."""

    ports: int
    waits: int
    run_total: int
    period_cycles: int
    sp_rom_bits: int
    sp_datapath_bits: int
    fsm_state_bits_binary: int
    fsm_state_bits_onehot: int


def analyze(schedule: IOSchedule) -> ComplexityModel:
    """Compute the analytic complexity profile of ``schedule``."""
    stats = schedule.stats()
    run_width = auto_run_width(schedule)
    word = schedule.n_ports + run_width
    n_ops = len(schedule.points)
    addr_width = clog2(max(2, n_ops))
    # SP datapath register bits: 2 state + read-counter + run-counter.
    datapath = 2 + addr_width + run_width
    return ComplexityModel(
        ports=stats.ports,
        waits=stats.waits,
        run_total=stats.run,
        period_cycles=stats.period_cycles,
        sp_rom_bits=n_ops * word,
        sp_datapath_bits=datapath,
        fsm_state_bits_binary=clog2(max(2, stats.period_cycles)),
        fsm_state_bits_onehot=stats.period_cycles,
    )


def table1_triple(schedule: IOSchedule) -> str:
    """The ``ports/wait/run`` string of the paper's Table 1."""
    return str(schedule.stats())


def sp_area_is_schedule_independent(
    schedules: list[IOSchedule],
) -> bool:
    """Analytic form of the paper's §5 claim: for a fixed port count and
    counter widths, the SP datapath size is constant across schedules."""
    profiles = {
        (
            analyze(s).ports,
            auto_run_width(s),
            analyze(s).sp_datapath_bits,
        )
        for s in schedules
    }
    ports_counters = {(p, r) for p, r, _d in profiles}
    return len(ports_counters) == len(profiles)
