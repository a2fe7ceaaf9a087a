"""Ablation A — wrapper cost vs schedule length (the paper's §5 claim).

"Our SP has an essential characteristic: its complexity does not depend
on the number of cycles the IP needs for a whole computation but only
on the number of ports.  Consequently its frequency and area are
constant, for a given number of ports."

Sweep the number of sync operations from 10 to 10 000 with ports fixed
(2 in / 2 out) and synthesize the SP, the one-hot FSM and the binary
mux-tree FSM.  Expectations: SP slices flat (ROM absorbs the schedule,
reported as BRAM), SP fmax flat; FSM slices grow ~linearly (one-hot)
and its fmax decays.
"""

from __future__ import annotations

from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.synthesis import synthesize_wrapper

from _bench_common import write_result

LENGTHS = (10, 100, 1000, 10_000)
BINARY_MAX = 1000  # mux-tree generation above this is slow and moot


def _schedule(n_waits: int) -> IOSchedule:
    points = [
        SyncPoint({"sym_in"} if i % 3 else {"ctrl_in"}, frozenset())
        for i in range(n_waits - 1)
    ]
    points.append(
        SyncPoint(frozenset(), {"data_out", "status_out"}, run=1)
    )
    return IOSchedule(
        ["sym_in", "ctrl_in"], ["data_out", "status_out"], points
    )


def _sweep():
    rows = []
    for n in LENGTHS:
        schedule = _schedule(n)
        sp = synthesize_wrapper(schedule, "sp", rom_style="block").report
        onehot = synthesize_wrapper(schedule, "fsm-onehot").report
        binary = (
            synthesize_wrapper(schedule, "fsm").report
            if n <= BINARY_MAX
            else None
        )
        rows.append((n, sp, onehot, binary))
    return rows


def test_scaling_with_schedule_length(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    sp_slices = [sp.slices for _n, sp, _oh, _b in rows]
    sp_fmax = [sp.fmax_mhz for _n, sp, _oh, _b in rows]
    onehot_slices = [oh.slices for _n, _sp, oh, _b in rows]
    onehot_fmax = [oh.fmax_mhz for _n, _sp, oh, _b in rows]

    # SP area near-flat over three decades of schedule length: the only
    # growth is the log-width operations-memory read counter (the paper
    # states "constant"; strictly it is O(log waits), ~7 slices across
    # 10 -> 10k ops — a measured deviation from the paper).
    assert max(sp_slices) - min(sp_slices) <= 10
    assert max(sp_slices) < 2 * min(sp_slices)
    # SP frequency flat (within 15 %).
    assert max(sp_fmax) / min(sp_fmax) < 1.15
    # FSM area grows strongly with schedule length.
    assert onehot_slices[-1] > onehot_slices[0] * 100
    # FSM frequency decays.
    assert onehot_fmax[-1] < onehot_fmax[0]
    # Crossover: FSM may win at tiny schedules, SP must win at scale.
    assert sp_slices[-1] < onehot_slices[-1] / 100

    benchmark.extra_info.update(
        sp_slices=sp_slices, onehot_slices=onehot_slices
    )
    lines = [
        "Wrapper cost vs schedule length (ports fixed at 2 in / 2 out)",
        "",
        f"{'waits':>7} | {'SP sli':>7} {'SP MHz':>7} {'SP BRAM':>7} | "
        f"{'1hot sli':>8} {'1hot MHz':>8} | {'bin sli':>8} {'bin MHz':>8}",
        "-" * 78,
    ]
    for n, sp, onehot, binary in rows:
        b_s = f"{binary.slices:>8}" if binary else "       -"
        b_f = f"{binary.fmax_mhz:>8.0f}" if binary else "       -"
        lines.append(
            f"{n:>7} | {sp.slices:>7} {sp.fmax_mhz:>7.0f} "
            f"{sp.mapping.brams:>7} | {onehot.slices:>8} "
            f"{onehot.fmax_mhz:>8.0f} | {b_s} {b_f}"
        )
    lines.append("")
    lines.append(
        "Claim check: SP slices flat "
        f"({min(sp_slices)}..{max(sp_slices)}), one-hot FSM grows "
        f"{onehot_slices[0]} -> {onehot_slices[-1]} slices."
    )
    write_result("scaling_schedule.txt", "\n".join(lines))
