"""Top-level wrapper synthesis — the paper's tool flow in one call.

Given an IP's I/O schedule and a wrapper style, produce:

* the wrapper :class:`~repro.rtl.module.Module` (and its Verilog text),
* the compiled SP program (for the ``"sp"`` style),
* the physical-synthesis report (slices / fmax on the FPGA model).

This is the programmatic equivalent of what the authors integrated into
GAUT's high-level synthesis output stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rtl.emitter import emit_module
from ..rtl.module import Module
from ..rtl.techmap import VIRTEX2, TechModel
from ..synthesis.flow import synthesize
from ..synthesis.report import SynthesisReport
from .compiler import CompilerOptions, compile_schedule
from .operations import SPProgram
from .rtlgen import (
    generate_comb_wrapper,
    generate_fsm_wrapper,
    generate_shiftreg_wrapper,
    generate_sp_wrapper,
)
from .rtlgen.common import SYNTH_STYLES
from .schedule import IOSchedule


@dataclass
class WrapperSynthesisResult:
    """Everything produced for one (schedule, style) pair."""

    style: str
    schedule: IOSchedule
    module: Module
    report: SynthesisReport
    program: SPProgram | None = None

    @property
    def verilog(self) -> str:
        return emit_module(self.module)

    def summary(self) -> str:
        stats = self.schedule.stats()
        return f"[{stats}] {self.report.summary()}"


def synthesize_wrapper(
    schedule: IOSchedule,
    style: str = "sp",
    name: str | None = None,
    model: TechModel = VIRTEX2,
    rom_style: str = "auto",
    compiler_options: CompilerOptions | None = None,
) -> WrapperSynthesisResult:
    """Synthesize one synchronization wrapper for ``schedule``.

    ``style`` is one of :data:`SYNTH_STYLES`; ``rom_style`` controls the
    SP operations-memory mapping (``auto``/``block``/``distributed``).
    """
    if style not in SYNTH_STYLES:
        raise ValueError(
            f"unknown wrapper style {style!r}; choose from {SYNTH_STYLES}"
        )
    program: SPProgram | None = None
    module_name = name or f"{style.replace('-', '_')}_wrapper"
    if style == "sp":
        program = compile_schedule(schedule, compiler_options)
        module = generate_sp_wrapper(
            program, name=module_name, schedule=schedule
        )
    elif style == "fsm":
        module = generate_fsm_wrapper(
            schedule, name=module_name, encoding="binary"
        )
    elif style == "fsm-onehot":
        module = generate_fsm_wrapper(
            schedule, name=module_name, encoding="onehot"
        )
    elif style == "combinational":
        module = generate_comb_wrapper(schedule, name=module_name)
    else:
        module = generate_shiftreg_wrapper(schedule, name=module_name)
    report = synthesize(module, style=style, model=model, rom_style=rom_style)
    return WrapperSynthesisResult(
        style=style,
        schedule=schedule,
        module=module,
        report=report,
        program=program,
    )


def synthesize_all_styles(
    schedule: IOSchedule,
    name_prefix: str = "wrapper",
    model: TechModel = VIRTEX2,
) -> dict[str, WrapperSynthesisResult]:
    """Synthesize every wrapper style for one schedule (ablations)."""
    return {
        style: synthesize_wrapper(
            schedule,
            style,
            name=f"{name_prefix}_{style.replace('-', '_')}",
            model=model,
        )
        for style in SYNTH_STYLES
    }
