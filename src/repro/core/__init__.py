"""The paper's contribution: synchronization-processor synthesis.

* :mod:`repro.core.schedule` — cyclic I/O schedules (the input);
* :mod:`repro.core.operations` / :mod:`repro.core.compiler` — the SP
  operation format and the schedule compiler;
* :mod:`repro.core.processor` — the behavioural 3-state CFSMD;
* :mod:`repro.core.wrappers` — executable shells for all four wrapper
  styles (SP, FSM, combinational, shift register);
* :mod:`repro.core.rtlgen` — synthesizable RTL generators;
* :mod:`repro.core.equivalence` — behavioural-vs-RTL co-simulation;
* :mod:`repro.core.synthesis` — the one-call wrapper synthesis flow.

Public names resolve lazily: each imports its defining submodule on
first access (:mod:`repro._lazy`), so a verify campaign never loads
the synthesis flow.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".compiler": (
            "CompileError",
            "CompilerOptions",
            "auto_run_width",
            "compile_schedule",
            "decompile_program",
            "program_summary",
        ),
        ".equivalence": (
            "CoSimResult",
            "EquivalenceError",
            "RTLShell",
            "Stimulus",
            "co_simulate",
        ),
        ".io": (
            "export_wrapper",
            "load_schedule",
            "program_from_memh",
            "program_to_memh",
            "save_schedule",
            "schedule_from_dict",
            "schedule_to_dict",
        ),
        ".operations": (
            "Operation",
            "OperationError",
            "OperationFormat",
            "SPProgram",
        ),
        ".processor": ("SPAction", "SPState", "SyncProcessor"),
        ".schedule": (
            "IOSchedule",
            "ScheduleError",
            "ScheduleStats",
            "SyncPoint",
            "uniform_schedule",
        ),
        ".rtlgen.common": ("SYNTH_STYLES",),
        ".synthesis": (
            "WrapperSynthesisResult",
            "synthesize_all_styles",
            "synthesize_wrapper",
        ),
        ".wrappers": (
            "WRAPPER_STYLES",
            "CombinationalWrapper",
            "FSMWrapper",
            "ShiftRegisterWrapper",
            "SPWrapper",
            "make_wrapper",
        ),
    },
)
