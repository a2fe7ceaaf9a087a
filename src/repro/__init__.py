"""repro — Synchronization Processor Synthesis for Latency Insensitive
Systems (Bomel, Martin, Boutillon; DATE 2005) — full reproduction.

Public API tour:

>>> from repro import IOSchedule, SyncPoint, synthesize_wrapper
>>> schedule = IOSchedule(
...     ["a"], ["y"],
...     [SyncPoint({"a"}, set(), run=3), SyncPoint(set(), {"y"})],
... )
>>> result = synthesize_wrapper(schedule, style="sp")
>>> result.report.slices >= 1
True

Sub-packages:

* :mod:`repro.core` — schedules, the SP compiler/processor, wrapper
  shells, RTL generators, equivalence checking, synthesis flow;
* :mod:`repro.lis` — the latency-insensitive substrate (patient
  processes, relay stations, system simulator, throughput analysis);
* :mod:`repro.rtl` — RTL IR, Verilog emission, simulation, bit-blasting
  and FPGA technology mapping;
* :mod:`repro.ips` — Reed-Solomon / Viterbi / FIR pearls;
* :mod:`repro.sched` — schedule extraction and static scheduling;
* :mod:`repro.synthesis` — flow entry point and Table-1 reporting;
* :mod:`repro.verify` — batch differential verification of the
  wrapper styles.

Every name above and every sub-package resolves lazily, importing its
defining module on first access (:mod:`repro._lazy`): ``import repro``
loads no submodule, and ``import repro.verify.runner`` loads only
what a verify campaign runs.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".core.compiler": ("CompilerOptions", "compile_schedule"),
        ".core.equivalence": ("RTLShell",),
        ".core.operations": ("Operation", "OperationFormat", "SPProgram"),
        ".core.processor": ("SyncProcessor",),
        ".core.schedule": ("IOSchedule", "SyncPoint", "uniform_schedule"),
        ".core.synthesis": ("synthesize_all_styles", "synthesize_wrapper"),
        ".core.wrappers": (
            "CombinationalWrapper",
            "FSMWrapper",
            "SPWrapper",
            "ShiftRegisterWrapper",
            "make_wrapper",
        ),
        ".lis.pearl": ("Pearl",),
        ".lis.relay_station": ("RelayStation",),
        ".lis.simulator": ("Simulation",),
        ".lis.stream": ("Sink", "Source"),
        ".lis.system": ("System",),
        ".synthesis.flow": ("synthesize",),
        ".synthesis.report": ("PAPER_TABLE1", "format_table1"),
    },
)
__all__ += ["__version__"]
