"""RTL substrate: expression IR, modules, Verilog emission, simulation,
bit-blasting and FPGA technology mapping.

This package is the "physical synthesis" half of the reproduction: the
wrapper generators in :mod:`repro.core` build :class:`Module` objects,
which can be emitted as Verilog-2001, simulated cycle-accurately, and
mapped to a Virtex-II-class slice/fmax model to regenerate the paper's
Table 1.
"""

from .ast import (
    BinOp,
    BitSelect,
    Concat,
    Const,
    Expr,
    Signal,
    Slice,
    Ternary,
    UnaryOp,
    WidthError,
    all_of,
    any_of,
    clog2,
    mux,
)
from .emitter import emit_design, emit_expr, emit_module
from .lint import LintError, LintMessage, check, lint_design, lint_module
from .module import (
    Assign,
    Design,
    Instance,
    Module,
    Port,
    Register,
    Rom,
    RtlError,
)
from .compile_sim import (
    CompiledSimulator,
    cache_stats,
    compile_design,
    reset_cache_stats,
)
from .netlist import BitBlaster, Netlist, bit_blast
from .simulator import (
    DEFAULT_ENGINE,
    ENGINES,
    InterpSimulator,
    SimulationError,
    Simulator,
)
from .techmap import VIRTEX2, MappingReport, TechMapper, TechModel, tech_map

__all__ = [
    "Assign",
    "BinOp",
    "BitBlaster",
    "BitSelect",
    "CompiledSimulator",
    "Concat",
    "Const",
    "DEFAULT_ENGINE",
    "Design",
    "ENGINES",
    "Expr",
    "Instance",
    "InterpSimulator",
    "LintError",
    "LintMessage",
    "MappingReport",
    "Module",
    "Netlist",
    "Port",
    "Register",
    "Rom",
    "RtlError",
    "Signal",
    "SimulationError",
    "Simulator",
    "Slice",
    "TechMapper",
    "TechModel",
    "Ternary",
    "UnaryOp",
    "VIRTEX2",
    "WidthError",
    "all_of",
    "any_of",
    "bit_blast",
    "cache_stats",
    "check",
    "clog2",
    "compile_design",
    "emit_design",
    "emit_expr",
    "emit_module",
    "lint_design",
    "lint_module",
    "mux",
    "reset_cache_stats",
    "tech_map",
]
