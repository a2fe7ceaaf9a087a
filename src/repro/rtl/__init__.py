"""RTL substrate: expression IR, modules, Verilog emission, simulation,
bit-blasting and FPGA technology mapping.

This package is the "physical synthesis" half of the reproduction: the
wrapper generators in :mod:`repro.core` build :class:`Module` objects,
which can be emitted as Verilog-2001, simulated cycle-accurately, and
mapped to a Virtex-II-class slice/fmax model to regenerate the paper's
Table 1.

Public names resolve lazily: each imports its defining submodule on
first access (:mod:`repro._lazy`), so simulating RTL never loads the
emitter, lint, bit-blaster or technology mapper.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".ast": (
            "BinOp",
            "BitSelect",
            "Concat",
            "Const",
            "Expr",
            "Signal",
            "Slice",
            "Ternary",
            "UnaryOp",
            "WidthError",
            "all_of",
            "any_of",
            "clog2",
            "mux",
        ),
        ".emitter": ("emit_design", "emit_expr", "emit_module"),
        ".lint": (
            "LintError",
            "LintMessage",
            "check",
            "lint_design",
            "lint_module",
        ),
        ".module": (
            "Assign",
            "Design",
            "Instance",
            "Module",
            "Port",
            "Register",
            "Rom",
            "RtlError",
        ),
        ".compile_sim": (
            "CompiledSimulator",
            "cache_stats",
            "compile_design",
            "reset_cache_stats",
        ),
        ".netlist": ("BitBlaster", "Netlist", "bit_blast"),
        ".simulator": (
            "DEFAULT_ENGINE",
            "ENGINES",
            "InterpSimulator",
            "SimulationError",
            "Simulator",
        ),
        ".techmap": (
            "VIRTEX2",
            "MappingReport",
            "TechMapper",
            "TechModel",
            "tech_map",
        ),
    },
)
