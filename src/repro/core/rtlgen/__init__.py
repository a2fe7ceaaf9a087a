"""Wrapper RTL generators: one per synchronization style.

All generators produce :class:`~repro.rtl.module.Module` objects with
the identical FIFO-style interface described in
:mod:`repro.core.rtlgen.common`, ready for Verilog emission, RTL
simulation and technology mapping.  Public names resolve lazily
(:mod:`repro._lazy`): each imports its generator's module on first
access.
"""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".comb": ("generate_comb_wrapper",),
        ".common": ("WrapperInterface", "sanitize", "select_by_value"),
        ".fsm": ("generate_fsm_wrapper",),
        ".lis_fabric": ("generate_relay_station",),
        ".shiftreg": ("compute_port_patterns", "generate_shiftreg_wrapper"),
        ".testbench": ("generate_sp_testbench",),
        ".sp": ("ST_READ", "ST_RESET", "ST_RUN", "generate_sp_wrapper"),
    },
)
