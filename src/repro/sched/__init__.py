"""Schedule tooling: extraction from traces, global static scheduling,
and analytic complexity models.

Public names resolve lazily: each imports its defining submodule on
first access (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".analysis": (
            "ComplexityModel",
            "analyze",
            "sp_area_is_schedule_independent",
            "table1_triple",
        ),
        ".generate": (
            "DSPProfile",
            "PROFILE_PRESETS",
            "ProcessNode",
            "SystemTopology",
            "TopologyChannel",
            "TopologyProfile",
            "TopologySink",
            "TopologySource",
            "dsp_schedule",
            "random_schedule",
            "random_topology",
            "topology_from_dict",
            "topology_to_dict",
        ),
        ".extraction": (
            "ExtractionError",
            "TraceEvent",
            "events_to_schedule",
            "extract_schedule",
            "find_period",
            "trace_pearl",
        ),
        ".static_schedule": (
            "ChannelSpec",
            "ProcessSpec",
            "StaticSchedule",
            "StaticScheduleError",
            "compute_static_schedule",
        ),
    },
)
