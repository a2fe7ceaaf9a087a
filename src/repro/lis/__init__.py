"""Latency-insensitive system substrate.

Implements the methodology the paper builds on (Carloni et al.):
patient processes (pearl + shell), FIFO ports, relay stations that
segment long wires, a strict two-phase cycle-accurate simulator, and
analytic throughput bounds for the resulting marked graphs.

Public names resolve lazily: each imports its defining submodule on
first access (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".floorplan": (
            "ChannelPlan",
            "Floorplan",
            "FloorplanError",
            "SystemPlan",
            "WireModel",
            "plan_channel",
            "plan_channels",
            "plan_system",
        ),
        ".pearl": ("FunctionPearl", "PassthroughPearl", "Pearl", "PearlError"),
        ".port": ("DEFAULT_PORT_DEPTH", "InputPort", "OutputPort"),
        ".relay_station": (
            "RELAY_CAPACITY",
            "RelayStation",
            "segment_channel",
        ),
        ".shell": ("Shell", "ShellError"),
        ".signals": (
            "VOID",
            "Block",
            "CheckpointError",
            "DataWire",
            "Link",
            "StopWire",
            "is_void",
        ),
        ".simulator": ("Checkpoint", "Simulation", "SimulationResult"),
        ".stall": (
            "LinkStall",
            "derive_stall_plan",
            "stall_from_dict",
            "stall_to_dict",
        ),
        ".stream": ("Sink", "Source", "bernoulli_gaps", "burst_gaps"),
        ".system": ("Channel", "System", "SystemError_"),
        ".throughput": ("EdgeSpec", "MarkedGraph", "system_marked_graph"),
    },
)
