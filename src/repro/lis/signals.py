"""Signal plumbing for the latency-insensitive protocol.

A LIS link carries, each clock cycle:

* downstream: a payload plus a *void* flag (void = no informative token
  this cycle — Carloni's ``voidin``/``voidout``);
* upstream: a *stop* flag (backpressure — ``stopin``/``stopout``).

The cycle-accurate simulator is strictly two-phase Moore-style: every
block first *produces* its outputs from registered state, then
*consumes* its inputs to compute the next state.  Because no output
ever depends combinationally on a same-cycle input, arbitrary block
graphs (including feedback loops) simulate without fixed-point
iteration — mirroring how registered stop/void signals remove long
combinational paths in the physical methodology.
"""

from __future__ import annotations

from typing import Any


class _Void:
    """Singleton marker for 'no token this cycle'."""

    _instance: "_Void | None" = None

    def __new__(cls) -> "_Void":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "VOID"

    def __bool__(self) -> bool:
        return False


VOID = _Void()


def is_void(value: Any) -> bool:
    """True when ``value`` is the void marker (not a real token)."""
    return value is VOID


class DataWire:
    """Downstream wire: payload-or-VOID, written once per cycle by the
    producer's produce() phase."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "data") -> None:
        self.name = name
        self.value: Any = VOID

    def put(self, value: Any) -> None:
        self.value = value

    def get(self) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"DataWire({self.name!r}, {self.value!r})"


class StopWire:
    """Upstream wire: 1-bit stop, written once per cycle by the consumer's
    produce() phase."""

    __slots__ = ("name", "stop")

    def __init__(self, name: str = "stop") -> None:
        self.name = name
        self.stop = False

    def put(self, stop: bool) -> None:
        self.stop = bool(stop)

    def get(self) -> bool:
        return self.stop

    def __repr__(self) -> str:
        return f"StopWire({self.name!r}, {self.stop})"


class Link:
    """A point-to-point LIS link: one data wire + one stop wire.

    The producer writes ``data`` and reads ``stop``; the consumer does
    the opposite.  A transfer occurs in a cycle exactly when the data
    wire holds a non-void token *and* the stop wire is low; both ends
    observe the same wires, so they always agree.
    """

    __slots__ = ("name", "data", "stop")

    def __init__(self, name: str) -> None:
        self.name = name
        self.data = DataWire(f"{name}.data")
        self.stop = StopWire(f"{name}.stop")

    def transfer_fires(self) -> bool:
        return not is_void(self.data.get()) and not self.stop.get()

    def __repr__(self) -> str:
        return f"Link({self.name!r})"


class CheckpointError(RuntimeError):
    """Raised when an object's run state cannot be checkpointed."""


_CHECKPOINTED: set[type] = set()


def checkpointed(cls: type) -> type:
    """Class decorator: ``cls.save_state()`` captures all run state of
    an instance at a cycle boundary, and ``load_state(state)`` puts it
    back in place (keeping every object that generated code binds:
    FIFO deques, sink lists, RTL environments).  It covers exactly
    ``cls``: a subclass may keep state its parent does not know, so it
    cannot be checkpointed until it declares itself too."""
    _CHECKPOINTED.add(cls)
    return cls


def declared(obj: Any) -> Any:
    """``obj`` itself when its class is :func:`checkpointed`; raises
    :class:`CheckpointError` otherwise."""
    if type(obj) not in _CHECKPOINTED:
        raise CheckpointError(
            f"{type(obj).__name__} {getattr(obj, 'name', '')!r} "
            "cannot be checkpointed"
        )
    return obj


class Block:
    """Base class for everything the LIS simulator schedules.

    Subclasses implement the two phases plus commit:

    * :meth:`produce` — drive all output wires from registered state;
    * :meth:`consume` — read input wires, decide next state;
    * :meth:`commit` — atomically adopt the next state.

    Blocks that support :meth:`Simulation.checkpoint
    <repro.lis.simulator.Simulation.checkpoint>` also implement
    ``save_state``/``load_state`` and are :func:`checkpointed`.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def produce(self, cycle: int) -> None:
        raise NotImplementedError

    def consume(self, cycle: int) -> None:
        raise NotImplementedError

    def commit(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the power-up state."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
