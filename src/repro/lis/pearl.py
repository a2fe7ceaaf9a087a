"""Pearls: suspendable synchronous IP cores.

In Carloni's terminology the *pearl* is the reusable IP and the *shell*
is the synchronization wrapper around it.  A pearl here is a Python
object with

* named input/output ports,
* a cyclic :class:`~repro.core.schedule.IOSchedule` describing which
  port subsets it touches at each synchronization point, and
* functional hooks (:meth:`on_sync`, :meth:`on_run`) the shell calls
  when it fires the pearl clock.

A pearl never looks at the LIS protocol — it is a plain synchronous
design that can be *suspended* between any two cycles, which is exactly
the patient-process contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from .signals import checkpointed

if TYPE_CHECKING:  # avoid runtime repro.core <-> repro.lis import cycle
    from ..core.schedule import IOSchedule


class PearlError(RuntimeError):
    """Raised when a pearl violates its declared schedule."""


class Pearl:
    """Base class for schedule-driven IP cores.

    Subclasses implement :meth:`on_sync` (consume the popped tokens of
    sync point *index*, return the tokens to push) and optionally
    :meth:`on_run` (one internal free-run cycle).  The shell guarantees
    ``on_sync`` is called with exactly the ports of the schedule's sync
    point, in cyclic order.
    """

    def __init__(self, name: str, schedule: "IOSchedule") -> None:
        self.name = name
        self.schedule = schedule
        self.local_cycle = 0  # cycles of the gated IP clock that fired

    @property
    def inputs(self) -> tuple[str, ...]:
        return self.schedule.inputs

    @property
    def outputs(self) -> tuple[str, ...]:
        return self.schedule.outputs

    # -- hooks the shell drives ------------------------------------------------

    def on_sync(
        self, index: int, popped: Mapping[str, Any]
    ) -> Mapping[str, Any]:
        """Handle sync point ``index``; return {output port: token}."""
        raise NotImplementedError

    def on_run(self, index: int, phase: int) -> None:
        """One free-run cycle after sync point ``index`` (``phase`` counts
        from 0).  Default: pure internal computation, nothing to model."""

    def on_reset(self) -> None:
        """Return internal state to power-up values."""
        self.local_cycle = 0

    def save_state(self):
        """The pearl's run state, for :meth:`load_state` (a
        subclass with state of its own extends both, and declares
        itself :func:`~repro.lis.signals.checkpointed`)."""
        return self.local_cycle

    def load_state(self, state) -> None:
        self.local_cycle = state

    # -- shell-side bookkeeping ---------------------------------------------------

    def _clocked(self) -> None:
        self.local_cycle += 1

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"schedule={self.schedule.stats()})"
        )


class FunctionPearl(Pearl):
    """A pearl defined by a plain function per sync point.

    ``fn(index, popped) -> pushed`` — convenient for tests and small
    examples where no internal state is needed.
    """

    def __init__(self, name: str, schedule: "IOSchedule", fn) -> None:
        super().__init__(name, schedule)
        self._fn = fn

    def on_sync(
        self, index: int, popped: Mapping[str, Any]
    ) -> Mapping[str, Any]:
        return self._fn(index, popped)


@checkpointed
class PassthroughPearl(Pearl):
    """Single-input single-output identity pearl (protocol tests)."""

    def __init__(self, name: str, schedule: "IOSchedule") -> None:
        if len(schedule.inputs) != 1 or len(schedule.outputs) != 1:
            raise PearlError("PassthroughPearl needs exactly 1 in / 1 out")
        super().__init__(name, schedule)

    def on_sync(
        self, index: int, popped: Mapping[str, Any]
    ) -> Mapping[str, Any]:
        (value,) = popped.values()
        return {self.schedule.outputs[0]: value}
