"""SoC construction: patient processes, channels, relay stations.

:class:`System` is the netlist of a latency-insensitive SoC.  Channels
are declared with a forward *latency* (>= 1 cycle: one cycle is the
consumer's input-port register, each extra cycle inserts one relay
station, mirroring how the methodology segments long wires to break
critical paths).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .relay_station import RelayStation, segment_channel
from .shell import Shell, ShellError
from .signals import Block, Link
from .stream import Sink, Source


class SystemError_(RuntimeError):
    """Raised for malformed system graphs."""


class Channel:
    """Bookkeeping for one logical connection (for analysis/benches)."""

    def __init__(
        self,
        name: str,
        producer: str,
        consumer: str,
        latency: int,
        stations: Sequence[RelayStation],
        tokens: int = 0,
    ) -> None:
        self.name = name
        self.producer = producer
        self.consumer = consumer
        self.latency = latency
        self.stations = list(stations)
        self.tokens = tokens

    def __repr__(self) -> str:
        return (
            f"Channel({self.name!r}, {self.producer} -> {self.consumer}, "
            f"latency={self.latency}, relays={len(self.stations)}, "
            f"tokens={self.tokens})"
        )


class System:
    """A latency-insensitive SoC under construction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.shells: dict[str, Shell] = {}
        self.sources: dict[str, Source] = {}
        self.sinks: dict[str, Sink] = {}
        self.relay_stations: list[RelayStation] = []
        self.channels: list[Channel] = []
        self.links: list[Link] = []
        self._block_order: list[Block] = []

    # -- construction ---------------------------------------------------------

    def add_patient(self, shell: Shell) -> Shell:
        """Register a patient process (shell + pearl)."""
        if shell.name in self.shells:
            raise SystemError_(
                f"duplicate patient process name {shell.name!r}"
            )
        self.shells[shell.name] = shell
        self._block_order.append(shell)
        return shell

    def _new_link(self, name: str) -> Link:
        link = Link(name)
        self.links.append(link)
        return link

    def _register_stations(
        self, stations: Sequence[RelayStation]
    ) -> None:
        self.relay_stations.extend(stations)
        self._block_order.extend(stations)
        # Segment links (the ``.seg{k}`` hops between relay stations)
        # are created by segment_channel, not _new_link; register them
        # so a stall plan can address them.
        self.links.extend(station.downstream for station in stations)

    def connect(
        self,
        producer: Shell,
        out_name: str,
        consumer: Shell,
        in_name: str,
        latency: int = 1,
        initial_tokens: Sequence[Any] = (),
    ) -> Channel:
        """Channel from ``producer.out_name`` to ``consumer.in_name``.

        ``initial_tokens`` is the channel's reset-time marking: the
        token values are preloaded into the consumer's input-port FIFO
        (credit tokens that make feedback loops live) and counted in
        the channel's marked-graph model.
        """
        channel_name = (
            f"{producer.name}.{out_name}->{consumer.name}.{in_name}"
        )
        head = self._new_link(channel_name)
        stations, tail = segment_channel(channel_name, head, latency)
        self._register_stations(stations)
        producer.bind_output(out_name, head)
        port = consumer.bind_input(in_name, tail)
        if initial_tokens:
            port.preload(initial_tokens)
        channel = Channel(
            channel_name, producer.name, consumer.name, latency,
            stations, tokens=len(initial_tokens),
        )
        self.channels.append(channel)
        return channel

    def connect_source(
        self,
        name: str,
        tokens: Iterable[Any],
        consumer: Shell,
        in_name: str,
        latency: int = 1,
        gaps: Sequence[bool] | None = None,
    ) -> Source:
        """External stream into ``consumer.in_name``."""
        channel_name = f"{name}->{consumer.name}.{in_name}"
        head = self._new_link(channel_name)
        stations, tail = segment_channel(channel_name, head, latency)
        self._register_stations(stations)
        source = Source(name, head, tokens, gaps)
        if name in self.sources:
            raise SystemError_(f"duplicate source name {name!r}")
        self.sources[name] = source
        self._block_order.append(source)
        consumer.bind_input(in_name, tail)
        self.channels.append(
            Channel(channel_name, name, consumer.name, latency, stations)
        )
        return source

    def connect_sink(
        self,
        producer: Shell,
        out_name: str,
        name: str,
        latency: int = 1,
        stalls: Sequence[bool] | None = None,
        limit: int | None = None,
    ) -> Sink:
        """``producer.out_name`` into an external sink."""
        channel_name = f"{producer.name}.{out_name}->{name}"
        head = self._new_link(channel_name)
        stations, tail = segment_channel(channel_name, head, latency)
        self._register_stations(stations)
        producer.bind_output(out_name, head)
        sink = Sink(name, tail, stalls, limit)
        if name in self.sinks:
            raise SystemError_(f"duplicate sink name {name!r}")
        self.sinks[name] = sink
        self._block_order.append(sink)
        self.channels.append(
            Channel(channel_name, producer.name, name, latency, stations)
        )
        return sink

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        for shell in self.shells.values():
            shell.check_bound()
        if not self._block_order:
            raise SystemError_(f"system {self.name!r} is empty")

    @property
    def blocks(self) -> list[Block]:
        return list(self._block_order)

    def relay_station_count(self) -> int:
        return len(self.relay_stations)

    def __repr__(self) -> str:
        return (
            f"System({self.name!r}, patients={len(self.shells)}, "
            f"sources={len(self.sources)}, sinks={len(self.sinks)}, "
            f"relays={len(self.relay_stations)})"
        )
