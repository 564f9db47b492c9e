"""The unified telemetry hub: registry + journal + engine profile.

A :class:`Telemetry` object is the single thing a scenario, defense, or
benchmark threads through the stack.  Components take an optional
``telemetry`` argument and guard every use with ``if telemetry is not
None`` — a run without telemetry constructs no objects and executes no
instrumentation, so the disabled path costs nothing in the hot loop.

The hub also owns the *session rendezvous*: the honeypot defense's
lifecycle events are journaled by agents that never hold references to
each other (server trigger agents, per-router back-propagation agents,
HSMs), so they meet here on ``(honeypot_addr, epoch)`` to hang their
events under one ``session_open`` root per honeypot session.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from .export import registry_to_prometheus, write_json
from .journal import Journal, JournalEvent, render_timeline
from .profile import EngineProfiler
from .registry import MetricsRegistry

__all__ = ["Telemetry"]

SessionKey = Tuple[int, int]  # (honeypot addr, epoch)


class Telemetry:
    """Bundle of the observability primitives for one run."""

    def __init__(self, sim: Optional[Any] = None) -> None:
        self.registry = MetricsRegistry()
        self.journal = Journal()
        self.profiler = EngineProfiler()
        self.session_journal: Dict[SessionKey, JournalEvent] = {}
        self._closed: Set[SessionKey] = set()
        # Free-form run-level payload merged into the artifact (figure
        # series, scenario parameters, capture summaries, ...).
        self.extra: Dict[str, Any] = {}
        # Live streamer, when one is armed on this run (set by the
        # scenario); render() surfaces its obs self-cost meter.
        self.streamer: Optional[Any] = None
        if sim is not None:
            self.bind(sim)

    def bind(self, sim: Any) -> "Telemetry":
        """Clock the journal off ``sim`` and profile its event loop;
        the simulator also journals its own run boundaries."""
        # The session rendezvous is per simulation run: a hub shared by
        # several runs binding a fresh simulator must not let a previous
        # run's (honeypot, epoch) keys swallow this run's session_open
        # events — a per-task telemetry starts empty, and a shared one
        # must match it byte-for-byte.
        self.session_journal.clear()
        self._closed.clear()
        self.journal.clock = lambda: sim.now
        sim.journal = self.journal
        self.profiler.attach(sim)
        return self

    # ------------------------------------------------------------------
    # Honeypot-session rendezvous
    # ------------------------------------------------------------------
    def open_session(
        self, honeypot_addr: int, epoch: int, **attrs: Any
    ) -> JournalEvent:
        """The session's ``session_open`` root event, recorded on the
        first call per key; later calls (even after the close) return
        the same root."""
        key = (honeypot_addr, epoch)
        root = self.session_journal.get(key)
        if root is None:
            root = self.session_journal[key] = self.journal.record(
                "session_open", honeypot=honeypot_addr, epoch=epoch, **attrs
            )
            self.registry.counter("honeypot_sessions_total").inc()
        return root

    def journal_root(
        self, honeypot_addr: int, epoch: int
    ) -> Optional[JournalEvent]:
        """The session's root event, without opening the session."""
        return self.session_journal.get((honeypot_addr, epoch))

    def close_session(self, honeypot_addr: int, epoch: int, **attrs: Any) -> None:
        """Record ``session_close`` under the root (once per key)."""
        key = (honeypot_addr, epoch)
        root = self.session_journal.get(key)
        if root is not None and key not in self._closed:
            self._closed.add(key)
            self.journal.record(
                "session_close", parent=root, honeypot=honeypot_addr,
                epoch=epoch, **attrs,
            )

    # ------------------------------------------------------------------
    # Post-run collection
    # ------------------------------------------------------------------
    def snapshot_network(self, net: Any) -> None:
        """Fold a :class:`~repro.sim.network.Network`'s own counters into
        the registry.  This is how the hot path stays uninstrumented:
        links and routers count for themselves (plain attribute adds
        they do anyway), and the totals are collected once, here."""
        reg = self.registry
        from ..sim.node import Host, Router  # local import avoids a cycle

        recv = orig = fwd = filt = noroute = 0
        host_bytes = 0
        for node in net.nodes.values():
            recv += node.packets_received
            orig += node.packets_originated
            if isinstance(node, Router):
                fwd += node.packets_forwarded
                filt += node.packets_filtered
                noroute += node.no_route_drops
            elif isinstance(node, Host):
                host_bytes += node.bytes_received
        reg.counter("node_packets_received_total").inc(recv)
        reg.counter("node_packets_originated_total").inc(orig)
        reg.counter("router_packets_forwarded_total").inc(fwd)
        reg.counter("router_packets_filtered_total").inc(filt)
        reg.counter("router_no_route_drops_total").inc(noroute)
        reg.counter("host_bytes_received_total").inc(host_bytes)

        sent = dropped = sent_bytes = qdepth = 0
        qmax = 0
        for link in net.links:
            for ch in (link.ab, link.ba):
                sent += ch.packets_sent
                sent_bytes += ch.bytes_sent
                dropped += ch.packets_dropped
                qdepth += len(ch.queue)
                qmax = max(qmax, len(ch.queue))
        reg.counter("channel_packets_sent_total").inc(sent)
        reg.counter("channel_bytes_sent_total").inc(sent_bytes)
        reg.counter("channel_packets_dropped_total").inc(dropped)
        reg.gauge("queue_depth_packets").set(qdepth)
        reg.gauge("queue_depth_packets_max_channel").set(qmax)
        reg.counter("sim_events_processed_total").inc(net.sim.events_processed)

    def record_stats(self, stats: Dict[str, Any], prefix: str = "") -> None:
        """Numeric entries of a ``Defense.stats()`` dict -> counters."""
        for key, value in stats.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self.registry.counter(f"{prefix}{key}").inc(value)

    # ------------------------------------------------------------------
    # Artifact assembly
    # ------------------------------------------------------------------
    def artifact(self) -> Dict[str, Any]:
        """The machine-readable run artifact (JSON-serializable)."""
        payload: Dict[str, Any] = {
            "schema": "repro.obs/1",
            "metrics": self.registry.as_dict(),
            "journal": self.journal.to_dicts(),
            "engine": self.profiler.as_dict(),
        }
        payload.update(self.extra)
        return payload

    def write(self, path: str) -> str:
        return write_json(path, self.artifact())

    def render_engine_profile(self) -> str:
        """The :class:`EngineProfiler` numbers as a human-readable block
        (the piece ``repro stats`` prints; empty when nothing ran)."""
        prof = self.profiler.as_dict()
        if not prof["events_processed"]:
            return ""
        lines = [
            "engine profile:",
            f"  events processed   {prof['events_processed']}",
            f"  events/sec         {prof['events_per_sec']:.0f}",
            f"  wall per sim-sec   {prof['wall_per_sim_sec']:.4f} s",
            f"  heap high-water    {prof['heap_hwm_events']} events",
            f"  runs               {prof['runs']} "
            f"({prof['wall_time_s']:.2f} s wall)",
        ]
        streamer = self.streamer
        if streamer is not None:
            cost = streamer.self_cost()
            lines.append(
                f"  obs self-cost      {cost['self_wall_s']:.4f} s "
                f"({100.0 * cost['self_frac']:.2f}% of run wall, "
                f"{int(cost['snapshots'])} snapshots)"
            )
        return "\n".join(lines)

    def render(self) -> str:
        """Human-readable dump: prometheus text + session timelines."""
        parts = [registry_to_prometheus(self.registry)]
        if self.journal.events:
            parts.append(render_timeline(self.journal))
            parts.append(
                f"journal: {len(self.journal.events)} events recorded "
                "(write with --journal-out, inspect with `repro replay`)"
            )
        parts.append(self.render_engine_profile())
        return "\n".join(p for p in parts if p)
