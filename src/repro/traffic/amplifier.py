"""Amplifier nodes for reflection/amplification workloads.

An amplifier is an ordinary leaf host running an abusable service: for
every *trigger* packet it receives (flow ``("trigger", bot)``, source
spoofed to the victim's address) it reflects ``gain`` response packets
to the trigger's claimed source — the victim — under its **own, true**
address.  From the defense's point of view the amplifier *is* the
attack source: reflected packets carry ``flow=("attack", amplifier)``
and ``true_src=amplifier``, so honeypot back-propagation captures the
reflector, not the bot.

Stage two of the traceback lives in the trigger log: the amplifier
records the true source of every trigger it served
(:attr:`AmplifierApp.trigger_sources`), which the scenario surfaces as
``traced_sources`` once the reflector is captured, and journals as a
``reflector_traceback`` event.  The first trigger from each distinct
source is journaled as a ``reflect_hop`` (one event per edge of the
reflection graph, never per packet).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..sim.engine import Simulator
from ..sim.node import Host
from ..sim.packet import Packet, PacketKind

__all__ = ["AmplifierApp"]


class AmplifierApp:
    """An abusable reflector service on a leaf host."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        amplification: float = 5.0,
        journal: Optional[Any] = None,
    ) -> None:
        if amplification < 1.0:
            raise ValueError(f"amplification must be >= 1 (got {amplification})")
        self.sim = sim
        self.host = host
        self.gain = int(amplification)
        self.journal = journal
        self.triggers_received = 0
        self.packets_reflected = 0
        # Stage-two evidence: trigger true_src -> trigger count.
        self.trigger_sources: Dict[int, int] = {}
        host.on_deliver(self._on_deliver)

    def _on_deliver(self, pkt: Packet) -> None:
        if pkt.kind != PacketKind.DATA or not pkt.flow or pkt.flow[0] != "trigger":
            return
        self.triggers_received += 1
        source = int(pkt.true_src)
        victim = int(pkt.src)
        if source not in self.trigger_sources:
            self.trigger_sources[source] = 0
            if self.journal is not None:
                self.journal.record(
                    "reflect_hop",
                    amplifier=int(self.host.addr),
                    source=source,
                    victim=victim,
                    gain=self.gain,
                )
        self.trigger_sources[source] += 1
        # Reflect under the amplifier's true address: the defense's
        # back-propagated signature points here, not at the bot.
        size = pkt.size
        for _ in range(self.gain):
            out = Packet(
                self.host.addr,
                victim,
                size,
                true_src=self.host.addr,
                flow=("attack", self.host.addr),
            )
            self.packets_reflected += 1
            self.host.originate(out)
