"""Defense plug-in interface for the packet simulator.

The paper compares three configurations on the same topology and
workload: no defense, plain ACC/Pushback, and Pushback augmented with
honeypot back-propagation (Section 8).  A :class:`Defense` attaches
agents to the instantiated network; scenarios stay defense-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Optional

from ..sim.network import Network

__all__ = ["Defense", "NoDefense"]


class Defense(ABC):
    """Something that can be attached to a network before a run.

    ``telemetry`` (a :class:`repro.obs.Telemetry` or None) is set by
    :meth:`use_telemetry` before :meth:`attach`; defenses that support
    observability pass it down to their agents, others ignore it.
    """

    name: str = "abstract"
    telemetry: Optional[Any] = None

    def use_telemetry(self, telemetry: Optional[Any]) -> "Defense":
        """Record the telemetry hub to instrument agents with."""
        self.telemetry = telemetry
        return self

    @abstractmethod
    def attach(self, network: Network) -> None:
        """Install agents/hooks on the network's nodes."""

    def stats(self) -> Dict[str, Any]:
        """Post-run statistics (captures, messages, ...)."""
        return {}


class NoDefense(Defense):
    """Baseline: the network runs with plain drop-tail FIFO queues."""

    name = "none"

    def attach(self, network: Network) -> None:  # noqa: ARG002
        return

    def stats(self) -> Dict[str, Any]:
        return {"defense": self.name}
