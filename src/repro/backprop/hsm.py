"""Honeypot Session Managers (HSMs).

"The first mechanism uses a honeypot session manager (HSM), which is a
host in the AS network that maintains honeypot sessions and identifies
the AS edge routers from which honeypot traffic enters the AS."
(Section 5.1)

The HSM of an AS:

* creates a honeypot session on an authenticated honeypot request;
* diverts ingress traffic destined for the honeypot to itself (modeled
  by :mod:`repro.backprop.marking`: GRE tunnels or edge-router ID
  marking identify the ingress edge router / upstream AS);
* relays requests to the HSMs of upstream neighbor ASs from which
  honeypot traffic arrives.

Cancels are walked by the inter-AS engine
(:class:`repro.backprop.interas.InterASBackprop`), which tears each
session down with :meth:`HSM.drop_session` — unless the AS is a
non-transit AS still running intra-AS traceback.

HSM protection (Section 5.3) is reflected in the constructor: HSMs get
private addresses (not routable from outside the AS) and only accept
MAC-verified messages from peered neighbor HSMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..crypto.auth import KeyRing
from .messages import HoneypotRequest, sign_inter_as, verify_inter_as
from .session import HoneypotSession

__all__ = ["HSMState", "HSM"]

# Private (RFC1918-like) address base for HSMs: not reachable from
# outside the AS, so external attack traffic cannot target them.
HSM_PRIVATE_ADDR_BASE = 2_000_000_000


@dataclass
class HSMState:
    """Bookkeeping counters of one HSM."""

    forged_rejected: int = 0


class HSM:
    """The honeypot session manager of one AS (protocol logic only).

    Transport (delays, who is upstream) is supplied by the inter-AS
    engine; the HSM encapsulates message validation and session state,
    so the same logic is reusable under different transports.
    """

    def __init__(self, asn: int, transit: bool, keyring: KeyRing) -> None:
        self.asn = asn
        self.transit = transit
        self.keyring = keyring
        self.private_addr = HSM_PRIVATE_ADDR_BASE + asn
        self.sessions: Dict[int, HoneypotSession] = {}
        self.state = HSMState()
        # Honeypot addr -> downstream AS the request came from (for
        # status/cancel routing).
        self.downstream_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def accept_request(
        self, msg: HoneypotRequest, from_as: Optional[int], now: float
    ) -> Optional[HoneypotSession]:
        """Validate and apply a honeypot request; returns the session
        (new or refreshed) or None if the message was rejected."""
        if from_as is not None:
            if not self.keyring.has(self.asn, from_as) or not verify_inter_as(
                msg, self.keyring.between(self.asn, from_as)
            ):
                self.state.forged_rejected += 1
                return None
        sess = self.sessions.get(msg.honeypot_addr)
        if sess is None or sess.epoch != msg.epoch:
            # A new session diverts ingress traffic for the honeypot into
            # the HSM (iBGP next-hop announcement to the edge routers).
            sess = HoneypotSession(
                honeypot_addr=msg.honeypot_addr, epoch=msg.epoch, created_at=now
            )
            self.sessions[msg.honeypot_addr] = sess
        if from_as is not None:
            self.downstream_of[msg.honeypot_addr] = from_as
        return sess

    def make_request_for(self, honeypot_addr: int, epoch: int, to_as: int) -> HoneypotRequest:
        """Build a signed request for the upstream neighbor ``to_as``."""
        auth = self.keyring.establish(self.asn, to_as)
        msg = HoneypotRequest(honeypot_addr, epoch, origin_as=self.asn)
        return sign_inter_as(msg, auth)

    # ------------------------------------------------------------------
    def drop_session(self, honeypot_addr: int) -> None:
        self.sessions.pop(honeypot_addr, None)
        self.downstream_of.pop(honeypot_addr, None)
