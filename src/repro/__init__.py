"""repro — Honeypot back-propagation for mitigating spoofing DDoS attacks.

A from-scratch reproduction of Khattab, Melhem, Mossé & Znati,
J. Parallel Distrib. Comput. 66 (2006) 1152–1164.

Packages
--------
``repro.sim``
    Discrete-event, packet-level network simulator (the ns-2 substitute).
``repro.topology``
    String, Fig.-7 tree, and AS-level topology generators.
``repro.crypto``
    Hash chains and control-message authentication.
``repro.honeypots``
    The roaming honeypots substrate: schedules, server pool,
    subscriptions, blacklisting, connection checkpointing.
``repro.traffic``
    CBR clients, spoofing zombies, on-off and follower attackers.
``repro.pushback``
    The ACC/Pushback baseline (and level-k max–min fairness).
``repro.backprop``
    The paper's contribution: intra-AS (router-level) and inter-AS
    (HSM-level) honeypot back-propagation, progressive scheme,
    incremental deployment.
``repro.defense``
    Pluggable defense harness for the packet simulator.
``repro.analysis``
    Section 7's capture-time equations.
``repro.experiments``
    Scenario builders and batch runners for every figure.
``repro.obs``
    Unified observability: counter and gauge totals, causal event
    journal, simulator self-profiling, and JSON run artifacts.
"""

__version__ = "1.0.0"

from . import (  # noqa: F401
    analysis,
    backprop,
    crypto,
    defense,
    experiments,
    honeypots,
    obs,
    pushback,
    related,
    sim,
    topology,
    traffic,
)

__all__ = [
    "analysis",
    "backprop",
    "crypto",
    "defense",
    "experiments",
    "honeypots",
    "obs",
    "pushback",
    "related",
    "sim",
    "topology",
    "traffic",
    "__version__",
]
