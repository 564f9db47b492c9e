"""Traffic generators: CBR clients, spoofing zombies, adversary policies."""

from .amplifier import AmplifierApp
from .attacker import (
    SPOOF_BASE,
    AttackHost,
    FollowerAttackHost,
    make_spoofer,
)
from .client import RoamingClientApp, StaticClientApp
from .policies import (
    NULL_PROBES,
    POLICY_NAMES,
    AttackerPolicy,
    AwareAttackHost,
    BotEnv,
    ChurnAttackHost,
    ChurnPolicy,
    ContinuousPolicy,
    DefenseProbes,
    FollowerPolicy,
    HoneypotAwarePolicy,
    ProbingAttackHost,
    ProbingPolicy,
    ReflectionAttackHost,
    ReflectionPolicy,
    make_policy,
    resolve_policy,
)
from .sources import CBRSource, OnOffSource

__all__ = [
    "AmplifierApp",
    "AttackHost",
    "AttackerPolicy",
    "AwareAttackHost",
    "BotEnv",
    "CBRSource",
    "ChurnAttackHost",
    "ChurnPolicy",
    "ContinuousPolicy",
    "DefenseProbes",
    "FollowerAttackHost",
    "FollowerPolicy",
    "HoneypotAwarePolicy",
    "NULL_PROBES",
    "OnOffSource",
    "POLICY_NAMES",
    "ProbingAttackHost",
    "ProbingPolicy",
    "ReflectionAttackHost",
    "ReflectionPolicy",
    "RoamingClientApp",
    "SPOOF_BASE",
    "StaticClientApp",
    "make_policy",
    "make_spoofer",
    "resolve_policy",
]
