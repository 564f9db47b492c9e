"""File-level rule exemptions, each with a documented rationale.

A whitelist entry says "this module is *allowed* to violate this rule,
and here is why" — it is the reviewed, durable form of an inline
``# reprolint: ignore[...]`` suppression.  Keys are module paths in
posix form relative to the package root (``repro/...``); a key ending
in ``/`` exempts the whole subtree.  The reason string is part of the
contract: a whitelist entry without a reason is rejected at import
time, so every exemption stays self-documenting.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["WHITELIST", "whitelisted_reason"]

# module path (or "dir/" prefix) -> rule code -> rationale
WHITELIST: Dict[str, Dict[str, str]] = {
    "repro/sim/rng.py": {
        "RPL001": (
            "the RngRegistry itself — the single sanctioned "
            "np.random.default_rng call site all streams derive from"
        ),
        "RPL202": (
            "the registry implementation: stream()/spawn() forward their "
            "name *parameter* to derive_seed, so the argument is dynamic "
            "by definition; every caller-facing name is still checked at "
            "the call sites"
        ),
    },
    "repro/honeypots/schedule.py": {
        "RPL001": (
            "the roaming schedule's RNG is seeded from the hash-chain "
            "key K_i: clients must recompute the active set from the "
            "disclosed key alone, so the seed is cryptographic state, "
            "not experiment state, and cannot come from a registry"
        ),
    },
    "repro/obs/": {
        "RPL002": (
            "telemetry measures wall-clock durations by design; "
            "observability never feeds back into simulation state"
        ),
    },
    "repro/parallel/": {
        "RPL002": (
            "the worker pool times out and retries real subprocesses, "
            "which requires real clocks; task *results* remain a pure "
            "function of the derived task seed"
        ),
    },
    "repro/experiments/validation.py": {
        "RPL202": (
            "replication seeds embed the run index "
            "(f'validation-{run_index}') so each of the n validation "
            "runs draws an independent stream; the index set is bounded "
            "and printed in the validation report, and the published "
            "tolerance gates pin the resulting values"
        ),
    },
}


def _validate() -> None:
    for path, rules in WHITELIST.items():
        for code, reason in rules.items():
            if not reason or not reason.strip():
                raise ValueError(
                    f"whitelist entry {path}:{code} has no rationale"
                )


_validate()


def whitelisted_reason(module_path: str, code: str) -> Optional[str]:
    """Rationale string if ``code`` is exempt in ``module_path``, else None.

    ``module_path`` is the posix path of the module relative to the
    source root (e.g. ``repro/sim/engine.py``).
    """
    entry = WHITELIST.get(module_path)
    if entry is not None and code in entry:
        return entry[code]
    for prefix, rules in WHITELIST.items():
        if prefix.endswith("/") and module_path.startswith(prefix):
            if code in rules:
                return rules[code]
    return None
