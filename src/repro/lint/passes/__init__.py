"""Cross-module analysis passes (reprolint v2).

Each pass is a :class:`repro.lint.project.ProjectRule`: it sees the
whole :class:`~repro.lint.project.Project` at once — import graph,
symbol table, call graph — instead of one AST.  Three rule families:

========  ==========================================================
 Code      Invariant (whole-program)
========  ==========================================================
 RPL101    no handler-reachable function writes module-level
           mutable state (shard-safety)
 RPL102    no class-level mutable containers or writes through a
           class object — state shared across all instances
 RPL103    no ``__init__`` capturing a mutable-container parameter
           without a defensive copy (cross-component aliasing)
 RPL201    no RNG stream name claimed by two different modules
 RPL202    no dynamic (non-literal) RNG stream names
 RPL203    no ``RngRegistry()`` constructed without an explicit seed
 RPL301    no journal kind emitted that is absent from the
           ``JOURNAL_KINDS`` schema table
 RPL302    no ``JOURNAL_KINDS`` entry that no code ever emits
 RPL303    no dynamic (non-literal) journal kinds
========  ==========================================================
"""

from __future__ import annotations

from typing import Tuple

from ..project import ProjectRule
from .journal_schema import (
    KindNeverEmitted,
    NonLiteralJournalKind,
    UndocumentedJournalKind,
)
from .rng_streams import DuplicateStreamName, NonLiteralStreamName, UnseededRegistry
from .shard_safety import (
    CapturedContainerParam,
    HandlerWritesModuleState,
    SharedClassState,
)

__all__ = [
    "ALL_PROJECT_RULES",
    "CapturedContainerParam",
    "DuplicateStreamName",
    "HandlerWritesModuleState",
    "KindNeverEmitted",
    "NonLiteralJournalKind",
    "NonLiteralStreamName",
    "ProjectRule",
    "SharedClassState",
    "UndocumentedJournalKind",
    "UnseededRegistry",
]

ALL_PROJECT_RULES: Tuple[ProjectRule, ...] = (
    HandlerWritesModuleState(),
    SharedClassState(),
    CapturedContainerParam(),
    DuplicateStreamName(),
    NonLiteralStreamName(),
    UnseededRegistry(),
    UndocumentedJournalKind(),
    KindNeverEmitted(),
    NonLiteralJournalKind(),
)
