"""RPL3xx — journal schema coherence, checked statically.

The ``repro.journal/1`` journal is the repo's determinism witness and
the input to replay/report tooling.  That tooling can only be trusted
if the set of event kinds is closed: every kind the code emits appears
in the :data:`repro.obs.journal.JOURNAL_KINDS` schema table (so replay,
``repro report`` and downstream consumers know the vocabulary), and
every table entry is actually emitted somewhere (so the table doesn't
document fiction).

* **RPL301** — a ``journal.record("kind", ...)`` literal absent from
  the ``JOURNAL_KINDS`` table (or no table exists at all).
* **RPL302** — a ``JOURNAL_KINDS`` entry no code ever emits.
* **RPL303** — a journal kind built at runtime (non-literal).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ..diagnostics import Diagnostic
from ..project import ModuleFacts, Project, ProjectRule

__all__ = [
    "KindNeverEmitted",
    "NonLiteralJournalKind",
    "UndocumentedJournalKind",
]


def _kind_tables(
    project: Project,
) -> List[Tuple[str, ModuleFacts, Dict[str, int]]]:
    """All ``JOURNAL_KINDS`` tables in the project (usually exactly one)."""
    out = []
    for mod_path, mod in project.modules.items():
        if mod.journal_kinds_table is not None:
            out.append((mod_path, mod, mod.journal_kinds_table))
    return out


class UndocumentedJournalKind(ProjectRule):
    code = "RPL301"
    name = "no journal kind missing from the JOURNAL_KINDS schema table"
    rationale = (
        "replay/report tooling trusts the schema table as the closed "
        "vocabulary of repro.journal/1; an undocumented kind is invisible "
        "to consumers that validate against it"
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        tables = _kind_tables(project)
        documented: Set[str] = set()
        for _path, _mod, table in tables:
            documented.update(table)
        for mod_path, mod in project.modules.items():
            for use in mod.journal_uses:
                if use.kind is None or use.kind in documented:
                    continue
                if tables:
                    msg = (
                        f"journal kind '{use.kind}' is not in the "
                        f"JOURNAL_KINDS schema table ({tables[0][0]}) — add "
                        f"it so replay/report tooling sees it"
                    )
                else:
                    msg = (
                        f"journal kind '{use.kind}' emitted but the project "
                        f"has no JOURNAL_KINDS schema table — declare one in "
                        f"the journal module"
                    )
                yield self._diag(mod, use.line, use.col, msg)


class KindNeverEmitted(ProjectRule):
    code = "RPL302"
    name = "no JOURNAL_KINDS entry that is never emitted"
    rationale = (
        "a schema entry nothing emits documents fiction; either the emitter "
        "was lost in a refactor or the entry should be removed"
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        emitted: Set[str] = set()
        for mod in project.modules.values():
            emitted.update(
                use.kind for use in mod.journal_uses if use.kind is not None
            )
        for _mod_path, mod, table in _kind_tables(project):
            for kind in sorted(table):
                if kind not in emitted:
                    yield self._diag(
                        mod,
                        table[kind],
                        1,
                        f"JOURNAL_KINDS entry '{kind}' is never emitted by "
                        f"any journal.record() call in the project",
                    )


class NonLiteralJournalKind(ProjectRule):
    code = "RPL303"
    name = "no dynamic journal kinds"
    rationale = (
        "a kind built at runtime cannot be checked against the schema "
        "table, so the journal vocabulary silently stops being closed"
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for mod_path, mod in project.modules.items():
            for use in mod.journal_uses:
                if use.kind is None:
                    yield self._diag(
                        mod,
                        use.line,
                        use.col,
                        "non-literal journal kind passed to journal.record() "
                        "— use a string literal from the JOURNAL_KINDS table",
                    )

