"""File discovery, suppression handling, and the ``repro lint`` entry.

Diagnostic flow: every applicable rule reports candidates, then the
runner drops (a) whitelist exemptions from :mod:`repro.lint.whitelist`
and (b) lines carrying an inline suppression::

    foo = set(bar)  # reprolint: ignore[RPL003] -- membership only

``ignore`` with no bracket suppresses every rule on the line; a
suppression on a line that is *only* a comment applies to the next
code line, so long expressions stay readable.

Two analysis granularities compose:

* per-file rules (:mod:`repro.lint.rules`, RPL00x) run over every
  path argument;
* whole-program passes (:mod:`repro.lint.passes`, RPL1xx-3xx) run
  when ``--project [ROOT]`` is given: the project loader parses the
  tree once and the cross-module passes check shard-safety, the RNG
  stream registry and the journal schema.

Output is a deterministically ordered diagnostic list — sorted by
(path, line, col, code) — as plain text or SARIF 2.1.0
(``--format sarif``), optionally filtered through a checked-in
baseline (``--baseline``, see :mod:`repro.lint.baseline`).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from pathlib import Path, PurePosixPath
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

from .baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .diagnostics import Diagnostic
from .passes import ALL_PROJECT_RULES
from .project import Project, ProjectRule
from .rules import ALL_RULES, Rule
from .sarif import render_sarif
from .whitelist import WHITELIST, whitelisted_reason

__all__ = [
    "lint_source",
    "lint_file",
    "lint_paths",
    "lint_project",
    "project_pass_diagnostics",
    "main",
]

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*ignore(?:\[(?P<codes>[A-Za-z0-9,\s]+)\])?"
)

# Directories never scanned: caches, VCS internals, and the linter's
# own bad-on-purpose test fixtures.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".hg", "build", "dist", ".eggs", "fixtures"}
)

_EXIT_DOC = """\
exit status:
  0  clean (or every finding matched the baseline)
  1  violations found, or baseline drift (stale entries for findings
     that no longer exist — remove them from the baseline)
  2  usage error: bad path, malformed baseline, bad flags
"""


def _suppressed_codes(line: str) -> Optional[FrozenSet[str]]:
    """Codes suppressed on this physical line; empty set means 'all'."""
    m = _SUPPRESS_RE.search(line)
    if m is None:
        return None
    codes = m.group("codes")
    if codes is None:
        return frozenset()
    return frozenset(c.strip().upper() for c in codes.split(",") if c.strip())


def _is_suppressed(diag: Diagnostic, lines: Sequence[str]) -> bool:
    candidates: List[str] = []
    if 1 <= diag.line <= len(lines):
        candidates.append(lines[diag.line - 1])
        # A contiguous block of comment-only lines directly above
        # covers the next code line (suppressions may wrap).
        prev = diag.line - 2
        while prev >= 0 and lines[prev].lstrip().startswith("#"):
            candidates.append(lines[prev])
            prev -= 1
    for line in candidates:
        codes = _suppressed_codes(line)
        if codes is not None and (not codes or diag.code in codes):
            return True
    return False


def module_path_of(path: Path) -> str:
    """Posix module path relative to the source root.

    ``.../src/repro/sim/engine.py`` → ``repro/sim/engine.py`` so rule
    scoping and the whitelist are independent of where the repo lives;
    files outside a ``src/`` root (tests, benchmarks) keep their path
    relative to the current directory when possible.
    """
    posix = PurePosixPath(path.as_posix())
    parts = posix.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "src":
            return str(PurePosixPath(*parts[i + 1:]))
    try:
        return Path(path).resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return posix.as_posix()


def lint_source(
    source: str,
    module_path: str,
    rules: Sequence[Rule] = ALL_RULES,
    display_path: Optional[str] = None,
) -> List[Diagnostic]:
    """Lint one module's source text.

    ``module_path`` drives rule scoping and the whitelist (posix,
    e.g. ``repro/sim/engine.py``); ``display_path`` overrides the path
    shown in diagnostics (defaults to ``module_path``).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Diagnostic(
                path=display_path or module_path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) or 1,
                code="RPL000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    lines = source.splitlines()
    out: List[Diagnostic] = []
    for rule in rules:
        if not rule.applies_to(module_path):
            continue
        if whitelisted_reason(module_path, rule.code) is not None:
            continue
        for diag in rule.check(tree, module_path):
            if _is_suppressed(diag, lines):
                continue
            if display_path is not None:
                diag = Diagnostic(
                    display_path, diag.line, diag.col, diag.code, diag.message
                )
            out.append(diag)
    return sorted(out)


def lint_file(path: Path, rules: Sequence[Rule] = ALL_RULES) -> List[Diagnostic]:
    source = path.read_text(encoding="utf-8")
    return lint_source(
        source,
        module_path_of(path),
        rules=rules,
        display_path=str(path),
    )


def _iter_python_files(paths: Iterable[str]) -> Iterable[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if not _SKIP_DIRS.intersection(f.parts):
                    yield f
        elif p.suffix == ".py":
            yield p
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")


def lint_paths(
    paths: Sequence[str], rules: Sequence[Rule] = ALL_RULES
) -> List[Diagnostic]:
    """Lint files and directory trees; returns sorted diagnostics."""
    out: List[Diagnostic] = []
    for f in _iter_python_files(paths):
        out.extend(lint_file(f, rules=rules))
    return sorted(out)


def project_pass_diagnostics(
    project: Project,
    project_rules: Sequence[ProjectRule] = ALL_PROJECT_RULES,
) -> List[Diagnostic]:
    """Run the cross-module passes; whitelist/suppressions applied."""
    module_path_by_display = {
        mod.display_path: path for path, mod in project.modules.items()
    }
    out: List[Diagnostic] = []
    for rule in project_rules:
        for diag in rule.check(project):
            module_path = module_path_by_display.get(diag.path, diag.path)
            if whitelisted_reason(module_path, rule.code) is not None:
                continue
            if project.is_suppressed(diag, module_path):
                continue
            out.append(diag)
    # Parse failures surface once, through the per-file RPL000 path —
    # but a project loaded directly (API use) should not hide them.
    for path, mod in project.modules.items():
        if mod.parse_error is not None:
            line, col, msg = mod.parse_error
            out.append(
                Diagnostic(mod.display_path, line, col, "RPL000",
                           f"syntax error: {msg}")
            )
    return sorted(set(out))


def lint_project(
    root: str = "src",
    rules: Sequence[Rule] = ALL_RULES,
    project_rules: Sequence[ProjectRule] = ALL_PROJECT_RULES,
) -> List[Diagnostic]:
    """Whole-program lint: per-file rules plus cross-module passes."""
    project = Project.load(root)
    out: Set[Diagnostic] = set(lint_paths([root], rules=rules))
    out.update(project_pass_diagnostics(project, project_rules))
    return sorted(out)


def describe_rules() -> str:
    lines = ["reprolint rules (per-file):"]
    for rule in ALL_RULES:
        lines.append(f"  {rule.code}  {rule.name}")
        lines.append(f"      {rule.rationale}")
    lines.append("")
    lines.append("whole-program passes (--project):")
    for prule in ALL_PROJECT_RULES:
        lines.append(f"  {prule.code}  {prule.name}")
        lines.append(f"      {prule.rationale}")
    lines.append("")
    lines.append("whitelisted sites (repro/lint/whitelist.py):")
    for path in sorted(WHITELIST):
        for code, reason in sorted(WHITELIST[path].items()):
            lines.append(f"  {path} [{code}]: {reason}")
    lines.append("")
    lines.append(
        "suppress one line with `# reprolint: ignore[RPL00x] -- reason`"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro lint`` / ``python -m repro.lint`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="check the repo's determinism & reproducibility invariants",
        epilog=_EXIT_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--project",
        nargs="?",
        const="src",
        default=None,
        metavar="ROOT",
        help="also run the whole-program passes over ROOT (default "
        "when the flag is given: src): RPL1xx shard-safety (no "
        "handler-written module or class state, which leaks between "
        "scenarios sharing a process and makes serial and pooled "
        "journals diverge), RPL2xx RNG streams, RPL3xx journal schema",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="output format: human-readable text or SARIF 2.1.0",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="suppress findings recorded in this baseline file; "
        "stale entries (drift) fail the run",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to --baseline FILE and exit 0",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print a one-line summary (files, findings per rule)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe each rule, its rationale, and the whitelist",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        print(describe_rules())
        return 0
    if args.write_baseline and not args.baseline:
        print("repro lint: --write-baseline requires --baseline FILE",
              file=sys.stderr)
        return 2

    paths = list(args.paths or ["src"])
    try:
        checked = {str(f) for f in _iter_python_files(paths)}
        diag_set: Set[Diagnostic] = set(lint_paths(paths))
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.project is not None:
        if not Path(args.project).is_dir():
            print(f"repro lint: not a directory: {args.project}",
                  file=sys.stderr)
            return 2
        project = Project.load(args.project)
        checked.update(m.display_path for m in project.modules.values())
        diag_set.update(project_pass_diagnostics(project))
    diagnostics = sorted(diag_set)

    if args.write_baseline:
        write_baseline(
            Path(args.baseline),
            diagnostics,
            reason="accepted pre-existing finding — audit before committing",
        )
        print(
            f"repro lint: wrote {len(diagnostics)} finding"
            f"{'s' if len(diagnostics) != 1 else ''} to {args.baseline}"
        )
        return 0

    accepted: List[Diagnostic] = []
    stale: List = []
    if args.baseline:
        try:
            baseline = load_baseline(Path(args.baseline))
        except (OSError, BaselineError) as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        diagnostics, accepted, stale = apply_baseline(diagnostics, baseline)

    if args.format == "sarif":
        text = render_sarif(diagnostics, (*ALL_RULES, *ALL_PROJECT_RULES))
    else:
        text = "".join(f"{d.render()}\n" for d in diagnostics)
    if args.output is not None:
        Path(args.output).write_text(text, encoding="utf-8")
    elif text:
        sys.stdout.write(text)

    for key in stale:
        print(
            f"repro lint: baseline drift — stale entry {key[1]} @ {key[0]} "
            f"matches nothing; remove it from the baseline",
            file=sys.stderr,
        )
    if args.stats:
        by_code = Counter(d.code for d in diagnostics)
        per_rule = " ".join(
            f"{code}={n}" for code, n in sorted(by_code.items())
        )
        print(
            f"repro lint --stats: {len(checked)} files, "
            f"{len(diagnostics) + len(accepted)} findings "
            f"({len(accepted)} baselined, {len(stale)} stale)"
            + (f", new: {per_rule}" if per_rule else "")
        )
    if args.format == "text" and diagnostics and args.output is None:
        n = len(diagnostics)
        print(f"repro lint: {n} violation{'s' if n != 1 else ''}")
    return 1 if diagnostics or stale else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
