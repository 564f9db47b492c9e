"""reprolint — AST-based determinism & reproducibility linter.

The reproduction's headline guarantee — bit-identical results for a
given seed regardless of worker count — rests on conventions that
nothing in the interpreter enforces: all randomness flows through the
named streams of :class:`repro.sim.rng.RngRegistry`, simulation code
never reads wall clocks, iteration that reaches scheduling or
serialized output never depends on set ordering, and seed derivation
never passes through ``PYTHONHASHSEED``-dependent ``hash()``.

This package makes those conventions machine-checked.  It is a
standalone static-analysis pass over Python source (stdlib :mod:`ast`
only, no third-party dependencies) at two granularities.

Per-file rules, one per invariant:

========  ==========================================================
 Code      Invariant
========  ==========================================================
 RPL001    no ad-hoc randomness outside ``repro/sim/rng.py`` and
           whitelisted sites — draw from ``RngRegistry.stream()``
 RPL002    no wall-clock reads inside simulation packages
 RPL003    no iteration over unordered set expressions without
           ``sorted()``
 RPL004    no ``hash()`` of str/bytes (PYTHONHASHSEED-dependent) and
           no ``os.urandom`` in seed paths
 RPL005    no mutable default arguments
========  ==========================================================

Whole-program passes (``repro lint --project``) over the loaded
:class:`~repro.lint.project.Project` — import graph, symbol table and
the handler call graph (:mod:`repro.lint.callgraph`):

========  ==========================================================
 Family    Invariant (see :mod:`repro.lint.passes`)
========  ==========================================================
 RPL1xx    shard-safety: no event handler reaches shared mutable
           state (module globals, class attributes, captured
           containers) — keeps handlers independent of process and
           dispatch order, so pool workers and replays agree
 RPL2xx    RNG-stream registry: stream names are literal, unique
           across modules, and drawn from seeded registries
 RPL3xx    journal schema: emitted journal kinds and the
           ``JOURNAL_KINDS`` table agree in both directions, and
           every kind is a literal
========  ==========================================================

Diagnostics can be suppressed per line with ``# reprolint:
ignore[RPL001]`` (optionally ``-- reason``); file-level exemptions
with a documented rationale live in :mod:`repro.lint.whitelist`;
accepted pre-existing findings live in a checked-in baseline
(:mod:`repro.lint.baseline`).  ``--format sarif`` emits SARIF 2.1.0
(:mod:`repro.lint.sarif`) for GitHub code scanning.

Run it as ``repro lint [paths...] [--project]`` or ``python -m repro
lint``; the suite's meta-tests assert the repo itself stays clean at
both granularities.
"""

from __future__ import annotations

from .baseline import BASELINE_SCHEMA, apply_baseline, load_baseline
from .diagnostics import Diagnostic
from .passes import ALL_PROJECT_RULES
from .project import Project, ProjectRule
from .rules import ALL_RULES, Rule
from .runner import (
    lint_file,
    lint_paths,
    lint_project,
    lint_source,
    main,
    project_pass_diagnostics,
)
from .sarif import render_sarif, to_sarif
from .whitelist import WHITELIST, whitelisted_reason

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "BASELINE_SCHEMA",
    "Diagnostic",
    "Project",
    "ProjectRule",
    "Rule",
    "WHITELIST",
    "apply_baseline",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "load_baseline",
    "main",
    "project_pass_diagnostics",
    "render_sarif",
    "to_sarif",
    "whitelisted_reason",
]
