"""Command-line interface: regenerate figures and query the analysis.

Usage::

    python -m repro list
    python -m repro lint src/ tests/ benchmarks/
    python -m repro fig8 --scale quick
    python -m repro fig11 --scale quick --jobs 4
    python -m repro fig8 --scale quick --metrics-out out.json
    python -m repro stats --scale quick
    python -m repro sweep --field n_attackers --values 5,10,25 \
        --seeds 0,1 --scale quick --jobs 4 \
        --checkpoint sweep.ck.json --out sweep.json
    python -m repro analyze --scheme progressive --m 10 --p 0.4 --h 10 \
        --r 10 --tau 1 --t-on 3 --t-off 10
    python -m repro stats --scale quick --journal-out run.jsonl
    python -m repro replay run.jsonl
    python -m repro replay --check serial.jsonl pool.jsonl
    python -m repro report run.jsonl --html report.html
    python -m repro regress --summary benchmarks/out/summary.json
    python -m repro kinds
    python -m repro profile --scale quick --trace run.trace.json
    python -m repro critical-path run.jsonl
    python -m repro report run.jsonl --critical --html report.html

``--metrics-out FILE`` on a figure command (and on ``stats`` and
``sweep``) attaches the :mod:`repro.obs` telemetry layer to the
simulation runs and writes the machine-readable run artifact — counter
and gauge totals, causal event journal, and engine self-profile — as
JSON.
``--journal-out FILE`` writes just the causal event journal in its
canonical JSONL form (``repro.journal/1``).  ``stats`` runs the
standard quick scenario under full observability and prints the
human-readable telemetry dump, session timelines included.

``replay`` reconstructs the traceback tree from a journal alone
(``--check A B`` structurally diffs two journals and exits nonzero
naming the first diverging event); ``report`` renders the causal tree
as ASCII or a self-contained HTML timeline; ``regress`` compares a
bench summary against the committed baseline with per-metric tolerance
bands, records a ``BENCH_<n>.json`` trajectory point, and exits 0/1 —
the CI regression gate.

The performance-observability commands analyse the causal journal
*after* the run ("profile the journal, not the run"): ``profile`` runs
a scenario with per-dimension engine attribution (wall-time per
callback kind × module), ``critical-path`` computes
work/span/available-parallelism and explains what bounded each
capture, ``kinds`` prints the ``repro.journal/1`` event vocabulary,
and ``--trace FILE`` on both analysis commands exports a Chrome
trace-event JSON loadable in Perfetto (https://ui.perfetto.dev).  All journal-reading commands
accept gzip-compressed ``*.jsonl.gz`` files transparently.

``--jobs N`` (or ``$REPRO_JOBS``) fans independent scenario runs out
over the :mod:`repro.parallel` worker pool; results are identical to a
serial run.  ``sweep`` runs an arbitrary one-parameter sweep over the
pool with per-task timeout, retry, and quarantine; its exit code is 0
when every point completed and 3 on partial failure (quarantined
points are listed in the ``--out`` artifact, and completed work is
reusable via ``--checkpoint``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence, get_args, get_type_hints

from .analysis.capture_time import capture_time
from .experiments.figures import FIGURES, figure

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Honeypot back-propagation reproduction (Khattab et al., JPDC 2006): "
            "regenerate the paper's figures or evaluate the capture-time analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the regenerable figures")

    figure_help = {
        "policies": "capture-rate curves for every adversary policy "
        "(adaptive attackers + reflection/amplification)",
    }
    for name in sorted(FIGURES):
        p = sub.add_parser(
            name, help=figure_help.get(name, f"regenerate the paper's {name}")
        )
        p.add_argument(
            "--scale",
            choices=("quick", "default", "paper"),
            default="default",
            help="workload scale: quick (seconds), default (minutes), "
            "paper (full 1000-leaf, 1000 s runs)",
        )
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            default=None,
            help="instrument the runs with repro.obs and write the "
            "telemetry artifact (metrics + journal + engine profile) as JSON",
        )
        p.add_argument(
            "--journal-out",
            metavar="FILE",
            default=None,
            help="instrument the runs and write the causal event journal "
            "in canonical JSONL form (repro.journal/1)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="run the figure's independent scenarios on N pool "
            "workers (default: $REPRO_JOBS, else serial); results are "
            "identical to a serial run",
        )

    w = sub.add_parser(
        "sweep",
        help="sweep one scenario parameter over the parallel run pool",
    )
    w.add_argument(
        "--field",
        required=True,
        help="TreeScenarioParams field to sweep (e.g. n_attackers; "
        "seeds are swept with --seeds)",
    )
    w.add_argument(
        "--values",
        required=True,
        help="comma-separated values (cast to the field's current type)",
    )
    w.add_argument(
        "--seeds",
        default="0",
        help="comma-separated replication seeds (default: 0)",
    )
    w.add_argument(
        "--scale",
        choices=("quick", "default", "paper"),
        default="default",
        help="workload scale of the base scenario",
    )
    w.add_argument(
        "--defense",
        choices=("honeypot", "pushback", "none"),
        default="honeypot",
        help="defense configuration of the base scenario",
    )
    _add_policy_args(w)
    w.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="pool workers (default: $REPRO_JOBS, else 1)",
    )
    w.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock timeout (worker is killed and the "
        "task retried, then quarantined); with --jobs 1 the tasks then "
        "run on one worker process instead of in-process",
    )
    w.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        metavar="K",
        help="attempts per task before quarantine (default: 2)",
    )
    w.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="JSON checkpoint: completed tasks are recorded as they "
        "finish and skipped on re-run (resume after a kill)",
    )
    w.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the machine-readable sweep artifact as JSON",
    )
    w.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="instrument every sweep task and write the merged "
        "telemetry artifact (worker artifacts absorbed in task order, "
        "identical to a serial instrumented sweep)",
    )
    w.add_argument(
        "--journal-out",
        metavar="FILE",
        default=None,
        help="also write the merged causal event journal as JSONL",
    )
    w.add_argument(
        "--profile",
        action="store_true",
        help="per-dimension engine attribution on every instrumented "
        "task; worker tables merge into the --metrics-out artifact "
        "(implies instrumentation when set with --metrics-out)",
    )

    # Listed here for `repro --help` only: main() hands everything
    # after `lint` to repro.lint.runner.main, which owns the options.
    sub.add_parser(
        "lint",
        add_help=False,
        help="statically check the determinism & reproducibility "
        "invariants (per-file rules RPL001-005, whole-program passes "
        "RPL1xx/2xx/3xx via --project; see `repro lint --help`)",
    )

    s = sub.add_parser(
        "stats",
        help="run the standard scenario with full observability and "
        "print the telemetry dump",
    )
    s.add_argument(
        "--scale",
        choices=("quick", "default", "paper"),
        default="quick",
        help="workload scale of the instrumented run",
    )
    s.add_argument(
        "--defense",
        choices=("honeypot", "pushback", "none"),
        default="honeypot",
        help="defense configuration to instrument",
    )
    _add_policy_args(s)
    s.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="also write the telemetry artifact as JSON",
    )
    s.add_argument(
        "--journal-out",
        metavar="FILE",
        default=None,
        help="also write the causal event journal as JSONL",
    )

    pf = sub.add_parser(
        "profile",
        help="run a scenario with per-dimension engine attribution "
        "(wall-time per callback kind x module)",
    )
    pf.add_argument(
        "--scale",
        choices=("quick", "default", "paper"),
        default="quick",
        help="workload scale of the profiled run",
    )
    pf.add_argument(
        "--defense",
        choices=("honeypot", "pushback", "none"),
        default="honeypot",
        help="defense configuration to profile",
    )
    _add_policy_args(pf)
    pf.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="attribution rows to print (default: 15)",
    )
    pf.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="also write the telemetry artifact (including the "
        "per-dimension table) as JSON",
    )
    pf.add_argument(
        "--journal-out",
        metavar="FILE",
        default=None,
        help="also write the causal event journal as JSONL "
        "(byte-identical to an unprofiled run; .gz compresses)",
    )
    pf.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="export the run's journal as Chrome trace-event JSON "
        "(open in Perfetto) with the critical path highlighted",
    )

    cp = sub.add_parser(
        "critical-path",
        help="work/span/available-parallelism over a journal's causal "
        "tree, plus what bounded each capture",
    )
    cp.add_argument(
        "journal",
        metavar="JOURNAL",
        help="journal JSONL file (.gz ok) or --metrics-out artifact JSON",
    )
    cp.add_argument(
        "--target",
        default="port_close",
        metavar="KINDS",
        help="comma-separated event kinds whose causal chains are "
        "explained (default: port_close)",
    )
    cp.add_argument(
        "--top",
        type=int,
        default=3,
        metavar="N",
        help="slowest capture chains to print (default: 3)",
    )
    cp.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the repro.critical/1 report as JSON",
    )
    cp.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="export a Chrome trace-event JSON (open in Perfetto) with "
        "the critical path marked as category 'critical'",
    )

    sub.add_parser(
        "kinds",
        help="print the repro.journal/1 event-kind vocabulary "
        "(the closed schema gated by lint rules RPL301-302)",
    )

    rp = sub.add_parser(
        "replay",
        help="reconstruct (and optionally diff) the causal traceback "
        "tree from a journal alone",
    )
    rp.add_argument(
        "journals",
        nargs="+",
        metavar="JOURNAL",
        help="journal JSONL file or --metrics-out artifact JSON "
        "(two files with --check)",
    )
    rp.add_argument(
        "--check",
        action="store_true",
        help="structurally diff two journals; exit 1 naming the first "
        "diverging event",
    )
    rp.add_argument(
        "--tree",
        action="store_true",
        help="also print the full ASCII causal tree",
    )
    rp.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="truncate the --tree rendering after N events",
    )

    rep = sub.add_parser(
        "report",
        help="render a journal's per-session causal tree (ASCII, or a "
        "self-contained HTML timeline)",
    )
    rep.add_argument(
        "journal",
        metavar="JOURNAL",
        help="journal JSONL file or --metrics-out artifact JSON",
    )
    rep.add_argument(
        "--html",
        metavar="FILE",
        default=None,
        help="write the self-contained HTML timeline artifact",
    )
    rep.add_argument(
        "--title",
        default="repro journal",
        help="title of the HTML report",
    )
    rep.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="truncate the ASCII rendering after N events",
    )
    rep.add_argument(
        "--critical",
        action="store_true",
        help="highlight the time-weighted critical path (ASCII mode "
        "prepends the work/span summary; HTML mode accents the chain)",
    )

    g = sub.add_parser(
        "regress",
        help="gate a bench summary against the committed baseline "
        "(tolerance-banded; exit 1 on regression)",
    )
    g.add_argument(
        "--summary",
        metavar="FILE",
        default="benchmarks/out/summary.json",
        help="bench summary to check (default: benchmarks/out/summary.json)",
    )
    g.add_argument(
        "--baseline",
        metavar="FILE",
        default="benchmarks/baseline.json",
        help="committed baseline (default: benchmarks/baseline.json)",
    )
    g.add_argument(
        "--out-dir",
        metavar="DIR",
        default="benchmarks/out",
        help="directory for BENCH_<n>.json trajectory points "
        "(default: benchmarks/out)",
    )
    g.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip writing the BENCH_<n>.json trajectory point",
    )
    g.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the summary (preserving "
        "per-metric tolerance bands) instead of gating",
    )

    a = sub.add_parser(
        "analyze", help="expected capture time from the Section 7 equations"
    )
    a.add_argument("--scheme", choices=("basic", "progressive"), default="progressive")
    a.add_argument("--m", type=float, default=10.0, help="epoch length (s)")
    a.add_argument("--p", type=float, default=0.4, help="honeypot probability")
    a.add_argument("--h", type=float, default=10.0, help="attacker hop distance")
    a.add_argument("--r", type=float, default=10.0, help="attack rate (pkt/s)")
    a.add_argument("--tau", type=float, default=1.0, help="per-hop propagation (s)")
    a.add_argument("--t-on", type=float, default=None, help="on-burst length (s)")
    a.add_argument("--t-off", type=float, default=None, help="off time (s)")
    a.add_argument("--d-follow", type=float, default=None, help="follower delay (s)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        from .lint.runner import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        print("regenerable figures:")
        for name in sorted(FIGURES):
            print(f"  {name}")
        return 0
    if args.command == "analyze":
        try:
            result = capture_time(
                args.scheme,
                args.m,
                args.p,
                args.h,
                args.r,
                args.tau,
                t_on=args.t_on,
                t_off=args.t_off,
                d_follow=args.d_follow,
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        case = f" (on-off case {result.case})" if result.case else ""
        if math.isinf(result.expected):
            print(
                f"{result.scheme} / {result.attack}{case}: no guaranteed progress "
                "in this regime (precondition fails) — expected capture time unbounded"
            )
        else:
            print(
                f"{result.scheme} / {result.attack}{case}: "
                f"E[capture time] ~= {result.expected:.1f} s"
            )
        return 0
    if args.command == "sweep":
        return _run_sweep_command(args)
    if args.command == "replay":
        return _run_replay_command(args)
    if args.command == "report":
        return _run_report_command(args)
    if args.command == "regress":
        return _run_regress_command(args)
    if args.command == "profile":
        return _run_profile_command(args)
    if args.command == "critical-path":
        return _run_critical_command(args)
    if args.command == "kinds":
        return _run_kinds_command()
    if args.command == "stats":
        from dataclasses import replace

        from .experiments.figures import _scenario_base
        from .experiments.scenarios import run_tree_scenario
        from .obs import Telemetry

        telemetry = Telemetry()
        params = _apply_policy_args(
            replace(_scenario_base(args.scale), defense=args.defense),
            args,
        )
        result = run_tree_scenario(params, telemetry=telemetry)
        # Write the artifacts before printing: stdout may be a closed
        # pipe (`... | head`), and the artifacts must survive that.
        path = telemetry.write(args.metrics_out) if args.metrics_out else None
        journal_path = _write_journal(telemetry, args.journal_out)
        try:
            print(telemetry.render())
            print(
                f"legit throughput during attack: "
                f"{result.legit_pct_during_attack:.1f}% of bottleneck"
            )
            if path:
                print(f"telemetry artifact written to {path}")
            if journal_path:
                print(f"journal written to {journal_path}")
        except BrokenPipeError:
            pass
        return 0
    jobs = _resolve_jobs(args)
    telemetry = None
    if getattr(args, "metrics_out", None) or getattr(args, "journal_out", None):
        from .obs import Telemetry

        telemetry = Telemetry()
    text = figure(args.command, args.scale, telemetry=telemetry, jobs=jobs)
    path = (
        telemetry.write(args.metrics_out)
        if telemetry is not None and args.metrics_out
        else None
    )
    journal_path = _write_journal(telemetry, getattr(args, "journal_out", None))
    try:
        print(text)
        if path:
            print(f"telemetry artifact written to {path}")
        if journal_path:
            print(f"journal written to {journal_path}")
    except BrokenPipeError:  # e.g. piped into `head`
        pass
    return 0


def _write_journal(telemetry, path: Optional[str]) -> Optional[str]:
    """Write ``telemetry``'s journal as canonical JSONL (if asked)."""
    if telemetry is None or not path:
        return None
    return telemetry.journal.write_jsonl(path)


def _add_policy_args(p: argparse.ArgumentParser) -> None:
    """``--policy``/``--amplifiers``: adversary-model selection."""
    from .traffic.policies import POLICY_NAMES

    p.add_argument(
        "--policy",
        choices=POLICY_NAMES,
        default=None,
        help="attacker policy of the base scenario (default: "
        "continuous); 'reflection' bounces spoofed triggers off "
        "amplifier leaves",
    )
    p.add_argument(
        "--amplifiers",
        type=int,
        default=None,
        metavar="N",
        help="amplifier (reflector) leaves for the reflection workload "
        "(default: none; reflection policy defaults to "
        "max(2, n_attackers // 5))",
    )


def _apply_policy_args(base, args):
    """Fold ``--policy``/``--amplifiers`` into the base scenario params."""
    from dataclasses import replace

    name = getattr(args, "policy", None) or "continuous"
    n_amp = getattr(args, "amplifiers", None)
    if n_amp is None and name == "reflection":
        n_amp = max(2, base.n_attackers // 5)
    kwargs = {"attacker_policy": name}
    if n_amp is not None:
        kwargs["n_amplifiers"] = n_amp
    return replace(base, **kwargs)


def _resolve_jobs(args) -> int:
    """``--jobs``, else ``$REPRO_JOBS``, else 1; a malformed
    ``$REPRO_JOBS`` is a usage error, not a traceback."""
    from .parallel import resolve_jobs

    try:
        return resolve_jobs(args.jobs)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _parse_sweep_values(base, field: str, raw: str) -> list:
    """Cast comma-separated CLI values to the swept field's type: the
    type of its current value, or its declared type when that is None
    (``t_on: Optional[float] = None`` sweeps floats).  A field that
    cannot be swept, or a string value it does not accept, is a usage
    error (:func:`~repro.experiments.runner.check_sweep_values`)."""
    from .experiments.runner import check_sweep_values

    items = [v.strip() for v in raw.split(",") if v.strip()]
    if not items:
        raise SystemExit("error: --values is empty")
    try:
        check_sweep_values(field, items)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    current = getattr(base, field)
    kind = type(current)
    if current is None:
        hint = get_type_hints(type(base))[field]
        kind = next(a for a in get_args(hint) or (hint,) if a is not type(None))
    if kind in (int, float):
        try:
            return [kind(v) for v in items]
        except ValueError as exc:
            raise SystemExit(f"error: --values: {exc}") from None
    return items


def _run_sweep_command(args) -> int:
    from dataclasses import replace

    from .experiments.figures import _scenario_base
    from .experiments.runner import run_sweep
    from .obs.export import write_json
    from .parallel import PoolConfig, SweepCheckpoint, resolve_jobs

    base = _apply_policy_args(
        replace(_scenario_base(args.scale), defense=args.defense),
        args,
    )
    values = _parse_sweep_values(base, args.field, args.values)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise SystemExit(f"error: --seeds: {exc}") from None
    if not seeds:
        raise SystemExit("error: --seeds is empty")
    try:
        config = PoolConfig(
            jobs=resolve_jobs(args.jobs),
            timeout=args.timeout,
            max_attempts=args.max_attempts,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    checkpoint = SweepCheckpoint(args.checkpoint) if args.checkpoint else None
    telemetry = None
    if args.metrics_out or args.journal_out or args.profile:
        from .obs import Telemetry

        telemetry = Telemetry()

    def progress(outcome):
        tag = "resumed" if outcome.resumed else outcome.status
        print(f"  [{tag}] {outcome.task_id}", flush=True)

    print(
        f"sweep {args.field} over {values} x seeds {seeds} "
        f"({config.jobs} worker(s), defense={args.defense}, scale={args.scale})"
    )
    run = run_sweep(
        base,
        args.field,
        values,
        seeds,
        pool_config=config,
        checkpoint=checkpoint,
        on_outcome=progress,
        telemetry=telemetry,
        profile=args.profile,
    )
    path = write_json(args.out, run.artifact()) if args.out else None
    metrics_path = (
        telemetry.write(args.metrics_out)
        if telemetry is not None and args.metrics_out
        else None
    )
    journal_path = _write_journal(telemetry, args.journal_out)
    try:
        for value, results in run.results.items():
            pcts = ", ".join(
                f"{r.legit_pct_during_attack:.1f}%" for r in results
            )
            print(f"{args.field}={value}: legit during attack [{pcts}]")
        for task_id in run.report.quarantined:
            err = (run.report.outcomes[task_id].error or "").splitlines()[0]
            print(f"QUARANTINED {task_id}: {err}")
        if args.profile and telemetry is not None:
            table = telemetry.profiler.render_dimensions()
            if table:
                print(table)
        if path:
            print(f"sweep artifact written to {path}")
        if metrics_path:
            print(f"telemetry artifact written to {metrics_path}")
        if journal_path:
            print(f"journal written to {journal_path}")
    except BrokenPipeError:
        pass
    return run.report.exit_code


def _run_replay_command(args) -> int:
    from .obs.journal import (
        JournalError,
        diff_journals,
        load_journal,
        render_tree,
        replay_summary,
    )

    if args.check and len(args.journals) != 2:
        raise SystemExit("error: --check needs exactly two journals")
    if not args.check and len(args.journals) != 1:
        raise SystemExit("error: replay takes one journal (two with --check)")
    try:
        journals = [load_journal(p) for p in args.journals]
        if args.check:
            a, b = journals
            divergence = diff_journals(a, b)
            if divergence is None:
                print(f"journals identical ({len(a.events)} events)")
                return 0
            print(f"journals diverge at event {divergence['index']}:")
            print(f"  {divergence['reason']}")
            print(f"  a: {divergence['a']}")
            print(f"  b: {divergence['b']}")
            return 1
        (journal,) = journals
        print(replay_summary(journal))
        if args.tree:
            print(render_tree(journal, max_events=args.max_events))
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        pass
    return 0


def _run_report_command(args) -> int:
    from .obs.journal import JournalError, load_journal, render_html, render_tree

    # Render everything before writing or printing anything: a
    # malformed journal fails with no partial HTML file left behind.
    try:
        journal = load_journal(args.journal)
        critical = None
        if args.critical:
            from .obs.critical import critical_report

            critical = critical_report(journal)
        if args.html:
            highlight = (
                [step["id"] for step in critical["critical_path"]]
                if critical is not None
                else ()
            )
            text = render_html(journal, title=args.title, highlight=highlight)
        else:
            text = render_tree(journal, max_events=args.max_events)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.html:  # artifact lands before any print (| head survives)
        import os

        parent = os.path.dirname(args.html)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(text)
    try:
        if critical is not None:
            from .obs.critical import render_critical

            print(render_critical(critical, top=0))
        if args.html:
            print(f"HTML report written to {args.html}")
        else:
            print(text)
    except BrokenPipeError:
        pass
    return 0


def _export_trace(journal, path: str, critical=None) -> str:
    """Write a Perfetto-loadable trace for ``journal`` (helper shared by
    the profile and critical-path commands)."""
    from .obs.traceexport import journal_to_trace, write_trace

    critical_ids = (
        [step["id"] for step in critical["critical_path"]]
        if critical is not None
        else ()
    )
    return write_trace(
        path,
        journal_to_trace(journal, critical_ids=critical_ids),
    )


def _run_profile_command(args) -> int:
    from dataclasses import replace

    from .experiments.figures import _scenario_base
    from .experiments.scenarios import run_tree_scenario
    from .obs import Telemetry

    telemetry = Telemetry()
    params = _apply_policy_args(
        replace(_scenario_base(args.scale), defense=args.defense),
        args,
    )
    result = run_tree_scenario(params, telemetry=telemetry, profile=True)
    path = telemetry.write(args.metrics_out) if args.metrics_out else None
    journal_path = _write_journal(telemetry, args.journal_out)
    trace_path = None
    if args.trace:
        from .obs.critical import critical_report

        trace_path = _export_trace(
            telemetry.journal,
            args.trace,
            critical=critical_report(telemetry.journal),
        )
    try:
        print(telemetry.render_engine_profile())
        table = telemetry.profiler.render_dimensions(top=args.top)
        if table:
            print(table)
        print(
            f"legit throughput during attack: "
            f"{result.legit_pct_during_attack:.1f}% of bottleneck"
        )
        if path:
            print(f"telemetry artifact written to {path}")
        if journal_path:
            print(f"journal written to {journal_path}")
        if trace_path:
            print(f"Perfetto trace written to {trace_path}")
    except BrokenPipeError:
        pass
    return 0


def _run_critical_command(args) -> int:
    from .obs.critical import critical_report, render_critical
    from .obs.journal import JournalError, load_journal

    try:
        journal = load_journal(args.journal)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    targets = [t.strip() for t in args.target.split(",") if t.strip()]
    try:
        report = critical_report(journal, targets=targets)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    json_path = None
    if args.json:
        from .obs.export import write_json

        json_path = write_json(args.json, report)
    trace_path = (
        _export_trace(journal, args.trace, critical=report)
        if args.trace
        else None
    )
    try:
        print(render_critical(report, top=args.top))
        if json_path:
            print(f"critical-path report written to {json_path}")
        if trace_path:
            print(f"Perfetto trace written to {trace_path}")
    except BrokenPipeError:
        pass
    return 0


def _run_kinds_command() -> int:
    from .obs.journal import JOURNAL_KINDS, JOURNAL_SCHEMA

    try:
        print(
            f"{JOURNAL_SCHEMA} event kinds ({len(JOURNAL_KINDS)}; the "
            "closed vocabulary enforced by lint rules RPL301-302):"
        )
        width = max(len(kind) for kind in JOURNAL_KINDS)
        for kind in sorted(JOURNAL_KINDS):
            print(f"  {kind:<{width}}  {JOURNAL_KINDS[kind]}")
    except BrokenPipeError:
        pass
    return 0


def _run_regress_command(args) -> int:
    import json

    from .obs.regress import (
        baseline_from_summary,
        compare_to_baseline,
        load_baseline,
        load_summary,
        write_trajectory_point,
    )

    try:
        summary = load_summary(args.summary)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load summary: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        existing = None
        try:
            existing = load_baseline(args.baseline)
        except (OSError, ValueError):
            pass
        doc = baseline_from_summary(summary, existing=existing)
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0
    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load baseline: {exc}", file=sys.stderr)
        return 2
    report = compare_to_baseline(summary, baseline)
    try:
        print(report.render())
    except BrokenPipeError:
        pass
    if not args.no_trajectory:
        path = write_trajectory_point(summary, report, args.out_dir)
        try:
            print(f"trajectory point written to {path}")
        except BrokenPipeError:
            pass
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
