"""Command-line runner for the experiment harnesses.

Usage::

    python -m repro.experiments fig09 fig10 fig11        # performance figures
    python -m repro.experiments --all-perf               # all three
    python -m repro.experiments fig07 fig12 --quick      # quality figures
    python -m repro.experiments fig12 --backend process  # parallel training
    python -m repro.experiments backends                 # backend scaling
    python -m repro.experiments topology --quick         # topology study
    python -m repro.experiments trace-report trace.jsonl # summarize telemetry
    python -m repro.experiments trace-export trace.jsonl # Chrome/Perfetto JSON
    python -m repro.experiments fig12 --quick \\
        --trace-out traces/fig12.jsonl --metrics-out metrics.prom

Performance figures run in seconds (analytic models).  Quality figures
train real networks: the default scale takes minutes per figure; pass
``--quick`` for a structural smoke run.  ``--backend`` selects the
:mod:`repro.exec` execution backend the quality runs train under
(results are bit-identical across backends; only wall clock changes),
``--workers`` caps its worker count, and ``--prefetch-depth`` sets the
data-pipeline depth (0 = synchronous; any depth is bit-identical, only
fetch stall changes).  ``backends`` is the backend-scaling report itself,
run at depth 0 and the requested depth.  ``trace-report`` summarizes a
JSONL telemetry trace written by :class:`repro.telemetry.JsonlTraceWriter`
— per-phase wall-clock, adoption rate, exchange bytes, datastore fetch
locality, data-pipeline stall vs. overlap, per-worker train time, and
latency percentiles.  ``trace-export`` converts such a trace into Chrome
``trace_event`` JSON loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.

``--trace-out BASE.jsonl`` gives every training run a span-enabled JSONL
trace (run tag folded into the filename); ``--metrics-out PATH`` writes
the session's accumulated metrics registry (Prometheus text for ``.prom``
/``.txt``, JSON otherwise).  Both apply uniformly to the quality figures
and the ``backends`` report.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments import (
    ablation_judge,
    backend_scaling,
    fig07_scalars,
    fig08_images,
    fig09_data_parallel,
    fig10_datastore,
    fig11_ltfb_scaling,
    fig12_quality,
    fig13_ltfb_vs_kindependent,
    streaming,
    topology_study,
)

PERF_FIGURES = {
    "fig09": lambda args: fig09_data_parallel.run(),
    "fig10": lambda args: fig10_datastore.run(),
    "fig11": lambda args: fig11_ltfb_scaling.run(),
}


def _quality_bench(args):
    from repro.experiments.common import QualityWorkbench

    if getattr(args, "_bench", None) is None:
        n = 1024 if args.quick else 12_288
        args._bench = QualityWorkbench(
            seed=args.seed,
            n_samples=n,
            backend=args.backend,
            workers=args.workers,
            prefetch_depth=args.prefetch_depth,
            trace_out=args.trace_out,
            metrics=args._metrics,
            trace_files=args._trace_files,
            checkpoint_dir=args.checkpoint_dir,
            flight_recorder=args.flight_recorder,
        )
    return args._bench


def _backend_scaling(args):
    depth = 2 if args.prefetch_depth is None else args.prefetch_depth
    observability = dict(
        trace_out=args.trace_out,
        metrics=args._metrics,
        trace_files=args._trace_files,
        flight_recorder=args.flight_recorder,
    )
    if args.quick:
        return backend_scaling.run(
            k=4, rounds=2, steps_per_round=4, workers=args.workers or 2,
            n_samples=768, seed=args.seed, prefetch_depth=depth,
            **observability,
        )
    return backend_scaling.run(
        workers=args.workers or 4, seed=args.seed, prefetch_depth=depth,
        **observability,
    )


def _quality_schedule(args) -> dict:
    if args.quick:
        return dict(rounds=3, steps_per_round=5)
    return dict(rounds=30, steps_per_round=10)


QUALITY_FIGURES = {
    "fig07": lambda args: fig07_scalars.run(
        _quality_bench(args), k=4, **_quality_schedule(args)
    ),
    "fig08": lambda args: fig08_images.run(
        _quality_bench(args), k=4, **_quality_schedule(args)
    ),
    "fig12": lambda args: fig12_quality.run(
        _quality_bench(args),
        trainer_counts=(1, 2, 4) if args.quick else (1, 2, 4, 8),
        **_quality_schedule(args),
    ),
    "fig13": lambda args: fig13_ltfb_vs_kindependent.run(
        _quality_bench(args),
        trainer_counts=(2,) if args.quick else (2, 4, 8),
        **_quality_schedule(args),
    ),
    "ablation-judge": lambda args: ablation_judge.run(
        _quality_bench(args),
        k=3 if args.quick else 4,
        **_quality_schedule(args),
    ),
    "backends": _backend_scaling,
    "topology": lambda args: topology_study.run(
        _quality_bench(args),
        k=3 if args.quick else 4,
        **_quality_schedule(args),
    ),
    # Streams its own universe from a live campaign — no QualityWorkbench
    # (that would pre-stage the dataset this study must do without).
    "streaming": lambda args: streaming.run(
        seed=args.seed,
        k=2 if args.quick else 4,
        rounds=4 if args.quick else 8,
        steps_per_round=3 if args.quick else 6,
        n_design=512 if args.quick else 1024,
        backend=args.backend,
        workers=args.workers,
        prefetch_depth=args.prefetch_depth,
        trace_out=args.trace_out,
        metrics=args._metrics,
        trace_files=args._trace_files,
        flight_recorder=args.flight_recorder,
    ),
}

ALL_FIGURES = {**PERF_FIGURES, **QUALITY_FIGURES}


def _trace_report(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments trace-report",
        description="Summarize a JSONL telemetry trace.",
    )
    parser.add_argument("trace", help="path to a trace.jsonl file")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="text: human-readable report (default); json: the full "
        "machine-readable summary (phases, counters, percentiles, "
        "resources, health) for scripts and CI",
    )
    args = parser.parse_args(argv)
    from repro.telemetry.report import render_trace_report, trace_summary

    try:
        if args.format == "json":
            print(json.dumps(trace_summary(args.trace), indent=2, sort_keys=True))
        else:
            print(render_trace_report(args.trace))
    except (OSError, ValueError) as exc:
        print(f"trace-report: {exc}", file=sys.stderr)
        return 1
    return 0


def _trace_export(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments trace-export",
        description=(
            "Convert a JSONL telemetry trace into Chrome trace_event "
            "JSON, loadable in Perfetto (https://ui.perfetto.dev) or "
            "chrome://tracing.  The trace must contain span records "
            "(JsonlTraceWriter(spans=True) or --trace-out)."
        ),
    )
    parser.add_argument("trace", help="path to a trace.jsonl file")
    parser.add_argument(
        "-o",
        "--out",
        default=None,
        help="output path (default: the trace path with a .json suffix)",
    )
    args = parser.parse_args(argv)
    from pathlib import Path

    from repro.telemetry.export import export_chrome_trace

    out = args.out or str(Path(args.trace).with_suffix(".json"))
    try:
        doc = export_chrome_trace(args.trace, out)
    except (OSError, ValueError) as exc:
        print(f"trace-export: {exc}", file=sys.stderr)
        return 1
    print(f"trace-export: wrote {len(doc['traceEvents'])} events to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "trace-report":
        return _trace_report(argv[1:])
    if argv and argv[0] == "trace-export":
        return _trace_export(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__
    )
    parser.add_argument(
        "figures",
        nargs="*",
        choices=[*ALL_FIGURES, []],
        help=f"figures to run: {', '.join(ALL_FIGURES)}",
    )
    parser.add_argument(
        "--all-perf", action="store_true", help="run fig09, fig10 and fig11"
    )
    from repro.experiments.common import add_runtime_options

    add_runtime_options(parser)
    args = parser.parse_args(argv)
    args._bench = None
    args._trace_files = []
    args._metrics = None
    if args.metrics_out is not None or args.trace_out is not None:
        from repro.telemetry import MetricsCollector

        args._metrics = MetricsCollector()

    names = list(args.figures)
    if args.all_perf:
        names.extend(n for n in PERF_FIGURES if n not in names)
    if not names:
        parser.error("no figures requested (try: fig09 fig10 fig11 or --all-perf)")

    failed = []
    for name in names:
        report = ALL_FIGURES[name](args)
        print(report.render())
        print()
        if not report.all_checks_pass:
            failed.append(name)
    for path in args._trace_files:
        print(f"trace written: {path}")
    if args.metrics_out is not None:
        from repro.telemetry import write_metrics

        write_metrics(args._metrics.registry, args.metrics_out)
        print(f"metrics written: {args.metrics_out}")
    if failed:
        print(f"figures with diverging shape checks: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
