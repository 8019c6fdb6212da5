#!/usr/bin/env python3
"""Run one benchmark workload and print every metric by name.

    python3 perf/run.py --workload offline_serial --seed 7
    python3 perf/run.py --workload serve_open --seed 7 --trace 1

An untraced run (``--trace 0``) measures the end-to-end metrics; a traced
run of the same seed wraps the layer boundaries with the benchmark's own
timing proxies and yields the per-layer numbers.  The output is a
readable report, then one ``REPORT {json}`` line with everything in it,
then -- last -- the one-line JSON result the benchmark driver reads
(``correct``, ``attempted``, ``failed``, ``metrics``).

The inputs of a run are a pure function of ``--seed``; ``--seconds`` sizes
the timed phase (see ``workloads.py``).  Exit status is 0 whenever the
workload ran to the end, including when a check failed (``correct`` is
then false), and non-zero when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, declared: dict) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in declared["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="size of the timed phase (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="'tiny' is the smoke-test geometry, not a measurement")
    return p.parse_args(argv)


def fingerprint(args, seconds: float) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"  # the benchmark driver's checkout is not a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=10,
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas, "git_commit": commit,
    }


def main(argv=None) -> int:
    # The paper's unit of parallelism is the trainer: with the default two
    # BLAS threads the two-worker process backend oversubscribes a two-core
    # host and the run measures the scheduler.  Must precede NumPy's import.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        import repro  # noqa: F401
    except (OSError, ImportError) as exc:
        print(f"perf/run.py: cannot run here: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, declared)
    import layers
    import workloads
    from spans import Recorder

    seconds = float(declared["run_seconds"] if args.seconds is None else args.seconds)
    # Checkpoints go to a scratch directory inside the checkout (the
    # benchmark writes nowhere else), removed when the run ends.
    work_dir = Path(tempfile.mkdtemp(prefix="_work.", dir=HERE))
    recorder = Recorder() if args.trace else None
    try:
        if recorder is not None:
            layers.install(recorder)
        outcome = workloads.run_workload(
            args.workload, args.seed, seconds, args.size, recorder, work_dir
        )
    finally:
        if recorder is not None:
            recorder.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    own = {"setup_s": (statistics.median(outcome.setup_times_s), "s"), **outcome.metrics}
    # BENCHMARK.json is the list of names.  An end-to-end name is filled
    # from this workload's own metric behind it; a layer this workload does
    # not run reports zero; a layer metric nobody declared is an error.
    shared = {}
    for m in declared["end_to_end"]:
        source, factor = workloads.source_of(m["name"], args.workload)
        if source not in outcome.skipped:
            shared[m["name"]] = (own[source][0] * factor, m["unit"], source)
    layer = {
        m["name"]: outcome.layer.get(m["name"], (0.0, m["unit"]))
        for m in declared["per_layer"]
    } if args.trace else {}
    undeclared = sorted(set(outcome.layer) - set(layer))
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = layer if args.trace else {k: v[:2] for k, v in shared.items()}

    correct = all(ok for _, ok, _ in outcome.checks)
    attempted = sum(o["attempted"] for o in outcome.ops.values())
    failed = sum(
        o["refused"] + o["deadline_missed"] + o["failed"] for o in outcome.ops.values()
    )
    report = {
        "fingerprint": fingerprint(args, seconds),
        "setup_times_s": outcome.setup_times_s,
        "own": {k: {"value": v, "unit": u} for k, (v, u) in own.items()
                if k not in outcome.skipped},
        "end_to_end": {k: {"value": v, "unit": u, "is": src} for k, (v, u, src) in shared.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "skipped": list(outcome.skipped),
        "ops": outcome.ops,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in outcome.checks],
        "history_sha256": outcome.history_sha256,
        "info": outcome.info,
    }
    print_report(report)
    print("REPORT " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def print_report(report: dict) -> None:
    fp = report["fingerprint"]
    print(f"== {fp['workload']} seed={fp['seed']} seconds={fp['seconds']:g} "
          f"trace={fp['trace']} size={fp['size']}")
    print(f"host: nproc={fp['nproc']} affinity={fp['affinity']} "
          f"BLAS threads pinned to {fp['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"| python {fp['python']} numpy {fp['numpy']} {fp['blas']} "
          f"| commit {fp['git_commit']}")
    print(f"sizes: {report['info'].get('sizes')}")
    print(f"set-up runs: {[round(t, 3) for t in report['setup_times_s']]} s")

    def table(title: str, rows: dict) -> None:
        print(f"-- {title}")
        for name, m in rows.items():
            alias = f"  = {m['is']}" if m.get("is", name) != name else ""
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{alias}")

    table("end-to-end, this workload's own names",
          {k: m for k, m in report["own"].items() if k not in report["end_to_end"]})
    for name in report["skipped"]:
        print(f"  {name:34s} {'skipped':>14s} (fewer cores than workers)")
    table("end-to-end, BENCHMARK.json names", report["end_to_end"])
    if report["per_layer"]:
        table("per layer (traced run)", report["per_layer"])
    print("-- operations: attempted / ok / refused / deadline-missed / failed")
    for kind, o in report["ops"].items():
        print(f"  {kind:34s} {o['attempted']} / {o['ok']} / {o['refused']} / "
              f"{o['deadline_missed']} / {o['failed']}")
    print("-- checks")
    for c in report["checks"]:
        print(f"  {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    for key, value in report["info"].items():
        if key != "sizes":
            print(f"  info {key}: {value}")


if __name__ == "__main__":
    sys.exit(main())
