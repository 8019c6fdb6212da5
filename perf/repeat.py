#!/usr/bin/env python3
"""Run every workload several times and say how far the numbers repeat.

    python3 perf/repeat.py                      # 3 seeds x 2 repeats + 1 traced run per seed
    python3 perf/repeat.py --workloads serve_open --seeds 1 2 3 4 5 --repeats 1 --no-trace

For every end-to-end metric -- the ``BENCHMARK.json`` ones, which carry a
bound, then the workload's own ones that stand behind none of those -- it
prints the median, the quartiles, the spread over all runs (interquartile
range over median, the figure the benchmark driver uses across seeds) and
the worst same-seed spread (range over median among one seed's repeats).
It exits non-zero when

- a same-seed spread exceeds that metric's bound in ``BENCHMARK.json``,
- a run reports ``correct: false`` or a failed operation,
- two runs of one seed disagree on the ``History`` digest (traced runs
  included: the proxies must change nothing) or on a validation loss.

With traced runs it also reports, per workload, the measured tracing
overhead (traced loop wall over the untraced median, minus one), the
unattributed share, and each layer's share of the loop wall.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Identical per seed by construction; their same-seed spread must be 0.
EXACT = ("final_val_loss", "best_val_loss")


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("REPORT "))[7:])
    report["result"] = json.loads(lines[-1])
    return report


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """median, q1, q3, (q3 - q1) / median -- as the benchmark driver does."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seeds", nargs="+", type=int, default=[11, 12, 13])
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--no-trace", action="store_true")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    failures: list[str] = []

    for workload in args.workloads:
        runs: dict[int, list[dict]] = {}
        traced: dict[int, dict] = {}
        for seed in args.seeds:
            for _ in range(args.repeats):
                runs.setdefault(seed, []).append(run_once(workload, seed, 0))
            if not args.no_trace:
                traced[seed] = run_once(workload, seed, 1)

        every = [r for seed_runs in runs.values() for r in seed_runs]
        print(f"\n## {workload}: {len(args.seeds)} seeds x {args.repeats} repeats"
              f"{'' if args.no_trace else ' + 1 traced run per seed'}")
        for r in every + list(traced.values()):
            fp, res = r["fingerprint"], r["result"]
            if not res["correct"] or res["failed"]:
                bad = [c["name"] for c in r["checks"] if not c["ok"]]
                failures.append(f"{workload} seed {fp['seed']} trace {fp['trace']}: "
                                f"failed checks {bad}, failed ops {res['failed']}")
        print("| metric | unit | median | q1 | q3 | spread (all runs) | worst same-seed spread | bound |")
        print("|---|---|---|---|---|---|---|---|")
        behind = {m["is"] for m in every[0]["end_to_end"].values()}
        rows = [("end_to_end", name) for name in every[0]["end_to_end"]]
        rows += [("own", name) for name in every[0]["own"] if name not in behind]
        for section, name in rows:
            values = [r[section][name]["value"] for r in every]
            med, q1, q3, spread = quartile_spread(values)
            same_seed = 0.0
            for seed_runs in runs.values():
                v = [r[section][name]["value"] for r in seed_runs]
                m = statistics.median(v)
                same_seed = max(same_seed, (max(v) - min(v)) / abs(m) if m else 0.0)
            if name in EXACT:
                bound = 0.0
            else:
                bound = bounds[name] if section == "end_to_end" else None
            source = every[0][section][name].get("is", name)
            label = name if source == name else f"{name} = {source}"
            shown = "—" if bound is None else f"{bound:.0%}" if bound else "exact"
            print(f"| {label} | {every[0][section][name]['unit']} | {med:.6g} | "
                  f"{q1:.6g} | {q3:.6g} | {spread:.2%} | {same_seed:.2%} | {shown} |")
            if bound is not None and same_seed > bound:
                failures.append(f"{workload}: {name} same-seed spread "
                                f"{same_seed:.2%} exceeds {bound:.0%}")
        for seed, seed_runs in runs.items():
            digests = {r["history_sha256"] for r in seed_runs}
            if seed in traced:
                digests.add(traced[seed]["history_sha256"])
            if len(digests) != 1:
                failures.append(f"{workload} seed {seed}: History differs between runs "
                                f"(traced included): {sorted(map(str, digests))}")
        if traced:
            print_trace_summary(workload, every, traced)

    print()
    for line in failures:
        print(f"FAIL {line}")
    print("repeat.py:", "FAILED" if failures else "every same-seed spread within its bound, "
          "every check passed, History identical per seed")
    return 1 if failures else 0


def print_trace_summary(workload: str, untraced: list[dict], traced: dict[int, dict]) -> None:
    wall = statistics.median(r["info"]["loop_wall_s"] for r in untraced)
    print(f"\ntraced runs of {workload} (median over {len(traced)} seeds; untraced loop wall {wall:.3f} s):")
    med = lambda key: statistics.median(  # noqa: E731
        t["per_layer"][key]["value"] for t in traced.values()
    )
    t_wall = med("trace.loop_wall_s")
    print(f"  measured overhead (traced wall / untraced wall - 1): {t_wall / wall - 1:+.2%}; "
          f"estimated from span count: {med('trace.overhead_share'):.2%}; "
          f"unattributed: {med('trace.unattributed_share'):.2%}")
    shares = {
        key[: -len(".self_s")]: med(key) / t_wall
        for key in next(iter(traced.values()))["per_layer"] if key.endswith(".self_s")
    }
    total = sum(shares.values()) + med("trace.unattributed_s") / t_wall
    print("  layer self-time shares of the loop wall: "
          + ", ".join(f"{k} {v:.1%}" for k, v in shares.items() if v >= 0.0005)
          + f"; layers + unattributed = {total:.1%}")


if __name__ == "__main__":
    sys.exit(main())
