"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line carries the gated end-to-end metrics; with
``--trace 1`` the run makes one untraced and one traced pass of the same
workload and the last line carries the per-layer metrics, while the report
above it gives tracing cost and span coverage.  Every answer is checked;
a wrong or unverifiable one makes the exit code non-zero.  Reports and
spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Every end-to-end metric by name and unit, in report order.  Those in
#: GATED are measured on every workload and make up the result line; the
#: others belong to one workload each.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "verified_qps": "1/s",
    "vo_bytes": "B",
    "update_p50_s": "s",
    "delta_mb": "MB",
    "serve_p50_ms.r200": "ms",
    "serve_p99_ms.r200": "ms",
    "serve_p50_ms.r2000": "ms",
    "serve_p99_ms.r2000": "ms",
    "serve_max_qps": "1/s",
    "failed_frac": "ratio",
}
GATED = ("setup_s", "peak_rss_mb", "query_p50_ms", "query_p99_ms", "verified_qps", "vo_bytes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        sys.exit(f"imported repro from {repro.__file__}, not from {source}")


def end_to_end(outcome, peak_rss: float):
    values = dict(outcome.e2e)
    values["setup_s"] = statistics.median(outcome.setup_times)
    values["peak_rss_mb"] = peak_rss
    values["failed_frac"] = outcome.failed / max(1, outcome.attempted)
    return values


def print_table(workload: str, values, outcome) -> None:
    print(f"== {workload}: end-to-end metrics ==")
    for name, unit in E2E_UNITS.items():
        value = values.get(name)
        shown = "n/a (not measured by this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<20} {shown}")
    print(f"  samples: {outcome.samples}; set-ups: "
          f"{[round(t, 3) for t in outcome.setup_times]}")
    for note in outcome.notes:
        print(f"  note: {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from harness import (SETUP_REPEATS, cpu_jiffies, determinism_check, host_record,
                         peak_rss_mb, steal_share)
    from layers import layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run = WORKLOADS[args.workload]
    jiffies = cpu_jiffies()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_record()}
    problems = determinism_check(args.seed)
    try:
        if args.trace == 0:
            outcome = run(args.seed, args.seconds, workdir, repeats=SETUP_REPEATS)
            values = end_to_end(outcome, peak_rss_mb())
            metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in GATED}
            passes = [outcome]
        else:
            from tracer import Tracer

            for name in ("plain", "traced"):
                os.mkdir(os.path.join(workdir, name))
            plain = run(args.seed, args.seconds, os.path.join(workdir, "plain"))
            gc.collect()
            tracer = Tracer().install()
            try:
                outcome = run(args.seed, args.seconds, os.path.join(workdir, "traced"),
                              tracer=tracer)
            finally:
                tracer.uninstall()
            values = end_to_end(outcome, peak_rss_mb())
            untraced = end_to_end(plain, values["peak_rss_mb"])
            layers = layer_metrics(tracer, outcome)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layers.items()}
            report["tracing_cost"] = {
                name: {"untraced": untraced[name], "traced": values[name],
                       "traced_minus_untraced": values[name] - untraced[name]}
                for name in values
                if E2E_UNITS[name] in ("s", "ms", "1/s")  # the timings
            }
            report["span_coverage"] = tracer.coverage()
            tracer.write(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
            passes = [plain, outcome]
            if plain.exact != outcome.exact:
                problems.append("exact counts differ between the untraced and traced pass")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["host"]["cpu_steal_share"] = steal_share(jiffies)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not problems
    report.update(end_to_end=values, samples=outcome.samples, exact=outcome.exact,
                  notes=outcome.notes, problems=problems, attempted=attempted,
                  failed=failed, metrics=metrics)
    print_table(args.workload, values, outcome)
    if args.trace:
        print("== per-layer metrics (traced pass) ==")
        for name, entry in metrics.items():
            print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
        print(f"  tracing cost: {report['tracing_cost']}")
        print(f"  span coverage: {report['span_coverage']}")
    print(f"host: {report['host']}")
    print(f"exact counts: {outcome.exact}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
