#!/usr/bin/env bash
# A/A check of the benchmark of record: the same code measured twice must
# agree with itself within the benchmark's own bounds.
#
#   benchmark/aa.sh            run the full set twice, interleaved (A then B on
#                              each workload), print each end-to-end metric's
#                              relative difference beside its bound, exit 1 on
#                              a breach
#   benchmark/aa.sh --spread   run each workload ten times, each with another
#                              seed, and print each metric's interquartile
#                              range as a share of its median beside its bound
#                              (the steadiness the contract asks for); exit 1
#                              when a spread other than setup_s exceeds it
#
# Runs from the repository root; SECONDS_PER_RUN overrides run_seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-aa}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/df-benchmark"

exec python3 - "$mode" "$bin" "${SECONDS_PER_RUN:-}" <<'PY'
import json, statistics, subprocess, sys

mode, binary, seconds = sys.argv[1], sys.argv[2], sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]


def run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} "
                 f"failed={result['failed']} of {result['attempted']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


breaches = 0
if mode == "--spread":
    print(f"{'workload':<16} {'metric':<20} {'median':>14} {'iqr/median':>11} {'bound':>7}")
    for workload in workloads:
        runs = [run(workload, seed) for seed in range(101, 111)]
        for metric in metrics:
            values = [r[metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            over = spread > metric["bound"] and metric["name"] != "setup_s"
            breaches += over
            print(f"{workload:<16} {metric['name']:<20} {median:>14.6g} "
                  f"{spread:>11.4f} {metric['bound']:>7.2f}{'  BREACH' if over else ''}")
else:
    print(f"{'workload':<16} {'metric':<20} {'A':>14} {'B':>14} {'worse by':>9} {'bound':>7}")
    for workload in workloads:
        a, b = run(workload, 1), run(workload, 1)
        for metric in metrics:
            first, second = a[metric["name"]], b[metric["name"]]
            # Either order is a regression of one run against the other.
            diff = max(worse_by(metric, first, second), worse_by(metric, second, first))
            over = diff > metric["bound"]
            breaches += over
            print(f"{workload:<16} {metric['name']:<20} {first:>14.6g} {second:>14.6g} "
                  f"{diff:>9.4f} {metric['bound']:>7.2f}{'  BREACH' if over else ''}")
sys.exit(1 if breaches else 0)
PY
