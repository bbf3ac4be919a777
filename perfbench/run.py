#!/usr/bin/env python3
"""The paper-workload benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and perfbench_driver from
source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the driver, and prints the host fingerprint,
the fidelity rows, every metric by name and unit, and as the last line one
JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics (tracing off); --trace 1 reports the per-layer
metrics (see trace_layers.py). Exits non-zero when any answer is wrong or
the build fails. Workloads and metrics are described in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import trace_layers  # noqa: E402

WORKLOADS = ("viterbi_warm_check", "mimo_cold_build", "paper_warm_batch")

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
]


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def run_logged(cmd: list[str], log: Path) -> None:
    with open(log, "a", encoding="utf-8") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        status = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT, check=False).returncode
    if status != 0:
        tail = log.read_text(encoding="utf-8").splitlines()[-30:]
        sys.stderr.write("\n".join(tail) + "\n")
        raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def build(bdir: Path) -> Path:
    """Configure once, then build incrementally; returns the driver path."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    if not (bdir / "build.ninja").exists() and not (bdir / "Makefile").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, log)
    run_logged(["cmake", "--build", str(bdir), "--target", "perfbench_driver",
                "-j", str(os.cpu_count() or 1)], log)
    return bdir / "perfbench_driver"


def end_to_end(result: dict) -> dict[str, float]:
    latencies = result["latency_ms"]
    if len(latencies) < 2:
        raise SystemExit("perfbench: the timed loop completed fewer than two "
                         "requests; raise --seconds")
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1],
        "throughput_rps": result["loop_requests"] / result["loop_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    driver = build(bdir)
    runs = bdir / "runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = runs / f"{stem}.driver.json"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path)]
    if args.trace:
        cmd += ["--trace-file", str(runs / f"{stem}.trace.json")]
    result_path.unlink(missing_ok=True)
    status = subprocess.run(cmd, cwd=ROOT, check=False).returncode
    if not result_path.exists():
        raise SystemExit(f"perfbench: driver exited {status} without a result")
    with open(result_path, encoding="utf-8") as f:
        result = json.load(f)

    if args.trace:
        units = dict(trace_layers.LAYER_METRICS)
        values = trace_layers.layer_metrics(
            result, trace_layers.load_events(result["trace_file"]))
    else:
        units = dict(END_TO_END)
        values = end_to_end(result)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}

    print("host " + json.dumps(result["host"]))
    for row in result["fidelity"]:
        print("fidelity " + json.dumps(row))
    attempted, failed = int(result["attempted"]), int(result["failed"])
    print(f"metric fail_ratio {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} properties)")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    correct = status == 0 and failed == 0 and result["invariants_ok"]
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(runs / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({**summary, "host": result["host"],
                   "fidelity": result["fidelity"],
                   "failures": result["failures"]}, f, indent=1)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
