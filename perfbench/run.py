#!/usr/bin/env python3
"""Serve benchmark: builds ptran-serve and the driver, runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
                             [--out FILE] [--spans FILE]

Run from the repository root. --trace 0 measures the end-to-end metrics
from untraced closed-loop traffic against real daemons; --trace 1 runs the
traced per-layer harness instead. Every metric is printed by name, unit
and sample count; the last stdout line is one JSON object holding the
metrics BENCHMARK.json lists for that mode. --out saves the full result
(all metrics, sample counts, provenance) for perfbench/compare.py.
See perfbench/README.md for the workloads and the layer map.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("hot-estimate", "profile-churn", "replicated-writes")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    steps = [["cmake", "-S", str(BENCH), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j4", "--target",
              "ptran-serve", "perfbench-loadgen"]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return (build_dir / "perfbench-loadgen",
            build_dir / "ptran-tools" / "ptran-serve")


def run_driver(argv):
    """Runs the driver in its own process group, so a timeout also stops
    every daemon it spawned."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail(f"driver exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full result JSON here")
    ap.add_argument("--spans", help="write the traced run's spans here "
                    "(Chrome trace format)")
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    loadgen, serve = build()
    run_dir = Path(".bench_run") / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    (ROOT / run_dir).mkdir(parents=True)
    argv = [str(loadgen), "trace" if args.trace else "run",
            f"--workload={args.workload}", f"--seed={args.seed}",
            f"--seconds={args.seconds}", f"--serve={serve}",
            f"--dir={run_dir}"]
    if args.trace and args.spans:
        argv.append(f"--trace-out={Path(args.spans).resolve()}")
    try:
        result = run_driver(argv)
    finally:
        shutil.rmtree(ROOT / run_dir, ignore_errors=True)

    if not result["correct"]:
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        fail("answers are wrong: " + result["why"])
    metrics = result["metrics"]
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"(samples {m['samples']})")
    if "coverage_by_verb" in result:
        for verb, c in result["coverage_by_verb"].items():
            print(f"{args.workload} trace.coverage[{verb}] = "
                  f"{c['coverage']:.4f} (layers {c['layers_us']:.2f} us / "
                  f"observed {c['observed_us']:.2f} us, "
                  f"samples {c['requests']})")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("driver did not report " + ", ".join(missing))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
