#!/usr/bin/env python3
"""Figure-grid benchmark runner for the COSMOS simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` crate beside this
file in release mode (into $CARGO_TARGET_DIR, default `.bench_build`),
prints a host fingerprint, then runs one process that generates the
workload's inputs once and:

- `--trace 0`: runs the grid phase in passes while another pass still fits
  in S seconds (at least one), and reports each per-pass metric as its
  median over the passes;
- `--trace 1`: runs one traced pass and reports the per-layer metrics.

Human-readable lines (fingerprint, per-metric median/quartiles/sample
count over the passes) go first; the last stdout line is the JSON result
`{"correct", "attempted", "failed", "metrics"}`. See README.md here.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["irregular_grid", "irregular_sampled", "irregular_telemetry"]
# The process starts no pass that would likely end past this.
RUN_LIMIT_S = 150.0


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.abspath(".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rustc_version():
    out = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_process(binary, args):
    """Runs one benchmark process; returns its parsed report."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate()
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive", 2)

    binary = build()
    out_dir = os.path.join(HERE, "out")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--out", out_dir]
    args += ["--trace"] if a.trace else ["--seconds", str(min(a.seconds, RUN_LIMIT_S))]
    try:
        report = run_process(binary, args)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    host = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": rustc_version(),
        "profile": "release",
        "workers": report["workers"],
    }
    print("# host " + json.dumps(host, sort_keys=True))
    print(f"# workload {a.workload} seed {a.seed} trace {a.trace} "
          f"grid digest {report['grid_digest']}")

    passes = report["passes"]
    print(f"# {'metric':<34} {'value':>14} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3} unit")
    for name, m in report["metrics"].items():
        values = passes.get(name, [m["value"]])
        q1, med, q3 = quartiles(values)
        print(f"# {name:<34} {m['value']:>14.6g} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{len(values):>3} {m['unit']}")

    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
