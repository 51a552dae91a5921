#!/usr/bin/env python3
"""Build and run the host-time benchmark.

    python3 perfbench/run.py --workload admit|simulate|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest

Run from the root of a checkout of the repository. The benchmark is an
OCaml executable (perfbench/perfbench.ml) built with dune against the
repository's libraries; this script builds it, runs one workload, checks
that the result line names exactly the metrics declared below, and
passes the output through. The last line of standard output is the
result object. --write-manifest regenerates BENCHMARK.json from the
declarations below.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RUN_SECONDS = 20

WORKLOADS = [
    ("admit", "cold compile, optimize, verify and proofcheck of every module x strategy cell: "
              "opt and verify do the work, execution does none"),
    ("simulate", "fresh reference-lowering instances of every SPEC-like program and Sightglass "
                 "kernel run on the fast and cycle engines: execution does the work"),
    ("serve", "steady and chaos serving campaigns under hfi and bounds-checks: the event loop "
              "and admission-cache hits do the work, verification runs only on misses"),
]

# name, unit, better, bound (share of the parent's median). The bounds are
# wide because corrected times still spread by up to ~0.1 between runs of
# the same code on a shared host (see NOTES.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_heap_mb", "MB", "lower", 0.25),
    ("ok_share", "share", "higher", 0.01),
    ("module_ms_p50", "ms", "lower", 0.25),
    ("module_ms_p90", "ms", "lower", 0.25),
    ("fast_minstr_per_s", "Minstr/s", "higher", 0.25),
    ("cycle_minstr_per_s", "Minstr/s", "higher", 0.25),
    ("run_ms_p50", "ms", "lower", 0.25),
    ("run_ms_p90", "ms", "lower", 0.25),
    ("req_per_host_s.hfi", "req/s", "higher", 0.25),
    ("req_per_host_s.bounds-checks", "req/s", "higher", 0.25),
]

STRATEGIES = ["guard-pages", "bounds-checks", "masking", "hfi"]
SERVE_STRATEGIES = ["hfi", "bounds-checks"]

PER_LAYER = (
    [("wasm.codegen_ms", "ms", "lower"), ("wasm.instantiate_ms", "ms", "lower")]
    + [("opt.optimize_ms." + s, "ms", "lower") for s in STRATEGIES]
    + [
        ("opt.instrs_in", "count", "lower"),
        ("opt.instrs_out", "count", "lower"),
        ("opt.changed", "count", "higher"),
        ("opt.minor_mwords", "Mwords", "lower"),
        ("pipeline.decode_ms", "ms", "lower"),
        ("pipeline.execute_ms", "ms", "lower"),
        ("pipeline.fast_accounting_ms", "ms", "lower"),
        ("pipeline.cycle_accounting_ms", "ms", "lower"),
        ("pipeline.sim_instrs", "count", "lower"),
        ("pipeline.modeled_cycles", "cycles", "lower"),
        ("pipeline.dcache_misses", "count", "lower"),
        ("pipeline.cond_mispredicts", "count", "lower"),
        ("pipeline.transient_instrs", "count", "lower"),
        ("pipeline.minor_words_per_instr.fast", "words/instr", "lower"),
        ("pipeline.minor_words_per_instr.cycle", "words/instr", "lower"),
    ]
    + [("verify.verify_ms." + s, "ms", "lower") for s in STRATEGIES]
    + [
        ("verify.proofcheck_ms", "ms", "lower"),
        ("verify.minor_mwords", "Mwords", "lower"),
        ("verify.iterations", "count", "lower"),
        ("verify.blocks", "count", "lower"),
        ("verify.safe", "count", "higher"),
        ("verify.unknown", "count", "lower"),
        ("verify.unsafe", "count", "lower"),
    ]
    + [("serving.simulate_ms.%s.%s" % (sc, s), "ms", "lower")
       for sc in ("steady", "chaos") for s in SERVE_STRATEGIES]
    + [("serving.admission_hit_us." + s, "us", "lower") for s in SERVE_STRATEGIES]
    + [("serving.admission_miss_ms." + s, "ms", "lower") for s in SERVE_STRATEGIES]
    + [("serving.admission_share." + s, "share", "lower") for s in SERVE_STRATEGIES]
    + [
        ("serving.verify_hits", "count", "higher"),
        ("serving.verify_misses", "count", "lower"),
        ("serving.cold_starts", "count", "lower"),
        ("serving.retries", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.self_coverage", "share", "higher"),
    ]
)


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("not a checkout of the repository (no dune-project or lib/ in %s)" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # keep every build artifact inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = subprocess.run([dune, "build", "--root", ROOT, "--display", "quiet", TARGET],
                               cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed (exit %d)" % built.returncode)
    return os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    declared = [n for n, *_ in (PER_LAYER if trace == 1 else END_TO_END)]
    if sorted(result["metrics"]) != sorted(declared):
        missing = set(declared) - set(result["metrics"])
        extra = set(result["metrics"]) - set(declared)
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s"
                         % (sorted(missing), sorted(extra)))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise ValueError("metric %s is not a finite number" % name)
    if result["attempted"] < 1:
        raise ValueError("no op attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json from the declarations in this file")
    args = ap.parse_args()
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return
    if args.workload is None or args.seed is None or args.seconds < 1:
        ap.error("--workload, --seed and a positive --seconds are required")
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S, code=1)
    if run.returncode != 0:
        fail("benchmark exited with %d" % run.returncode, code=run.returncode)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        fail("malformed result line: %s" % e, code=1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
