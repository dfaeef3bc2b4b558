#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--smoke]

Run it from the root of a source checkout. It builds the library and the
perfbench binary from source into $CARGO_TARGET_DIR (default
.bench_build), then:

  --trace 0  runs the workload in 3 fresh processes, one after another.
             Each sends one cold request (set-up time is measured from
             process start to its end), then warm requests for S/3
             seconds. The first process also reruns its requests on one
             thread. Prints every end-to-end metric.
  --trace 1  runs one process that records spans around each layer call,
             and prints every per-layer metric.

Every request's output is checked (see analysis.check_records). The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are the report and the
environment stamp. Workloads: ler_rqt54, ler_surface7, opt_surface5,
serve_lp39 (see perfbench.cc and BENCHMARK.json).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# No __pycache__ next to the sources: the benchmark writes only its
# build directory.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent
WORKLOADS = ("ler_rqt54", "ler_surface7", "opt_surface5", "serve_lp39")
# Fresh processes per timed run: set-up time is their median.
PROCESSES = 3
# Every process of a run must end within this many seconds.
RUN_TIMEOUT_S = 170
# Seconds of untimed load before measuring. On a shared 4-vCPU Xeon VM the
# same requests ran 30-70% slower for a while after a few idle seconds, the
# cold request most of all; a short burst of the workload itself removes
# that idle-state penalty from both set-up and warm timings.
WARMUP_S = 2


class BenchError(Exception):
    pass


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the perfbench binary; returns its path."""
    if not (SOURCE_DIR / "src" / "api" / "engine.h").is_file():
        raise BenchError("library sources not found next to %s" % BENCH_DIR)
    out = build_dir() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    return out / "perfbench"


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = [SOURCE_DIR / "CMakeLists.txt"]
    for d in ("src", BENCH_DIR.name):
        files += (p for p in (SOURCE_DIR / d).rglob("*") if p.is_file())
    for p in sorted(files):
        if "__pycache__" in p.parts:
            continue
        h.update(str(p.relative_to(SOURCE_DIR)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(load_at_start):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (SOURCE_DIR / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=SOURCE_DIR,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "load_avg_at_start": load_at_start,
        "git_sha": sha,
        "source_digest": source_digest(),
        "simd_env": {k: os.environ[k] for k in ("PROPHUNT_NO_AVX2",
                                                "PROPHUNT_NO_AVX512")
                     if k in os.environ},
    }


def run_binary(binary, argv, deadline):
    """Run one perfbench process to completion; returns its JSON output."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time budget exhausted")
    try:
        p = subprocess.run([str(binary)] + argv, capture_output=True,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        raise BenchError("perfbench timed out: %s" % " ".join(argv))
    if p.returncode != 0:
        raise BenchError("perfbench exited %d: %s" % (p.returncode,
                                                   p.stderr.strip()))
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_build(out):
    b = out["build"]
    if b["build_type"] in ("", "Debug"):
        raise BenchError("refusing to measure a %r build" % b["build_type"])
    return b


def fmt(v):
    return "%.6g" % v


def warm_up(binary, args, deadline):
    run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                        "--mode", "run", "--seconds", str(WARMUP_S),
                        "--smoke"], deadline)


def timed_run(binary, args, deadline):
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--mode", "run", "--seconds", str(args.seconds / PROCESSES)]
    if args.smoke:
        common.append("--smoke")
    procs = []
    for k in range(PROCESSES):
        argv = common + ["--process", str(k)] + (["--reference"] if k == 0
                                                 else [])
        out = run_binary(binary, argv, deadline)
        out["reference"] = k == 0
        procs.append(out)
    build_stamp = check_build(procs[0])
    attempted, failed, messages = analysis.check_records(args.workload, procs)
    try:
        metrics, extra = analysis.end_to_end(args.workload, procs)
    except (ArithmeticError, ValueError, StopIteration):
        raise BenchError("too few successful requests to measure:\n" +
                         "\n".join(messages))

    lines = ["end-to-end, %d processes, %d warm requests:" %
             (len(procs), extra["request_s"]["n"])]
    for name, unit in analysis.END_TO_END.items():
        lines.append("  %-16s %14s %s" % (name, fmt(metrics[name]), unit))
    rs = extra["request_s"]
    tail = [k for k in rs if k.startswith("p") and k != "p50"]
    lines.append("  request_s        q1 %s  q3 %s%s  (n=%d)" % (
        fmt(rs["q1"]), fmt(rs["q3"]),
        "".join("  %s %s" % (k, fmt(rs[k])) for k in tail) or
        "  (too few samples for a tail percentile)", rs["n"]))
    if "iter_s" in extra:
        it = extra["iter_s"]
        lines.append("  iter_s           %14s s    (median of %d, q1 %s "
                     "q3 %s)" % (fmt(it["median"]), it["n"], fmt(it["q1"]),
                                 fmt(it["q3"])))
        lines.append("  ler_gain         %14s      (start LER %s / final "
                     "LER %s)" % (fmt(extra["ler_gain"]),
                                  fmt(extra["ler_start"]), fmt(metrics["ler"])))
    lines.append("  failed_fraction  %14s      (%d of %d requests)" % (
        fmt(failed / attempted), failed, attempted))
    lines.append("  per-process median request_s: %s" % " ".join(
        fmt(v) for v in extra["process_request_s_p50"]))
    return metrics, attempted, failed, messages, lines, build_stamp


def traced_run(binary, args, deadline):
    spans_dir = build_dir() / "traces"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / ("%s-%d.jsonl" % (args.workload, args.seed))
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--mode", "trace", "--spans", str(spans_path)]
    if args.smoke:
        argv.append("--smoke")
    out = run_binary(binary, argv, deadline)
    build_stamp = check_build(out)
    spans = [json.loads(line) for line in
             spans_path.read_text().splitlines() if line.strip()]
    metrics = analysis.per_layer(out, spans)
    attempted = 1 + sum(s["name"] == "api.request" for s in spans)
    messages = [out["error"]] if out["error"] else []
    if metrics["api.reused_shots"] or metrics["sat.timeouts"]:
        messages.append("traced run reused shard tallies or timed out a "
                        "MaxSAT solve")
    lines = ["per-layer (traced run, %d spans in %s):" % (len(spans),
                                                          spans_path)]
    for name, unit in analysis.PER_LAYER.items():
        lines.append("  %-34s %14s %s" % (name, fmt(metrics[name]), unit))
    lines.append("self time by span:")
    lines += analysis.profile_lines(spans)
    return metrics, attempted, len(messages), messages, lines, build_stamp


def main():
    load_at_start = list(os.getloadavg())
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, all output checks on")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        binary = build()
        # The first run in a checkout also builds; the budget starts after.
        deadline = time.monotonic() + RUN_TIMEOUT_S
        warm_up(binary, args, deadline)
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed, messages, lines, build_stamp = run(
            binary, args, deadline)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    env = environment(load_at_start)
    env["build"] = build_stamp
    print("perfbench %s seed=%d trace=%d%s (%.1f s)" % (
        args.workload, args.seed, args.trace, " smoke" if args.smoke else "",
        time.monotonic() - start))
    for line in lines + messages:
        print(line)
    print(json.dumps({"environment": env}, sort_keys=True))
    units = analysis.PER_LAYER if args.trace else analysis.END_TO_END
    print(json.dumps({
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
