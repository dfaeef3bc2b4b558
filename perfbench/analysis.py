"""Statistics, span arithmetic, output checks and metric derivation.

perfbench/run.py feeds this module the JSON the perfbench binary prints
(and, for traced runs, the spans it writes) and gets back metrics, the
check verdicts, and the human-readable report lines.
"""
import math
import statistics

# End-to-end metrics: every workload reports every one of them.
END_TO_END = {
    "setup_s": "s",
    "request_s_p50": "s",
    "requests_per_s": "1/s",
    "shots_per_s": "1/s",
    "ler": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run. A layer a workload does not reach
# reports 0.
PER_LAYER = {
    "circuit.build_s": "s",
    "sim.dem_build_s": "s",
    "decoder.prototype_s": "s",
    "sim.sample_shots_per_s": "1/s",
    "sim.transpose_shots_per_s": "1/s",
    "decoder.decode_shots_per_s": "1/s",
    "decoder.osd_shot_fraction": "ratio",
    "decoder.osd_time_share": "ratio",
    "decoder.lane_occupancy": "ratio",
    "decoder.adapter_shot_fraction": "ratio",
    "api.work_items_per_basis": "count",
    "api.parallel_efficiency": "ratio",
    "api.coalesced_requests": "count",
    "api.work_steals": "count",
    "api.peak_queue_depth": "count",
    "api.clone_hit_fraction": "ratio",
    "api.reused_shots": "count",
    "prophunt.dem_build_s": "s",
    "prophunt.subgraph_s": "s",
    "prophunt.ambiguous_found": "count",
    "sat.maxsat_s": "s",
    "sat.solves": "count",
    "sat.timeouts": "count",
    "prophunt.enumerate_s": "s",
    "prophunt.candidates": "count",
    "prophunt.verify_s": "s",
    "prophunt.verify_ms_per_candidate": "ms",
    "prophunt.verified_fraction": "ratio",
    "prophunt.apply_s": "s",
    "prophunt.changes_applied": "count",
    "code.self_s": "s",
    "circuit.self_s": "s",
    "sim.self_s": "s",
    "decoder.self_s": "s",
    "api.self_s": "s",
    "prophunt.self_s": "s",
    "sat.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_fraction": "ratio",
}

LAYERS = ("code", "circuit", "sim", "decoder", "api", "prophunt", "sat")


# --- Statistics ---------------------------------------------------------------


def percentile(values, q):
    """The q-th percentile (0..100), interpolating between closest ranks."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentiles(n):
    """Those of p50/p75/p90/p95/p99 with at least ten of n samples beyond
    them: a percentile with fewer is not reported."""
    return [q for q in (50, 75, 90, 95, 99) if n * (100 - q) >= 10 * 100]


def summary(values):
    """Sample count, median, quartiles, and every well-sampled tail
    percentile ("p90", ...) of a sample.

    Quartiles are those of statistics.quantiles(values, n=4); with a
    single value they collapse onto it."""
    n = len(values)
    if n == 0:
        raise ValueError("summary of no values")
    out = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    else:
        out["q1"] = out["q3"] = values[0]
    for q in tail_percentiles(n):
        out["p%d" % q] = percentile(values, q)
    return out


# --- Spans ------------------------------------------------------------------------


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part its child spans cover.

    Children may overlap (several client threads), so their union is
    subtracted, clipped to the parent's own interval."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {
        s["id"]: (s["t1"] - s["t0"]) -
        covered(children.get(s["id"], []), s["t0"], s["t1"])
        for s in spans
    }


def layer_of(name):
    return name.split(".", 1)[0]


# --- Output checks ------------------------------------------------------------------


def tally(r):
    return (r["z_shots"], r["z_failures"], r["x_shots"], r["x_failures"])


def check_records(workload, procs):
    """Return (attempted, failed, messages) over every request of the run.

    A request fails when it threw or when its output check fails:
      ler_*   every request of a process (cold, warm, the threads=1
              reference) returns the same tallies;
      opt_*   every OptimizeRequest of the run returns the same schedule
              and no MaxSAT solve hit its wall-clock timeout;
      serve_* the threads=1 reruns match the served requests of the same
              index bit for bit;
    and, everywhere, no shot was answered from a reused shard tally."""
    attempted = failed = 0
    messages = []

    def fail(r, why):
        messages.append("%s request %s/%d: %s" % (r["phase"], r.get("proc"),
                                                  r["index"], why))

    first_hash = None
    for p, proc in enumerate(procs):
        by_index = {}
        for r in proc["records"]:
            r["proc"] = p
            if r["phase"] != "reference":
                by_index.setdefault(r["index"], r)
        for r in proc["records"]:
            attempted += 1
            bad = None
            if r["error"]:
                bad = "threw: " + r["error"]
            elif r["reused_shots"] != 0:
                bad = "%d shots answered from reused tallies" % r[
                    "reused_shots"]
            elif workload.startswith("opt_") and r["phase"] in ("cold",
                                                                "warm"):
                first_hash = first_hash or r["schedule_hash"]
                if r["schedule_hash"] != first_hash:
                    bad = "final schedule differs from the run's first"
                elif r["sat_timeouts"]:
                    bad = "%d MaxSAT solves timed out" % r["sat_timeouts"]
                elif r["iterations"] < 1:
                    bad = "no optimizer iteration ran"
            elif workload.startswith(("ler_", "serve_")):
                ref = by_index.get(r["index"])
                if ref is not None and tally(r) != tally(ref):
                    bad = "tallies %s differ from %s" % (tally(r), tally(ref))
                elif r["z_shots"] == 0 or r["x_shots"] == 0:
                    bad = "no shots measured"
            if bad:
                failed += 1
                fail(r, bad)
        if workload.startswith(("ler_", "serve_")) and proc.get(
                "reference") and not any(r["phase"] == "reference"
                                         for r in proc["records"]):
            attempted += 1
            failed += 1
            messages.append("process %d ran no threads=1 reference" % p)
    return attempted, failed, messages


# --- End-to-end metrics ------------------------------------------------------------


def combined_ler(records):
    zs = sum(r["z_shots"] for r in records)
    xs = sum(r["x_shots"] for r in records)
    zf = sum(r["z_failures"] for r in records)
    xf = sum(r["x_failures"] for r in records)
    return 1.0 - (1.0 - zf / zs) * (1.0 - xf / xs)


def shots(r):
    return r["z_shots"] + r["x_shots"]


def end_to_end(workload, procs):
    """Every END_TO_END metric of a timed run, plus the workload-specific
    extras (iter_s, ler_gain, request_s_p90) for the report."""
    records = [r for p in procs for r in p["records"] if not r["error"]]
    warm = [r for r in records if r["phase"] == "warm"]
    window = sum(p["window_s"] for p in procs)
    walls = [r["wall_s"] for r in warm]
    m = {
        "setup_s": statistics.median(p["setup_s"] for p in procs),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs),
        "request_s_p50": statistics.median(walls),
        "requests_per_s": len(warm) / window,
    }
    extra = {"request_s": summary(walls)}
    if workload.startswith("opt_"):
        start = [r for r in records if r["phase"] == "score_start"]
        final = [r for r in records if r["phase"] == "score_final"]
        score = start + final
        m["shots_per_s"] = (sum(shots(r) for r in score) /
                            sum(r["wall_s"] for r in score))
        m["ler"] = combined_ler(final)
        extra["ler_start"] = combined_ler(start)
        extra["ler_gain"] = extra["ler_start"] / m["ler"]
        extra["iter_s"] = summary(
            [r["wall_s"] / r["iterations"] for r in warm])
    elif workload.startswith("serve_"):
        m["shots_per_s"] = sum(shots(r) for r in warm) / window
        m["ler"] = combined_ler(warm)
    else:
        m["shots_per_s"] = 2 * procs[0]["shots_per_basis"] / m[
            "request_s_p50"]
        # One request per process: warm reps repeat it bit for bit.
        m["ler"] = combined_ler(
            [next(r for r in p["records"] if r["phase"] == "cold")
             for p in procs])
    extra["process_request_s_p50"] = [
        statistics.median(r["wall_s"] for r in p["records"]
                          if r["phase"] == "warm" and not r["error"])
        for p in procs
    ]
    return m, extra


# --- Per-layer metrics ----------------------------------------------------------------


def per_layer(out, spans):
    """Every PER_LAYER metric from one traced run's spans and meta."""
    meta = out["meta"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def dur(name):
        return sum(s["t1"] - s["t0"] for s in named(name))

    def cnt(name, key):
        return sum(s["counts"].get(key, 0.0) for s in named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {name: 0.0 for name in PER_LAYER}
    decode_s = dur("decoder.decode")
    decode_shots = cnt("decoder.decode", "shots")
    m.update({
        "circuit.build_s": dur("circuit.build"),
        "sim.dem_build_s": dur("sim.dem_build"),
        "decoder.prototype_s": dur("decoder.prototype"),
        "sim.sample_shots_per_s": ratio(cnt("sim.sample", "shots"),
                                        dur("sim.sample")),
        "sim.transpose_shots_per_s": ratio(cnt("sim.transpose", "shots"),
                                           dur("sim.transpose")),
        "decoder.decode_shots_per_s": ratio(decode_shots, decode_s),
        "decoder.osd_shot_fraction": ratio(cnt("decoder.decode",
                                               "osd_shots"), decode_shots),
        "decoder.osd_time_share": ratio(cnt("decoder.decode", "osd_s"),
                                        decode_s),
        "decoder.lane_occupancy": ratio(cnt("decoder.decode", "lane_busy"),
                                        cnt("decoder.decode", "lane_total")),
        "decoder.adapter_shot_fraction": ratio(
            cnt("decoder.decode", "adapter_shots"), decode_shots),
    })

    requests = named("api.request")
    api_shots = cnt("api.request", "shots")
    if api_shots:
        m["api.work_items_per_basis"] = math.ceil(meta["shots_per_basis"] /
                                                  meta["shard_shots"])
        # One-thread sample+decode seconds per shot, times the shots the
        # Engine served, over the thread-seconds it took to serve them.
        one_thread_s = ratio(dur("sim.sample") + decode_s, decode_shots)
        api_wall = (max(s["t1"] for s in requests) -
                    min(s["t0"] for s in requests))
        m["api.parallel_efficiency"] = (one_thread_s * api_shots /
                                        (meta["threads"] * api_wall))
        m["api.coalesced_requests"] = cnt("api.request", "coalesced")
        m["api.work_steals"] = cnt("api.request", "steals")
        m["api.peak_queue_depth"] = max(s["counts"].get("queue_depth", 0)
                                        for s in requests)
        svc = meta["service"]
        m["api.clone_hit_fraction"] = ratio(
            svc["clone_hits"], svc["clone_hits"] + svc["clone_misses"])
        m["api.reused_shots"] = cnt("api.request", "reused_shots")

    verifies = named("prophunt.verify")
    solves = named("sat.maxsat")
    m.update({
        "prophunt.dem_build_s": dur("prophunt.dem_build"),
        "prophunt.subgraph_s": dur("prophunt.subgraph"),
        "prophunt.ambiguous_found": cnt("prophunt.subgraph", "ambiguous"),
        "sat.maxsat_s": dur("sat.maxsat"),
        "sat.solves": len(solves),
        "sat.timeouts": cnt("sat.maxsat", "timed_out"),
        "prophunt.enumerate_s": dur("prophunt.enumerate"),
        "prophunt.candidates": cnt("prophunt.enumerate", "candidates"),
        "prophunt.verify_s": dur("prophunt.verify"),
        "prophunt.verify_ms_per_candidate": ratio(
            1e3 * dur("prophunt.verify"), len(verifies)),
        "prophunt.verified_fraction": ratio(cnt("prophunt.verify",
                                                "verified"), len(verifies)),
        "prophunt.apply_s": dur("prophunt.apply"),
        "prophunt.changes_applied": cnt("prophunt.apply", "applied"),
    })

    selfs = self_times(spans)
    for s in spans:
        layer = layer_of(s["name"])
        if layer in LAYERS:
            m[layer + ".self_s"] += selfs[s["id"]]
    m["trace.overhead_s"] = meta["traced_s"] - meta["untraced_s"]
    m["trace.overhead_fraction"] = m["trace.overhead_s"] / meta["untraced_s"]
    return m


def profile_lines(spans):
    """Self time per span name, largest first: the profile, without a
    profiler."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        calls, total = by_name.get(s["name"], (0, 0.0))
        by_name[s["name"]] = (calls + 1, total + selfs[s["id"]])
    rows = sorted(by_name.items(), key=lambda kv: -kv[1][1])
    return ["  %-22s self %10.4f s  (%d calls)" % (name, total, calls)
            for name, (calls, total) in rows]
