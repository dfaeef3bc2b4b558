#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py           # statistics, spans, checks
    python3 perfbench/selftest.py --smoke   # also every workload, tiny size

Run from the root of a source checkout. The smoke tests build the binary
(as perfbench/run.py does) and run every workload in both modes at tiny
size with all output checks on.
"""
import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

# No __pycache__ next to the sources: the benchmark writes only its
# build directory.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent


class StatisticsTest(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        v = [4.0, 1.0, 3.0, 2.0, 5.0]
        self.assertEqual(analysis.percentile(v, 0), 1.0)
        self.assertEqual(analysis.percentile(v, 50), 3.0)
        self.assertEqual(analysis.percentile(v, 100), 5.0)
        self.assertAlmostEqual(analysis.percentile(v, 90), 4.6)
        self.assertAlmostEqual(analysis.percentile([1.0, 2.0], 25), 1.25)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(analysis.tail_percentiles(19), [])
        self.assertEqual(analysis.tail_percentiles(20), [50])
        self.assertEqual(analysis.tail_percentiles(99), [50, 75])
        self.assertEqual(analysis.tail_percentiles(100), [50, 75, 90])
        self.assertEqual(analysis.tail_percentiles(200), [50, 75, 90, 95])
        self.assertEqual(analysis.tail_percentiles(1000),
                         [50, 75, 90, 95, 99])

    def test_summary_reports_count_median_quartiles(self):
        v = [float(x) for x in range(1, 101)]
        s = analysis.summary(v)
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["median"], 50.5)
        q1, _, q3 = statistics.quantiles(v, n=4)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertAlmostEqual(s["p90"], 90.1)
        self.assertEqual(s["p50"], s["median"])
        self.assertNotIn("p95", s)

    def test_summary_of_few_samples_has_no_tail(self):
        s = analysis.summary([2.0])
        self.assertEqual((s["n"], s["median"], s["q1"], s["q3"]),
                         (1, 2.0, 2.0, 2.0))
        self.assertFalse([k for k in s if k.startswith("p")])
        with self.assertRaises(ValueError):
            analysis.summary([])


def span(id_, parent, name, t0, t1, **counts):
    return {"id": id_, "parent": parent, "request": 0, "name": name,
            "t0": t0, "t1": t1, "counts": counts}


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(1, 0, "replay", 0.0, 10.0),
                 span(2, 1, "sim.sample", 1.0, 3.0),
                 span(3, 1, "decoder.decode", 3.0, 8.0),
                 span(4, 3, "decoder.inner", 4.0, 5.0)]
        st = analysis.self_times(spans)
        self.assertAlmostEqual(st[1], 3.0)
        self.assertAlmostEqual(st[2], 2.0)
        self.assertAlmostEqual(st[3], 4.0)
        self.assertAlmostEqual(st[4], 1.0)
        # Self times of a tree add up to its root's duration.
        self.assertAlmostEqual(sum(st.values()), 10.0)

    def test_overlapping_children_count_once(self):
        # Two client threads' requests overlap inside one parent.
        spans = [span(1, 0, "loop", 0.0, 10.0),
                 span(2, 1, "api.request", 1.0, 6.0),
                 span(3, 1, "api.request", 4.0, 9.0)]
        self.assertAlmostEqual(analysis.self_times(spans)[1], 2.0)

    def test_children_are_clipped_to_parent(self):
        self.assertAlmostEqual(
            analysis.covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0), 4.0)
        self.assertEqual(analysis.covered([], 0.0, 10.0), 0.0)

    def test_per_layer_from_spans(self):
        spans = [
            span(1, 0, "code.build", 0.0, 0.5),
            span(2, 0, "api.request", 1.0, 3.0, shots=8000, coalesced=1,
                 steals=2, queue_depth=3, reused_shots=0),
            span(3, 0, "replay", 3.0, 13.0),
            span(4, 3, "circuit.build", 3.0, 3.5),
            span(5, 3, "sim.dem_build", 3.5, 4.0),
            span(6, 3, "decoder.prototype", 4.0, 4.5),
            span(7, 3, "sim.sample", 5.0, 5.5, shots=4000),
            span(8, 3, "sim.transpose", 5.5, 5.75, shots=4000),
            span(9, 3, "decoder.decode", 6.0, 10.0, shots=4000,
                 osd_shots=1000, osd_s=1.0, adapter_shots=0,
                 lane_busy=3, lane_total=4),
        ]
        out = {"meta": {"threads": 4, "shots_per_basis": 4000,
                        "shard_shots": 4000, "untraced_s": 9.0,
                        "traced_s": 10.0,
                        "service": {"clone_hits": 3, "clone_misses": 1}}}
        m = analysis.per_layer(out, spans)
        self.assertEqual(set(m), set(analysis.PER_LAYER))
        self.assertAlmostEqual(m["sim.sample_shots_per_s"], 8000.0)
        self.assertAlmostEqual(m["sim.transpose_shots_per_s"], 16000.0)
        self.assertAlmostEqual(m["decoder.decode_shots_per_s"], 1000.0)
        self.assertAlmostEqual(m["decoder.osd_shot_fraction"], 0.25)
        self.assertAlmostEqual(m["decoder.osd_time_share"], 0.25)
        self.assertAlmostEqual(m["decoder.lane_occupancy"], 0.75)
        self.assertEqual(m["api.work_items_per_basis"], 1)
        # 4.5 s per 4000 shots on one thread, 8000 shots served by 4
        # threads in 2 s: 9 / 8.
        self.assertAlmostEqual(m["api.parallel_efficiency"], 9.0 / 8.0)
        self.assertAlmostEqual(m["api.clone_hit_fraction"], 0.75)
        self.assertEqual(m["api.peak_queue_depth"], 3)
        self.assertAlmostEqual(m["code.self_s"], 0.5)
        self.assertAlmostEqual(m["sim.self_s"], 1.25)
        self.assertAlmostEqual(m["decoder.self_s"], 4.5)
        self.assertAlmostEqual(m["api.self_s"], 2.0)
        self.assertEqual(m["prophunt.verify_s"], 0.0)
        self.assertAlmostEqual(m["trace.overhead_s"], 1.0)
        self.assertAlmostEqual(m["trace.overhead_fraction"], 1.0 / 9.0)


def record(phase, index=0, zf=5, xf=7, **kw):
    r = {"phase": phase, "index": index, "error": "", "reused_shots": 0,
         "z_shots": 100, "z_failures": zf, "x_shots": 100, "x_failures": xf,
         "schedule_hash": "1", "sat_timeouts": 0, "iterations": 6,
         "wall_s": 1.0}
    r.update(kw)
    return r


class CheckTest(unittest.TestCase):
    def test_identical_ler_tallies_pass(self):
        procs = [{"reference": True,
                  "records": [record("cold"), record("warm"),
                              record("reference")]}]
        self.assertEqual(analysis.check_records("ler_x", procs), (3, 0, []))

    def test_ler_tally_mismatch_fails_one_request(self):
        procs = [{"reference": True,
                  "records": [record("cold"), record("warm", zf=6),
                              record("reference")]}]
        attempted, failed, msgs = analysis.check_records("ler_x", procs)
        self.assertEqual((attempted, failed, len(msgs)), (3, 1, 1))

    def test_missing_reference_fails(self):
        procs = [{"reference": True, "records": [record("cold")]}]
        self.assertEqual(analysis.check_records("ler_x", procs)[:2], (2, 1))

    def test_reuse_and_errors_fail(self):
        procs = [{"records": [record("cold", reused_shots=64),
                              record("warm", error="boom")]}]
        self.assertEqual(analysis.check_records("serve_x", procs)[:2],
                         (2, 2))

    def test_serve_reference_compares_by_index(self):
        procs = [{"reference": True,
                  "records": [record("cold", 0), record("warm", 1, zf=1),
                              record("reference", 0),
                              record("reference", 1, zf=2)]}]
        self.assertEqual(analysis.check_records("serve_x", procs)[:2],
                         (4, 1))

    def test_optimizer_schedule_and_timeouts(self):
        procs = [{"records": [record("cold"), record("warm")]},
                 {"records": [record("cold", schedule_hash="2"),
                              record("warm", sat_timeouts=1)]}]
        self.assertEqual(analysis.check_records("opt_x", procs)[:2], (4, 2))

    def test_end_to_end_has_every_metric(self):
        procs = [{"setup_s": 2.0, "peak_rss_mb": 10.0, "window_s": 2.0,
                  "shots_per_basis": 100,
                  "records": [record("cold"), record("warm"),
                              record("warm", wall_s=3.0)]}]
        m, extra = analysis.end_to_end("ler_x", procs)
        self.assertEqual(set(m), set(analysis.END_TO_END))
        self.assertEqual(m["request_s_p50"], 2.0)
        self.assertEqual(m["shots_per_s"], 100.0)
        self.assertAlmostEqual(m["ler"], 1 - 0.95 * 0.93)
        self.assertEqual(extra["request_s"]["n"], 2)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match(self):
        path = BENCH_DIR.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to %s" % BENCH_DIR)
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         analysis.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         analysis.PER_LAYER)


class SmokeTest(unittest.TestCase):
    """Every workload at tiny size, both modes, all checks on."""

    def run_bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "1", "--trace",
             str(trace), "--smoke"], capture_output=True, text=True,
            timeout=900)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        out = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"], p.stdout[-3000:])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        units = analysis.PER_LAYER if trace else analysis.END_TO_END
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()},
                         units)
        return out["metrics"]

    def test_workloads(self):
        for w in ("ler_rqt54", "ler_surface7", "opt_surface5", "serve_lp39"):
            with self.subTest(workload=w):
                e2e = self.run_bench(w, 0)
                self.assertTrue(all(v["value"] > 0 for v in e2e.values()))
                layer = self.run_bench(w, 1)
                frac = layer["decoder.adapter_shot_fraction"]["value"]
                if w == "ler_surface7":
                    self.assertEqual(frac, 1.0)
                elif w in ("ler_rqt54", "serve_lp39"):
                    self.assertEqual(frac, 0.0)
                else:
                    self.assertGreater(layer["prophunt.verify_s"]["value"],
                                       0.0)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    if smoke:
        sys.argv.remove("--smoke")
    else:
        del SmokeTest
    unittest.main()
