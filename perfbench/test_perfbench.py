#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic (no build, no server).

    python3 perfbench/test_perfbench.py
"""

import copy
import dataclasses
import json
import os
import random
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import answers  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
import stats  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def sans_id(line):
    body = json.loads(line)
    del body["id"]
    return json.dumps(body, sort_keys=True)


class Generation(unittest.TestCase):
    def closed_lines(self, wl, seed, rounds):
        gen = workloads.closed_rounds(wl, seed)
        return [[line for _, line in next(gen)] for _ in range(rounds)]

    def test_same_seed_gives_identical_lines(self):
        for wl in workloads.WORKLOADS.values():
            if wl.loop == "closed":
                self.assertEqual(self.closed_lines(wl, 7, 3), self.closed_lines(wl, 7, 3))
            else:
                self.assertEqual(workloads.open_schedule(wl, 7, 20), workloads.open_schedule(wl, 7, 20))

    def test_other_seed_reorders_the_same_pool(self):
        for wl in workloads.WORKLOADS.values():
            pool = sorted(json.dumps(it.template(), sort_keys=True) for it in wl.pool)
            if wl.loop == "closed":
                orders = [[sans_id(l) for l in self.closed_lines(wl, seed, 1)[0]] for seed in range(7, 11)]
                self.assertGreater(len({tuple(o) for o in orders}), 1)
                for order in orders:
                    self.assertEqual(sorted(order), pool)
            else:
                a, b = workloads.open_schedule(wl, 7, 20), workloads.open_schedule(wl, 8, 20)
                self.assertEqual([t for t, *_ in a], [t for t, *_ in b])
                self.assertNotEqual([sans_id(l) for *_, l in a], [sans_id(l) for *_, l in b])
                self.assertEqual(sorted(sans_id(l) for *_, l in a), sorted(sans_id(l) for *_, l in b))
                self.assertEqual({sans_id(l) for *_, l in a}, set(pool))

    def test_zipf_deck_counts(self):
        wl = workloads.WORKLOADS["cached-serving"]
        deck = workloads.zipf_deck(wl, 180)
        self.assertEqual(len(deck), 180)
        counts = {it.name: deck.count(it) for it in wl.pool}
        weights = dict(zip((it.name for it in wl.pool), workloads.zipf_weights(wl)))
        top = max(weights, key=weights.get)
        self.assertEqual(min(counts.values()), 1)
        self.assertEqual(max(counts, key=counts.get), top)

    def test_episodes_partition_the_pool(self):
        for wl in workloads.WORKLOADS.values():
            if wl.loop == "closed":
                names = [n for episode in wl.episodes for n in episode]
                self.assertEqual(sorted(names), sorted(it.name for it in wl.pool))

    def test_no_episode_follows_itself_within_a_memo_family(self):
        for wl in workloads.WORKLOADS.values():
            if wl.loop != "closed":
                continue
            gen = workloads.closed_rounds(wl, 3)
            names = [it.name for _ in range(30) for it, _ in next(gen)]
            starts = {ep[0]: ep for ep in wl.episodes}
            runs = {}  # memo family -> episodes in the order they ran
            for name in names:
                if name in starts:
                    fam = workloads.memo_family(workloads.item(wl, name))
                    runs.setdefault(fam, []).append(starts[name])
            for fam, seq in runs.items():
                if fam and len(set(seq)) > 1:
                    for a, b in zip(seq, seq[1:]):
                        self.assertNotEqual(a, b, (wl.name, fam))

    def test_deal_spreads_every_item_evenly(self):
        wl = workloads.WORKLOADS["cached-serving"]
        deck = workloads.zipf_deck(wl, 400)
        dealt = workloads.dealt_evenly(list(deck), random.Random(5))
        self.assertEqual(sorted(it.name for it in dealt), sorted(it.name for it in deck))
        for name in {it.name for it in deck}:
            count = sum(it.name == name for it in deck)
            for quarter in range(4):
                got = sum(it.name == name for it in dealt[quarter * 100:(quarter + 1) * 100])
                self.assertLessEqual(abs(got - count / 4), 1, name)

    def test_open_loop_pool_exceeds_cache(self):
        wl = workloads.WORKLOADS["cached-serving"]
        self.assertGreater(len(wl.pool), wl.result_cache)


class Goodput(unittest.TestCase):
    def segs(self, passes):
        return [{"rate": float(r), "passes": p} for r, p in zip(range(16, 100, 4), passes)]

    def test_clean_step(self):
        self.assertEqual(run.knee(self.segs([True] * 3 + [False] * 3))["rate"], 24.0)

    def test_one_flipped_segment_moves_it_one_step(self):
        # a spurious miss below the knee, then a spurious meet above it
        self.assertEqual(run.knee(self.segs([True, False, True, True, False, False]))["rate"], 24.0)
        self.assertEqual(run.knee(self.segs([True, True, True, False, True, False]))["rate"], 28.0)

    def test_none_meeting_reads_the_lowest(self):
        self.assertEqual(run.knee(self.segs([False] * 4))["rate"], 16.0)

    def test_ladder_passes_the_knee(self):
        # the server met the limit up to 28-64 requests/s when defined
        rates = workloads.WORKLOADS["cached-serving"].rates
        self.assertEqual(list(rates), sorted(rates))
        self.assertGreater(rates[-1], 64.0)


class Backlog(unittest.TestCase):
    wl = dataclasses.replace(workloads.WORKLOADS["cached-serving"], rates=(40.0,))

    def growing(self, latencies_s):
        it = self.wl.pool[0]
        records = []
        for i, lat in enumerate(latencies_s):
            rec = served.Record(it, f"r{i}", it.request(f"r{i}"), i / 40.0, 40.0)
            rec.sent, rec.received, rec.ok = rec.scheduled, rec.scheduled + lat, True
            records.append(rec)
        return run.segments(self.wl, records)[0]["growing"]

    def test_a_burst_of_misses_at_the_end_is_not_a_backlog(self):
        self.assertFalse(self.growing([0.0005] * 40 + [1.5, 1.4, 1.3, 1.2, 1.1, 1.0, 0.0005, 0.0005]))

    def test_a_server_that_falls_behind_has_a_growing_backlog(self):
        # answered at 20 requests/s while they arrive at 40
        self.assertTrue(self.growing([i / 20.0 - i / 40.0 + 0.05 for i in range(48)]))


class CacheHits(unittest.TestCase):
    def test_hit_on_an_entry_the_warm_up_stored(self):
        it = workloads.WORKLOADS["cached-serving"].pool[0]
        warm = [(it, it.request("w0"), {"ok": True, "elapsed_ms": 42.5})]
        records = []
        for i, elapsed in enumerate([42.5, 10.0, 10.0]):
            rec = served.Record(it, f"r{i}", it.request(f"r{i}"), 0.0)
            rec.response = {"ok": True, "elapsed_ms": elapsed}
            records.append(rec)
        self.assertEqual(run.result_cache_hits(records, warm), {"r0", "r2"})


class Tail(unittest.TestCase):
    def test_ten_samples_beyond(self):
        xs = list(range(1, 101))
        random.Random(1).shuffle(xs)
        self.assertEqual(stats.tail(xs), (90, 90.0, 10, 100))

    def test_smallest_sample_that_has_a_tail(self):
        value, pct, beyond, n = stats.tail(list(range(11)))
        self.assertEqual((value, beyond, n), (0, 10, 11))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_too_few_samples(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0, 3))


class Quantile(unittest.TestCase):
    def test_incomplete_beta(self):
        self.assertAlmostEqual(stats.betainc(2, 3, 0.4), 0.5248, places=12)
        self.assertAlmostEqual(stats.betainc(0.5, 0.5, 0.5), 0.5, places=12)

    def test_harrell_davis_median_of_a_symmetric_sample(self):
        self.assertAlmostEqual(stats.quantile([3.0, 1.0, 2.0], 0.5), 2.0, places=12)

    def test_ends_are_the_extremes(self):
        xs = [4.0, 1.0, 9.0]
        self.assertEqual((stats.quantile(xs, 0.0), stats.quantile(xs, 1.0)), (1.0, 9.0))

    def test_one_request_crossing_a_gap_moves_it_by_its_weight(self):
        # 15 requests near 1 s, 15 near 2 s: the plain median sits on the gap
        low, high = [1.0 + 0.01 * i for i in range(15)], [2.0 + 0.01 * i for i in range(15)]
        moved = low[:-1] + [2.5] + high
        plain = abs(statistics.median(moved) - statistics.median(low + high))
        smooth = abs(stats.quantile(moved, 0.5) - stats.quantile(low + high, 0.5))
        self.assertLess(smooth, plain / 3)


def span(sid, name, start, end, parent=-1, req=0, **attrs):
    return {"id": sid, "name": name, "req": req, "parent": parent, "start": start, "end": end, "attrs": attrs}


class Spans(unittest.TestCase):
    def setUp(self):
        self.spans = [
            span(0, "request", 0.0, 10.0),
            span(1, "model.build", 1.0, 3.0, parent=0),
            span(2, "mg.solve", 2.0, 5.0, parent=0),  # overlaps its sibling
            span(3, "ber.eval", 6.0, 7.0, parent=0),
            span(4, "inner", 1.5, 2.0, parent=1),
            span(5, "late", 9.5, 11.0, parent=0),  # runs past its parent: clipped
        ]

    def test_self_time_subtracts_the_union_of_children(self):
        own = spans.self_times(self.spans)
        self.assertAlmostEqual(own[0], 10.0 - (4.0 + 1.0 + 0.5))
        self.assertAlmostEqual(own[1], 2.0 - 0.5)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[4], 0.5)

    def test_coverage_per_request(self):
        self.assertAlmostEqual(spans.coverage(self.spans)[0], 0.55)

    def test_union_length(self):
        self.assertAlmostEqual(spans.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]), 3.0)
        self.assertEqual(spans.union_length([]), 0.0)


class Checker(unittest.TestCase):
    refs = answers.load_refs()

    def response(self, name, **override):
        result = copy.deepcopy(self.refs[name]["answers"])
        result.update(override)
        return {"id": "r", "ok": True, "kind": "analyze", "degraded": False, "result": result}

    def test_references_cover_every_pool_item(self):
        for wl in workloads.WORKLOADS.values():
            self.assertEqual(answers.stale_items(wl.pool, self.refs), [])

    def test_reference_answers_pass(self):
        for name in self.refs:
            if "mean_bits_to_first_slip" not in self.refs[name]["answers"]:
                self.assertTrue(answers.check(self.refs[name]["answers"], self.response(name))[0], name)

    def test_perturbed_ber_is_rejected(self):
        ref = self.refs["analyze-nominal"]["answers"]
        ok, _, mismatch = answers.check(ref, self.response("analyze-nominal", ber=ref["ber"] * (1 + 1e-3)))
        self.assertFalse(ok)
        self.assertTrue(mismatch)
        ok, _, _ = answers.check(ref, self.response("analyze-nominal", ber=ref["ber"] * (1 + 1e-5)))
        self.assertTrue(ok)

    def test_perturbed_sweep_point_is_rejected(self):
        ref = self.refs["counter-sweep"]["answers"]
        points = copy.deepcopy(ref["points"])
        points[1]["ber"] *= 1.01
        self.assertFalse(answers.check(ref, self.response("counter-sweep", points=points))[0])

    def test_grid64_counter4_passage_flux_pair_is_rejected(self):
        # what cdr_serve answers for slip at grid 64, counter 4: first passage
        # stops ~1e13 bits while the flux mean is ~1.5e19
        ref = self.refs["slip-g64-k4"]["answers"]
        resp = self.response("slip-g64-k4", mean_bits_to_first_slip=21371024570809.44)
        ok, reasons, mismatch = answers.check(ref, resp)
        self.assertFalse(ok)
        self.assertFalse(mismatch)
        self.assertIn("first passage", reasons[0])

    def test_passage_gap_ignored_below_a_thousand_bits(self):
        ref = {"mean_bits_between_slips": 211.9}
        resp = {"ok": True, "result": {"mean_bits_between_slips": 211.9, "mean_bits_to_first_slip": 162.3}}
        self.assertTrue(answers.check(ref, resp)[0])

    def test_degraded_but_right_is_ok(self):
        resp = self.response("analyze-nominal")
        resp["degraded"] = True
        self.assertTrue(answers.check(self.refs["analyze-nominal"]["answers"], resp)[0])

    def test_errors_and_missing_answers_fail(self):
        ref = self.refs["analyze-nominal"]["answers"]
        self.assertFalse(answers.check(ref, None)[0])
        self.assertFalse(answers.check(ref, {"ok": False, "error": {"code": "timeout"}})[0])


class Compare(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_win(self):
        change = [x * 0.9 for x in self.parent]
        self.assertEqual(stats.compare_metric(self.parent, change, "lower", 0.1)["verdict"], "win")

    def test_eight_of_ten_is_no_win(self):
        change = [x * 0.9 for x in self.parent[:8]] + [x * 1.01 for x in self.parent[8:]]
        v = stats.compare_metric(self.parent, change, "lower", 0.1)
        self.assertEqual((v["wins"], v["verdict"]), (8, "within-bound"))

    def test_gap_within_parent_spread_is_no_win(self):
        parent = [80.0, 120.0] * 5
        change = [p - 1.0 for p in parent]
        self.assertNotEqual(stats.compare_metric(parent, change, "lower", 0.5)["verdict"], "win")

    def test_regression_beyond_bound(self):
        change = [x * 1.3 for x in self.parent]
        v = stats.compare_metric(self.parent, change, "lower", 0.1)
        self.assertEqual(v["verdict"], "regression")
        self.assertAlmostEqual(v["ratio"], 1.3)

    def test_higher_is_better_direction(self):
        change = [x * 0.7 for x in self.parent]
        self.assertEqual(stats.compare_metric(self.parent, change, "higher", 0.1)["verdict"], "regression")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        change = list(reversed(parent))
        self.assertEqual(stats.compare_metric(parent, change, "lower", 0.1)["verdict"], "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        parent = [150.0, 160.0, 170.0, 180.0, 155.0, 165.0, 175.0, 185.0, 150.0, 190.0]
        change = [10.0 + i for i in range(10)]
        self.assertEqual(stats.compare_metric(parent, change, "lower", 0.05)["verdict"], "win")

    def test_pairs_are_truncated_to_the_shorter_side(self):
        v = stats.compare_metric(self.parent, self.parent[:4], "lower", 0.1)
        self.assertEqual(v["pairs"], 4)
        self.assertEqual(v["verdict"], "within-bound")


class MetricNames(unittest.TestCase):
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")) as f:
        bench = json.load(f)

    def test_per_layer_metrics_match_benchmark_json(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["per_layer"]], [(n, u) for n, u, _ in spans.LAYERS]
        )

    def test_end_to_end_metrics_match_benchmark_json(self):
        expected = sorted((m["name"], m["unit"]) for m in self.bench["end_to_end"])
        for wl in workloads.WORKLOADS.values():
            records = []
            for i in range(30):
                it = wl.pool[i % len(wl.pool)]
                rate = wl.rates[i % len(wl.rates)] if wl.rates else None
                rec = served.Record(it, f"r{i}", it.request(f"r{i}"), float(i), rate)
                rec.sent, rec.received, rec.ok = float(i), i + 0.001 * (i + 1), True
                records.append(rec)
            metrics, _ = run.end_to_end(wl, records, 30.0, 0.0, [1.0, 2.0, 3.0], 100.0, 50.0, 0)
            self.assertEqual(sorted((k, u) for k, (_, u) in metrics.items()), expected, wl.name)
            self.assertTrue(all(v > 0 for v, _ in metrics.values()), wl.name)

    def test_result_line_holds_exactly_value_and_unit(self):
        metrics = {n: (1.5, u) for n, u, _ in spans.LAYERS}
        result = json.loads(json.dumps(run.result_line(True, 12, 5, metrics)))
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        for name, unit, _ in spans.LAYERS:
            self.assertEqual(result["metrics"][name], {"value": 1.5, "unit": unit})


if __name__ == "__main__":
    unittest.main()
