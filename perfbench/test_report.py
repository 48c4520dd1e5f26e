"""Tests of the benchmark's own logic: summaries, span sums, output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import copy
import math
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import report  # noqa: E402

EXPECTED = {"good_stations": 2, "good_rentals": 10, "good_locations": 5}


def tables():
    """Tables I-VI of a consistent 10-trip, 3-station toy run."""
    def grp(st, tf, tt):
        return {"stations": st, "trips_from": tf, "trips_to": tt, "edges_from": 1, "edges_to": 1}
    rows = [[1, 1, 1, 2, 5, 2, 3], [2, 1, 0, 1, 1, 2, 1]]
    return {
        "I": {"orig_stations": 3, "clean_stations": 2, "orig_rentals": 12, "clean_rentals": 10,
              "orig_locations": 6, "clean_locations": 5},
        "II": {"nodes": 4, "station_nodes": 2, "candidate_nodes": 2, "undirected": 3,
               "undirected_no_loops": 2, "directed": 4, "directed_no_loops": 3, "trips": 10},
        "III": {"pre": grp(2, 7, 6), "selected": grp(1, 3, 4), "total_stations": 3,
                "total_trips": 10, "total_edges": 4},
        "communities": [{"graph": g, "modularity": 0.3, "rows": copy.deepcopy(rows)}
                        for g in ("T_Null", "T_Day", "T_Hour")],
    }


# Five points: a pair, a triple 0.001 degrees (about 67 m) east, 111 m apart.
POINTS = [(0, 53.35, -6.26), (1, 53.3501, -6.26), (2, 53.35, -6.259),
          (3, 53.3501, -6.259), (4, 53.3502, -6.259)]


def hac():
    """A consistent HAC.cluster result on POINTS."""
    return {"assignment": [[0, 0], [1, 0], [2, 2], [3, 2], [4, 2]],
            "centroids": [[0, 53.35005, -6.26, 2], [2, 53.3501, -6.259, 3]]}


def span(name, wall_ms, calls=1):
    return {"name": name, "calls": calls, "wall_ms": wall_ms, "jobs": 2, "tasks": 8,
            "task_cpu_ms": wall_ms / 2, "shuffle_mb": 0.5}


def traced_result(unit_walls):
    units = []
    for w in unit_walls:
        spans = [span(n, w, 3 if n in report.REPEATED_SPANS else 1) for n in report.UNIT_SPANS]
        units.append({"wall_s": len(spans) * w / 1000 + 0.01, "cpu_s": 1.0, "gc_ms": 5,
                      "peak_heap_mb": 100.0 + w, "spans": spans,
                      "spark": {"jobs": 20, "tasks": 80, "shuffle_mb": 5.0}})
    return {"units": units, "setup_s": [0.3, 0.1, 0.2],
            "probes": [span(n, 1000.0) for n in report.PROBES],
            "counts": {n: 7 for n in report.COUNTS}}


class SummaryTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(report.quartiles(xs), tuple(statistics.quantiles(sorted(xs), n=4)))
        self.assertEqual(report.quartiles(xs)[1], 3.0)

    def test_one_sample_is_its_own_quartiles(self):
        self.assertEqual(report.summary([2.5]), {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1})

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            report.quartiles([])

    def test_end_to_end_takes_medians(self):
        r = {"setup_s": [3.0, 0.1, 0.2, 0.4, 0.3],
             "units": [{"wall_s": w, "cpu_s": 2 * w} for w in (10.0, 8.0, 9.0)]}
        self.assertEqual(report.end_to_end(r), {
            "total_s": (9.0, "s"), "cpu_s": (18.0, "s"), "setup_s": (0.3, "s")})


class SpanTest(unittest.TestCase):
    def test_span_sum_excludes_probes(self):
        r = traced_result([100.0])
        unit = r["units"][0]
        unit["spans"].append(span("cluster.hac", 5000.0))  # a probe name never counts
        self.assertAlmostEqual(report.span_sum_ms(unit), 100.0 * len(report.UNIT_SPANS))

    def test_per_layer_reports_probes_apart_from_the_unit(self):
        m = report.per_layer(traced_result([100.0, 300.0, 200.0]))
        self.assertAlmostEqual(m["trace.span_sum_s"][0], 0.2 * len(report.UNIT_SPANS))
        self.assertEqual(m["cluster.hac.probe.wall_ms"], (1000.0, "ms"))
        self.assertEqual(m["core.temporal_edges.wall_ms"], (200.0, "ms"))
        self.assertEqual(m["core.temporal_edges.calls"], (3, "count"))
        self.assertNotIn("community.louvain.jobs", m)
        self.assertEqual(m["jvm.peak_heap_mb"], (400.0, "MB"))
        for n in report.COUNTS:
            self.assertEqual(m[n], (7, "count"))

    def test_missing_span_counts_as_zero(self):
        r = traced_result([100.0, 100.0, 100.0])
        for u in r["units"][:2]:
            u["spans"] = [s for s in u["spans"] if s["name"] != "core.select"]
        self.assertEqual(report.per_layer(r)["core.select.wall_ms"], (0, "ms"))


class CheckTest(unittest.TestCase):
    def test_consistent_tables_pass(self):
        self.assertEqual(report.check_tables(tables(), EXPECTED), [])

    def test_tampered_tables_fail(self):
        tampers = {
            "Table I count": lambda t: t["I"].update(clean_rentals=11),
            "Table II trips": lambda t: t["II"].update(trips=9),
            "Table III trips": lambda t: t["III"]["selected"].update(trips_from=4),
            "Table III stations": lambda t: t["III"].update(total_stations=4),
            "community trips": lambda t: t["communities"][2]["rows"][0].__setitem__(4, 6),
            "community stations": lambda t: t["communities"][1]["rows"][1].__setitem__(1, 2),
        }
        for what, tamper in tampers.items():
            t = tables()
            tamper(t)
            self.assertNotEqual(report.check_tables(t, EXPECTED), [], what)

    def test_consistent_clusters_pass(self):
        self.assertEqual(report.check_hac(hac(), POINTS), [])

    def test_tampered_clusters_fail(self):
        def rename_triple(h):
            for a in h["assignment"][2:]:
                a[1] = 3
            h["centroids"][1][0] = 3
        tampers = {
            "point unassigned": lambda h: h["assignment"].pop(),
            "point assigned twice": lambda h: h["assignment"].append([4, 0]),
            "cluster not named after its least member": rename_triple,
            "stale cluster id": lambda h: h["assignment"][4].__setitem__(1, 4),
            "centroid off the member mean": lambda h: h["centroids"][0].__setitem__(1, 53.3502),
            "wrong point count": lambda h: h["centroids"][1].__setitem__(3, 2),
        }
        for what, tamper in tampers.items():
            h = hac()
            tamper(h)
            self.assertNotEqual(report.check_hac(h, POINTS), [], what)

    def test_centroids_closer_than_rule_2_fail(self):
        pts = [(0, 53.35, -6.26), (1, 53.35027, -6.26)]  # 30 m apart
        apart = {"assignment": [[0, 0], [1, 1]],
                 "centroids": [[0, 53.35, -6.26, 1], [1, 53.35027, -6.26, 1]]}
        bad = report.check_hac(apart, pts)
        self.assertEqual(len(bad), 1)
        self.assertIn("centroids 0 and 1", bad[0])
        self.assertEqual(report.check_hac(apart, pts, min_sep_m=25.0), [])

    def test_haversine_matches_a_degree_of_latitude(self):
        self.assertAlmostEqual(report.haversine_m(53.0, -6.0, 54.0, -6.0),
                               math.pi * report.EARTH_RADIUS_M / 180, places=6)

    def test_units_fail_on_error_check_or_digest(self):
        good = {"digest": "a" * 64, "tables": tables()}
        bad_table = {"digest": "a" * 64, "tables": tables()}
        bad_table["tables"]["III"]["total_trips"] = 9
        result = {"expected": EXPECTED, "units": [
            good, dict(good), {"digest": "b" * 64, "tables": tables()}, bad_table,
            {"error": "java.lang.OutOfMemoryError"}]}
        failed = [bool(f) for f in report.check_units(result)]
        self.assertEqual(failed, [False, False, True, True, True])

    def test_hac_units_are_checked_against_their_points(self):
        stale = hac()
        stale["assignment"][4][1] = 4
        result = {"expected": EXPECTED, "units": [
            {"digest": "c" * 64, "hac": hac()}, {"digest": "c" * 64, "hac": stale}]}
        self.assertEqual([bool(f) for f in report.check_units(result, POINTS)], [False, True])


if __name__ == "__main__":
    unittest.main()
