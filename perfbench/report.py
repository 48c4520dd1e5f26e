"""Summaries and output checks over one harness result (the JSON the JVM
writes). Kept free of Spark so perfbench/test_report.py can test them.
"""
import math
import statistics
from collections import defaultdict

# Spans of one unit, in call order. The last three run once per temporal
# graph and are summed over the unit's calls.
UNIT_SPANS = ("data.generate", "data.clean", "data.report",
              "core.candidate_build", "core.select", "core.redirect",
              "core.candidate_stats", "core.selected_stats",
              "core.temporal_edges", "community.louvain", "core.summarize")
REPEATED_SPANS = ("core.temporal_edges", "community.louvain", "core.summarize")
# Standalone calls on the unit's inputs, not part of the unit.
PROBES = ("core.nearest_station", "cluster.pairs", "cluster.hac")
# Spans that run on the driver alone and start no Spark job, and spans
# whose jobs never shuffle.
DRIVER_ONLY = ("community.louvain",)
NO_SHUFFLE = ("core.redirect", "core.nearest_station.probe")
EARTH_RADIUS_M = 6371008.8  # repro.geo.Haversine.EarthRadiusM
CENTROID_SEP_M = 50.0        # Pipeline.Config.centroidSepM, the paper's Rule 2
COUNTS = ("cluster.pairs.rows", "cluster.largest_component", "cluster.hac.clusters",
          "core.select.degree_pass", "core.select.selected", "community.louvain.levels")


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles gives them; one value is its own quartiles."""
    xs = sorted(xs)
    if not xs:
        raise ValueError("no samples")
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def summary(xs):
    q1, med, q3 = quartiles(xs)
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def check_tables(t, expected):
    """Failures (strings) of one unit's Tables I-VI; empty when all checks hold."""
    bad = []

    def eq(what, got, want):
        if got != want:
            bad.append(f"{what}: {got} != {want}")

    one, two, three = t["I"], t["II"], t["III"]
    eq("I clean stations", one["clean_stations"], expected["good_stations"])
    eq("I clean rentals", one["clean_rentals"], expected["good_rentals"])
    eq("I clean locations", one["clean_locations"], expected["good_locations"])
    trips = one["clean_rentals"]
    eq("II trips", two["trips"], trips)
    eq("II nodes", two["nodes"], two["station_nodes"] + two["candidate_nodes"])
    eq("III trips", three["total_trips"], trips)
    pre, sel = three["pre"], three["selected"]
    eq("III trips from", pre["trips_from"] + sel["trips_from"], trips)
    eq("III trips to", pre["trips_to"] + sel["trips_to"], trips)
    eq("III stations", pre["stations"] + sel["stations"], three["total_stations"])
    for c in t["communities"]:
        g, rows = c["graph"], c["rows"]
        # row: id, old, new, total stations, within, out, in
        eq(f"{g} trips leaving", sum(r[4] + r[5] for r in rows), trips)
        eq(f"{g} trips arriving", sum(r[4] + r[6] for r in rows), trips)
        eq(f"{g} stations", sum(r[3] for r in rows), three["total_stations"])
        eq(f"{g} old stations", sum(r[1] for r in rows), pre["stations"])
        eq(f"{g} new stations", sum(r[2] for r in rows), sel["stations"])
        for r in rows:
            eq(f"{g} community {r[0]} size", r[1] + r[2], r[3])
    return bad


def haversine_m(lat1, lon1, lat2, lon2):
    """repro.geo.Haversine.metres."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (math.sin(math.radians(lat2 - lat1) / 2) ** 2 +
         math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(min(1.0, a)))


def check_hac(hac, points, min_sep_m=CENTROID_SEP_M):
    """Failures of one HAC.cluster result on `points` [(id, lat, lon)]:
    every point in exactly one cluster, each cluster named after its least
    member, each centroid the mean of its members, and (Rule 2) no two
    centroids closer than `min_sep_m`."""
    bad = []
    by_id = {i: (lat, lon) for i, lat, lon in points}
    ids = [i for i, _ in hac["assignment"]]
    if sorted(ids) != sorted(by_id):
        bad.append(f"assignment has {len(ids)} rows, {len(set(ids))} distinct ids, "
                   f"for {len(by_id)} points")
    members = defaultdict(list)
    for i, c in hac["assignment"]:
        if i in by_id:
            members[c].append(i)
    cents = {c: (lat, lon, n) for c, lat, lon, n in hac["centroids"]}
    if len(cents) != len(hac["centroids"]) or set(cents) != set(members):
        bad.append(f"{len(members)} clusters assigned, {len(hac['centroids'])} centroids")
    for c, ms in members.items():
        if c != min(ms):
            bad.append(f"cluster {c} has least member {min(ms)}")
        if c in cents:
            lat, lon, n = cents[c]
            mlat = sum(by_id[i][0] for i in ms) / len(ms)
            mlon = sum(by_id[i][1] for i in ms) / len(ms)
            if n != len(ms) or abs(lat - mlat) > 1e-9 or abs(lon - mlon) > 1e-9:
                bad.append(f"cluster {c}: centroid ({lat}, {lon}, {n}) != member mean "
                           f"({mlat}, {mlon}, {len(ms)})")
    # Rule 2 on a grid of cells twice min_sep_m wide: a close pair lies in one
    # cell or two neighbouring ones, whatever the latitude within a city
    cell = 2 * min_sep_m
    m_lat = math.pi * EARTH_RADIUS_M / 180
    m_lon = m_lat * math.cos(math.radians(next(iter(cents.values()))[0])) if cents else m_lat
    grid = defaultdict(list)
    for c, (lat, lon, _) in cents.items():
        grid[(math.floor(lat * m_lat / cell), math.floor(lon * m_lon / cell))].append(c)
    for (gx, gy), cs in grid.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for a in cs:
                    for b in grid.get((gx + dx, gy + dy), ()):
                        d = haversine_m(cents[a][0], cents[a][1], cents[b][0], cents[b][1])
                        if a < b and d < min_sep_m - 1e-6:
                            bad.append(f"centroids {a} and {b} are {d:.3f} m apart")
    return bad


def check_units(result, points=None):
    """Per-unit failure lists: a unit fails if it threw, if a check of its
    tables (or, on the hac workload, of its clusters of `points`) fails, or
    if its digest differs from the first unit's."""
    first = next((u["digest"] for u in result["units"] if "digest" in u), None)
    out = []
    for u in result["units"]:
        if "error" in u:
            out.append([u["error"]])
            continue
        if "hac" in u:
            bad = check_hac(u["hac"], points)
        else:
            bad = check_tables(u["tables"], result["expected"])
        if u["digest"] != first:
            bad.append(f"digest {u['digest'][:12]} != first unit's {first[:12]}")
        out.append(bad)
    return out


def end_to_end(result):
    units = result["units"]
    return {
        "total_s": (statistics.median(u["wall_s"] for u in units), "s"),
        "cpu_s": (statistics.median(u["cpu_s"] for u in units), "s"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
    }


def _span_metrics(name, spans, repeated):
    """Median over units of one span's fields; absent spans count as zero."""
    def med(field):
        return statistics.median(s.get(field, 0) for s in spans)
    m = {f"{name}.wall_ms": (med("wall_ms"), "ms")}
    if name not in DRIVER_ONLY:
        m[f"{name}.jobs"] = (med("jobs"), "count")
        m[f"{name}.task_cpu_ms"] = (med("task_cpu_ms"), "ms")
    if name not in DRIVER_ONLY + NO_SHUFFLE:
        m[f"{name}.shuffle_mb"] = (med("shuffle_mb"), "MB")
    if repeated:
        m[f"{name}.calls"] = (med("calls"), "count")
    return m


def span_sum_ms(unit):
    """Wall time covered by the unit's spans; probes are not unit spans."""
    return sum(s["wall_ms"] for s in unit["spans"] if s["name"] in UNIT_SPANS)


def per_layer(result):
    units = [u for u in result["units"] if "spans" in u]
    m = {}
    for name in UNIT_SPANS:
        spans = [next((s for s in u["spans"] if s["name"] == name), {}) for u in units]
        m.update(_span_metrics(name, spans, name in REPEATED_SPANS))
    for name in PROBES:
        probe = next(s for s in result["probes"] if s["name"] == name)
        m.update(_span_metrics(f"{name}.probe", [probe], False))
    for name in COUNTS:
        m[name] = (result["counts"][name], "count")
    m["spark.jobs"] = (statistics.median(u["spark"]["jobs"] for u in units), "count")
    m["spark.tasks"] = (statistics.median(u["spark"]["tasks"] for u in units), "count")
    m["spark.shuffle_mb"] = (statistics.median(u["spark"]["shuffle_mb"] for u in units), "MB")
    m["jvm.gc_ms"] = (statistics.median(u["gc_ms"] for u in units), "ms")
    m["jvm.peak_heap_mb"] = (max(u["peak_heap_mb"] for u in units), "MB")
    m["trace.total_s"] = (statistics.median(u["wall_s"] for u in units), "s")
    m["trace.span_sum_s"] = (statistics.median(span_sum_ms(u) for u in units) / 1000, "s")
    return m
