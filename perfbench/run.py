"""Repository benchmark: wall time from generated input to Tables I-VI,
and of HAC on a dense field of points.

    python3 perfbench/run.py --workload alltables_sf025 --seed 7 --seconds 1 --trace 0

Each run builds the program if its sources changed (perfbench/build.py),
starts one JVM with the settings of `spark-submit repro.jobs.AllTables`
(repro.jobs.JobUtil.session, local[k] with k = min(4, cores)) and times
units of work until --seconds have elapsed, at least one. The first unit of
a JVM is cold, as every spark-submit is. Every unit's output is checked
(perfbench/report.py); a unit that throws or fails a check counts in
`failed`.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer spans and
counts of a traced run. The last stdout line is the JSON result. Logs, the
harness JSON and the rendered tables (UTF-8) stay under .bench_build/runs.
The workloads, metrics and what each layer metric should move are listed
in perfbench/LAYERS.md.
"""
import argparse
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402
import report  # noqa: E402

# name: (what a unit is, scale factor of the AllTables input); see perfbench/LAYERS.md
WORKLOADS = {"alltables_sf025": ("all", 0.25), "hac_dense5k": ("hac", 0.25)}
# The hac workload's field: clumps of points scattered as MobySynth scatters
# hotspot locations (sigma 18 m, clamped to 3 sigma), with clump centres
# uniform over a square dense enough that the 100 m proximity graph
# percolates: on seed 7 all 5,000 points form one component.
DENSE = {"clumps": 1000, "per_clump": 5, "side_m": 2800.0, "sigma_m": 18.0}
CENTRE = (53.3498, -6.2603)  # Dublin
MAX_CORES = 4
HEAP = "3g"
RUN_TIMEOUT_S = 170   # the JVM's share of one run, build excluded

# the module opens the Spark launcher adds on Java 17 (as build.sbt)
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def dense_points(seed, clumps, per_clump, side_m, sigma_m):
    """(id, lat, lon) of the hac workload's field; the same seed gives the same points."""
    rnd = random.Random(seed)
    m_lat = math.pi * report.EARTH_RADIUS_M / 180
    m_lon = m_lat * math.cos(math.radians(CENTRE[0]))
    pts = []
    for c in range(clumps):
        cx, cy = rnd.uniform(-side_m / 2, side_m / 2), rnd.uniform(-side_m / 2, side_m / 2)
        if c == 0:
            # GraphX's connected components spread the least id, point 0, one
            # hop per superstep; with clump 0 anywhere, its hop distance to the
            # farthest point (the superstep count) swung 28-48 across seeds
            # 7-26 and with it the unit's time. At the centre it is steadier.
            cx = cy = 0.0
        for _ in range(per_clump):
            dx, dy = (max(-3 * sigma_m, min(3 * sigma_m, rnd.gauss(0, sigma_m))) for _ in "xy")
            pts.append((len(pts), CENTRE[0] + (cy + dy) / m_lat, CENTRE[1] + (cx + dx) / m_lon))
    return pts


def run_harness(classes, workload, seed, seconds, trace, points=None):
    runs = build.BUILD / "runs"
    tmp = build.BUILD / "tmp"
    runs.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(exist_ok=True)
    stem = runs / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    out = stem.with_suffix(".json")
    cmd = [build.java(), f"-Xmx{HEAP}", "-XX:-UsePerfData",
           "-Dfile.encoding=UTF-8", "-Dsun.stdout.encoding=UTF-8", "-Dsun.stderr.encoding=UTF-8",
           f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
           "-Dspark.driver.host=127.0.0.1", "-Djdk.reflect.useDirectMethodHandle=false",
           *OPENS, "-cp", build.classpath(classes), "perfbench.Harness",
           "--unit", WORKLOADS[workload][0], "--sf", str(WORKLOADS[workload][1]),
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    if points is not None:
        csv = stem.with_suffix(".points.csv")
        csv.write_text("".join(f"{i},{lat!r},{lon!r}\n" for i, lat, lon in points), encoding="utf-8")
        cmd += ["--points", str(csv)]
    env = dict(os.environ, SPARK_MASTER=f"local[{min(MAX_CORES, os.cpu_count() or 1)}]",
               SPARK_LOCAL_DIRS=str(tmp))
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)  # JobUtil's default, as spark-submit users get
    with open(stem.with_suffix(".log"), "wb") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                              cwd=build.ROOT, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"harness exited with {proc.returncode}; see {stem.with_suffix('.log')}")
    return json.loads(out.read_text(encoding="utf-8")), out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    try:
        classes = build.ensure_built()
        points = dense_points(a.seed, **DENSE) if WORKLOADS[a.workload][0] == "hac" else None
        result, out = run_harness(classes, a.workload, a.seed, a.seconds, a.trace, points)
        metrics = report.per_layer(result) if a.trace else report.end_to_end(result)
    except (build.BuildError, RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    failures = report.check_units(result, points)
    walls = report.summary([u["wall_s"] for u in result["units"]])
    print(f"config: {json.dumps(result['config'])}")
    print(f"units: {walls['n']}, wall s median {walls['median']:.3f} "
          f"(q1 {walls['q1']:.3f}, q3 {walls['q3']:.3f})")
    print(f"output digest: {sorted({u.get('digest', '-') for u in result['units']})}")
    print(f"harness output: {out.relative_to(build.ROOT)}")
    for i, bad in enumerate(failures):
        for b in bad:
            print(f"unit {i}: FAILED {b}")
    failed = sum(1 for bad in failures if bad)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
