"""Build file of the benchmark: compiles the repository's main sources, the
spark-submit jobs and the benchmark harness with the Scala compiler that
ships with the Spark distribution (the same jars the program runs on).

    python3 perfbench/build.py        # prints the classes directory

The output goes to .bench_build/classes-<hash> under the repository root;
the hash covers every compiled source, so an unchanged tree is not rebuilt.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SOURCE_DIRS = ("src/main/scala", "jobs", "perfbench/src")
RESOURCES = ROOT / "perfbench" / "resources"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    jars = Path(os.environ.get("SPARK_HOME", "/opt/spark")) / "jars"
    if not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"no Spark distribution with a Scala compiler at {jars}; set SPARK_HOME")
    return jars


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def sources() -> list:
    missing = [d for d in SOURCE_DIRS if not (ROOT / d).is_dir()]
    if missing:
        raise BuildError(f"source directories missing under {ROOT}: {', '.join(missing)}")
    return sorted(p for d in SOURCE_DIRS for p in (ROOT / d).rglob("*.scala"))


def ensure_built(timeout_s: float = 600) -> Path:
    """Return the classes directory for the current sources, compiling if needed."""
    srcs = sources()
    jars = spark_jars()
    h = hashlib.sha256()
    for p in srcs + [Path(__file__)]:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    h.update(" ".join(sorted(j.name for j in jars.glob("scala-*.jar"))).encode())
    out = BUILD / f"classes-{h.hexdigest()[:16]}"
    if out.is_dir():
        return out
    BUILD.mkdir(exist_ok=True)
    tmp = BUILD / f"compiling-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", f"{jars}/*", "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
           "-d", str(tmp)] + [str(p) for p in srcs]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout_s)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("scalac failed:\n" + proc.stdout.decode("utf-8", "replace")[-4000:])
    for old in BUILD.glob("classes-*"):
        shutil.rmtree(old, ignore_errors=True)
    tmp.rename(out)
    return out


def classpath(classes: Path) -> str:
    return os.pathsep.join([str(classes), str(RESOURCES), f"{spark_jars()}/*"])


if __name__ == "__main__":
    try:
        print(ensure_built())
    except BuildError as e:
        sys.exit(f"build failed: {e}")
