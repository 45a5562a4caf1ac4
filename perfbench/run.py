#!/usr/bin/env python3
"""Build and run the PathEnum query benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run compiles the repository's main sources and the benchmark with
sbt (offline) into perfbench/target; later runs reuse that build while the
sources are unchanged. The program runs in one JVM on a local[4] Spark
session. Everything it writes stays under perfbench/target. The last line of
standard output is the JSON result; build output goes to standard error.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TARGET = BENCH / "target"
TMP = TARGET / "tmp"
WORKLOADS = ("ep-dense-k6", "gg-bc-k6", "up-sparse-k6", "gg-table3-k6")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Module opens that spark-submit passes to a Java 17 driver.
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]
# Repository sources the benchmark compiles, besides its own.
REPO_SOURCES = [ROOT / "src" / "main" / "scala",
                ROOT / "src" / "test" / "scala" / "repro" / "RefGraph.scala"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    inputs = REPO_SOURCES + [BENCH / "build.sbt", BENCH / "project" / "build.properties",
                             BENCH / "src" / "main"]
    for top in inputs:
        files = sorted(top.rglob("*")) if top.is_dir() else [top]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["COURSIER_MODE"] = "offline"
    # The sbt launcher resolves sbt itself through the user's repository
    # config; without it an offline launcher cannot fill a fresh boot dir.
    repos = Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.exists():
        env["SBT_OPTS"] = f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    if "SPARK_HOME" not in env:
        # A Spark binary distribution on PATH: bin/spark-submit beside jars/.
        for d in env.get("PATH", "").split(os.pathsep):
            if (Path(d) / "spark-submit").exists() and (Path(d).parent / "jars").is_dir():
                env["SPARK_HOME"] = str(Path(d).parent)
                break
    return env


def build():
    stamp_file = TARGET / "build.stamp"
    classpath = TARGET / "classpath.txt"
    stamp = source_stamp()
    if classpath.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return classpath.read_text().strip()
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true",
           f"-Dsbt.global.base={TARGET / 'sbt-global'}", f"-Djava.io.tmpdir={TMP}", "stage"]
    done = subprocess.run(cmd, cwd=BENCH, env=child_env(), stdout=sys.stderr,
                          stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0 or not classpath.exists():
        fail(f"build failed (sbt exit {done.returncode})")
    stamp_file.write_text(stamp)
    return classpath.read_text().strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    missing = [str(p.relative_to(ROOT)) for p in REPO_SOURCES if not p.exists()]
    if missing:
        fail(f"repository sources not found: {', '.join(missing)}")
    TMP.mkdir(parents=True, exist_ok=True)
    cp = build()
    cmd = (["java"] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS] +
           ["-Xmx3g", f"-Djava.io.tmpdir={TMP}", "-cp", cp, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--fingerprints", str(BENCH / "fingerprints.txt"), "--out", str(TARGET / "out")])
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
