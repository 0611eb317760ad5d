#!/usr/bin/env python3
"""CPA consensus benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload replicas-local --seed 42 --seconds 20 --trace 0

The first run compiles the program's sources together with the harness in
perfbench/src (sbt, offline) into perfbench/target and caches the class path
in .bench_build/; later runs start the JVM directly. Every other file the run
writes goes under .bench_build/ too. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src", "main")]
BUILD_FILES = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
# A fixed, pre-touched heap and the throughput collector: first-touch page
# faults of a growing heap otherwise slow the first half minute of a run.
HEAP = "2g"
JVM_FLAGS = [f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC",
             "-XX:-UsePerfData"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def module_opens():
    """JDK 17 module opens that spark-submit normally injects; Kryo needs them.
    build.sbt reads the same file for the self-tests."""
    with open(os.path.join(BENCH, "module-opens.txt")) as fh:
        return [ln.strip() for ln in fh if ln.strip()]


def source_stamp():
    """Hash of every file the build reads from the checkout."""
    h = hashlib.sha256()
    files = list(BUILD_FILES)
    for top in SOURCES:
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile with sbt unless the cached class path matches the sources."""
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    stamp = source_stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as cp:
                    return cp.read()
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true "
                   f"-Dsbt.repository.config={os.path.expanduser('~/.sbt/repositories')}")
    log = os.path.join(BUILD, "build.log")
    print(f"perfbench: compiling, log in {os.path.relpath(log, ROOT)}", file=sys.stderr)
    try:
        out = subprocess.run(
            [sbt, "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            cwd=BENCH, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    with open(log, "w") as fh:
        fh.write(out.stdout)
    lines = [ln for ln in out.stdout.splitlines() if ln.strip()]
    if out.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail("build failed")
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp


def main():
    ap = argparse.ArgumentParser(description="CPA consensus benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    if not os.path.isdir(SOURCES[0]):
        fail(f"no program sources at {os.path.relpath(SOURCES[0], ROOT)}; "
             "run from a checkout of the repository")
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    cp = build()

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java] + JVM_FLAGS + [
           f"-Djava.io.tmpdir={os.path.join(BUILD, 'tmp')}",
           f"-Dspark.local.dir={os.path.join(BUILD, 'spark-local')}",
           f"-Dspark.sql.warehouse.dir={os.path.join(BUILD, 'spark-warehouse')}",
           "-Dspark.driver.host=127.0.0.1"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in module_opens()]
    cmd += ["-cp", cp, "repro.perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace]
    proc = subprocess.Popen(cmd, cwd=BUILD, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
