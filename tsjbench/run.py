#!/usr/bin/env python3
"""Runs one workload of the TSJ benchmark and prints its result.

Usage, from the root of the repository:

    python3 tsjbench/run.py --workload tsj-default --seed 7 --seconds 15 --trace 0

Workloads: tsj-default, tsj-wide, nsld-score (see tsjbench/README.md).
The first run in a checkout compiles the harness together with the program
under test with sbt (again whenever a source file changes); every run then
starts one measurement JVM. The JVM's report lines go to standard output and
the last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Build and run state stays in tsjbench/out/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CLASSPATH = OUT / "classpath.txt"

WORKLOADS = ("tsj-default", "tsj-wide", "nsld-score")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Spark on JDK 17 needs the module opens spark-submit would add.
JVM_OPTS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
    "-Dspark.driver.host=127.0.0.1",
    "-Dspark.ui.enabled=false",
    # A fixed heap: a growing one makes the first timed joins pay for resizing.
    "-Xms3g",
    "-Xmx3g",
]


def fail(code, msg):
    print(f"tsjbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads from the checkout."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", ROOT / "jobs", HERE / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def fingerprint():
    h = hashlib.sha256()
    for p in source_files():
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Runs `cmd` in its own process group and waits for it. The whole group
    is killed on timeout, when this script is terminated, and at the end
    (stray children, if any).
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(signum, _):
        kill_group()
        proc.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, on_signal) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        proc.communicate()
        raise
    finally:
        kill_group()
        for s, h in old.items():
            signal.signal(s, h)
    return proc.returncode, out, err


def build():
    """Compiles harness and program; returns the runtime classpath."""
    fp = fingerprint()
    if CLASSPATH.is_file():
        stamp, _, cp = CLASSPATH.read_text().partition("\n")
        if stamp == fp and cp.strip():
            return cp.strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "-Dsbt.offline" not in env.get("SBT_OPTS", ""):
        env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true").strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           "compile", "export Runtime/fullClasspath"]
    t = time.time()
    try:
        code, out, _ = run_group(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(3, f"build failed: {e}")
    sys.stderr.write(out)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "classes" not in lines[-1]:
        fail(3, f"build failed (exit {code})")
    OUT.mkdir(parents=True, exist_ok=True)
    CLASSPATH.write_text(fp + "\n" + lines[-1].strip() + "\n")
    print(f"tsjbench: built in {time.time() - t:.1f} s", file=sys.stderr)
    return lines[-1].strip()


def check_result(line):
    r = json.loads(line)
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(r)}")
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, m in r["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError(f"bad metric {name}: {m}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(2, f"no program sources next to {HERE.name}/: run from a full checkout")
    cp = build()

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["SPARK_MASTER"] = f"local[{len(os.sched_getaffinity(0))}]"
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)  # keep the session's own default
    env["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    java = str(Path(env["JAVA_HOME"]) / "bin" / "java") if env.get("JAVA_HOME") else "java"
    cmd = [java, *JVM_OPTS, f"-Djava.io.tmpdir={OUT / 'tmp'}", "-cp", cp, "repro.perf.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", str(OUT)]
    try:
        code, out, _ = run_group(cmd, RUN_TIMEOUT_S, cwd=OUT, env=env, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(4, f"run failed: {e}")
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        if code != 0 or not lines:
            raise ValueError(f"exit code {code}")
        check_result(lines[-1])
    except ValueError as e:
        sys.stderr.write(out)
        fail(4, f"no valid result: {e}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
