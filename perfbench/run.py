#!/usr/bin/env python3
"""QueryER benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sp-dsd|spj-oagp|li-oagp \
        [--seed N] [--seconds S] [--trace 0|1]

Compiles the harness and the repository's sources into `.bench_build/`
(see build.py; skipped when nothing changed since the last build), then
runs one benchmark JVM. Every metric is printed by name with its unit; the
last stdout line is the JSON result. Exits with 1 if a statement fails its
answer check, or at seed 0 its baseline counts, and with 2 if the build
fails or the run does not end in time.
"""
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import build  # noqa: E402

START = time.monotonic()
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(OUT, "tmp")
# Wall-time limits of one invocation, build included: a run that compiles
# may take 900 s, any other run 180 s. The JVM is stopped this long before.
RUN_LIMIT_S = 180
BUILD_RUN_LIMIT_S = 900
MARGIN_S = 8
BUILD_TIMEOUT_S = 600

# Module opens Spark 4 needs on JDK 17 outside its launcher scripts.
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    # a stopped run stops its JVM too (see the handler in the wait below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        fail("run from the root of a QueryER checkout (build.sbt and src/main/scala not found)")
    os.makedirs(TMP, exist_ok=True)
    try:
        cp, compiled = build.build(ROOT, OUT, BUILD_TIMEOUT_S)
    except build.BuildError as e:
        fail(f"build: {e}")
    limit = (BUILD_RUN_LIMIT_S if compiled else RUN_LIMIT_S) - MARGIN_S
    cmd = (["java", "-Xmx3g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={TMP}"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, "perfbench.Bench"] + sys.argv[1:]
           + ["--out", OUT, "--commit", commit()])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, limit - (time.monotonic() - START)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark did not finish within {limit} s of the start")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
