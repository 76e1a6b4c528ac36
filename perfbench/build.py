"""Build file of the benchmark: compiles the repository's sources and the
harness with the Scala compiler that ships in the Spark distribution.

The repository compiles against the jars of a Spark binary distribution
(`sparkJars` in the root build.sbt), and that distribution also holds the
matching scala-compiler jar. Calling the compiler directly needs no sbt, no
dependency resolution and no state outside the checkout.

    python3 perfbench/build.py      # from the root of a checkout

prints the runtime classpath. `run.py` calls `build()` itself.
"""
import hashlib
import os
import re
import shutil
import subprocess
import sys

# source roots of the repository's main build, and the harness
SOURCE_ROOTS = ["src/main/scala", "jobs", "perfbench/src/main/scala"]
RESOURCES = "src/main/resources"


class BuildError(Exception):
    pass


def spark_jars(root):
    """The `jars` directory of the Spark distribution: the one the root
    build names (`val sparkJars = file("...")`), else $SPARK_HOME/jars,
    else the one beside `spark-submit` on the PATH."""
    with open(os.path.join(root, "build.sbt")) as fh:
        named = re.search(r'val\s+sparkJars\s*=\s*file\("([^"]+)"\)', fh.read())
    if named and os.path.isdir(named.group(1)):
        return named.group(1)
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else ""
    if not os.path.isdir(jars):
        raise BuildError("Spark distribution not found (set SPARK_HOME or put spark-submit on PATH)")
    return jars


def sources(root):
    files = []
    for r in SOURCE_ROOTS:
        for d, _, names in os.walk(os.path.join(root, r)):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def build(root, out, timeout_s):
    """Compile into `out/classes` unless nothing changed since the last
    build. Returns (runtime classpath, whether it compiled)."""
    jars = spark_jars(root)
    jar_files = sorted(os.path.join(jars, n) for n in os.listdir(jars) if n.endswith(".jar"))
    srcs = sources(root)
    classes = os.path.join(out, "classes")
    cp = os.pathsep.join([classes, os.path.join(root, RESOURCES), os.path.join(jars, "*")])

    digest = hashlib.sha256()
    for item in [root] + jar_files:
        digest.update(item.encode() + b"\0")
    for f in srcs:
        digest.update(os.path.relpath(f, root).encode() + b"\0")
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = digest.hexdigest()
    stamp_file = os.path.join(out, "build.stamp")
    if os.path.isdir(classes) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                return cp, False

    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    if os.path.exists(stamp_file):
        os.remove(stamp_file)
    args_file = os.path.join(out, "scalac.args")
    with open(args_file, "w") as fh:
        fh.write("-classpath\n" + os.pathsep.join(jar_files) + "\n-d\n" + classes + "\n")
        fh.write("\n".join(srcs) + "\n")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main", "@" + args_file]
    try:
        res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             stdin=subprocess.DEVNULL, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise BuildError(f"compiling took longer than {timeout_s} s")
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        raise BuildError("compilation failed")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp, True


if __name__ == "__main__":
    root = os.getcwd()
    try:
        print(build(root, os.path.join(root, ".bench_build", "perfbench"), 600)[0])
    except BuildError as e:
        print(f"perfbench build: {e}", file=sys.stderr)
        sys.exit(2)
