#!/usr/bin/env python3
"""InQuest benchmark: builds the program and runs one workload.

    python3 perfbench/run.py --workload <mc-sweep|long-stream|spark-engine>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run builds the program and
the benchmark with sbt (offline) into perfbench/.build and
perfbench/target, and rebuilds whenever a source file changes; the
traced run's probes (perfbench/trace) are built only for --trace 1. Every run
prints its samples with medians and sample counts, writes its report to
perfbench/out/BENCH_<workload>_seed<n>[_trace].json, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (setup_s, op_s,
segment_ms); with --trace 1 they are the per-layer ones.

    python3 perfbench/run.py --record-digests --workload <w> --seed <n>

prints the reference-digest lines for one seed instead (see
src/main/resources/repro/perfbench/reference-digests.tsv).
"""
import argparse
import glob
import hashlib
import os
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("mc-sweep", "long-stream", "spark-engine")

# A run ends within RUN_LIMIT seconds, or BUILD_LIMIT when it also builds.
RUN_LIMIT = 175
BUILD_LIMIT = 880

# Spark's standard module opens for JDK 17, as in the root build.
OPENS = [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    pats = [os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "project", "*.properties"),
            os.path.join(ROOT, "project", "*.sbt"), os.path.join(ROOT, "src", "main", "**", "*"),
            os.path.join(ROOT, "jobs", "**", "*"), os.path.join(HERE, "build.sbt"),
            os.path.join(HERE, "project", "*.properties"), os.path.join(HERE, "src", "**", "*"),
            os.path.join(HERE, "trace", "src", "**", "*")]
    files = set()
    for p in pats:
        files.update(f for f in glob.glob(p, recursive=True) if os.path.isfile(f))
    return sorted(files)


def fingerprint():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, deadline, **kw):
    """Runs cmd in its own process group and waits for it; kills the group
    at the deadline, or when this script is interrupted or terminated."""
    proc = subprocess.Popen(cmd, start_new_session=True, stdin=subprocess.DEVNULL, **kw)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc, proc.wait(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return proc, None
    finally:
        for s, h in old.items():
            signal.signal(s, h)


def build(deadline, traced):
    """Compiles the program and the benchmark (with the traced run's
    probes when traced) unless already built from the same sources;
    returns (run classpath, whether it built)."""
    stamp = os.path.join(BUILD, "classpath-trace.txt" if traced else "classpath.txt")
    project = "trace/" if traced else ""
    fp = fingerprint()
    if os.path.exists(stamp):
        with open(stamp) as fh:
            lines = fh.read().splitlines()
        if len(lines) == 2 and lines[0] == fp:
            return lines[1], False
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["SBT_OPTS"] = opts.strip() + " -XX:-UsePerfData -Djava.io.tmpdir=" + tmp
    log_path = os.path.join(BUILD, "build.log")
    print("perfbench: building (log: %s)" % os.path.relpath(log_path, ROOT), flush=True)
    with open(log_path, "w") as log:
        _, rc = run_bounded(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
             "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
             project + "compile", "export %sRuntime/fullClasspath" % project],
            deadline, cwd=HERE, env=env, stdout=log, stderr=subprocess.STDOUT)
    with open(log_path) as fh:
        out = fh.read().splitlines()
    if rc != 0:
        sys.stderr.write("\n".join(out[-30:]) + "\n")
        fail("build failed" if rc is not None else "build timed out", 3)
    cps = [l for l in out if not l.startswith("[") and "scala-2.13" in l and os.pathsep in l]
    if not cps:
        fail("build printed no classpath", 3)
    with open(stamp, "w") as fh:
        fh.write(fp + "\n" + cps[-1] + "\n")
    return cps[-1], True


def main():
    start = time.time()
    ap = argparse.ArgumentParser(description="InQuest benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    for need in ("build.sbt", os.path.join("src", "main", "scala", "repro")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("the program's sources are missing (%s)" % need)

    traced = args.trace == 1 and not args.record_digests
    cp, built = build(start + BUILD_LIMIT, traced)
    deadline = start + (BUILD_LIMIT if built else RUN_LIMIT)

    tmp = os.path.join(BUILD, "tmp")
    workdir = os.path.join(BUILD, "run")
    for d in (tmp, workdir, OUT):
        os.makedirs(d, exist_ok=True)
    fd, result_path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=BUILD)
    os.close(fd)
    os.remove(result_path)
    cmd = (["java", "-Xmx3g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp, "-Dspark.local.dir=" + tmp]
           + OPENS + ["-cp", cp, "repro.perfbench.trace.TraceMain" if traced else "repro.perfbench.Main",
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--out", OUT, "--result", result_path])
    if args.record_digests:
        cmd.append("--record-digests")
    sys.stdout.flush()
    _, rc = run_bounded(cmd, deadline, cwd=workdir)
    if rc is None:
        fail("the run did not finish in time", 4)
    if rc != 0:
        fail("the run failed (exit %d)" % rc, 5)
    if args.record_digests:
        return
    with open(result_path) as fh:
        result = fh.read().strip()
    os.remove(result_path)
    print(result, flush=True)


if __name__ == "__main__":
    main()
