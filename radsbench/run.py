#!/usr/bin/env python3
"""Build and run the RADS benchmark.

Run from the root of the repository:

    python3 radsbench/run.py --workload lj-cycle --seed 7 --seconds 10 --trace 0
    python3 radsbench/run.py --smoke

The first call compiles the repository and the benchmark with sbt (the
build in this directory depends on the root project); later calls reuse the
compiled classes while no source file changes. The benchmark's last line of
standard output is one JSON object with its result. `--smoke` runs every
workload on small graphs, both untraced and traced, and checks that every
metric named in BENCHMARK.json is emitted with its unit, that every count
matched the reference, and that the critical path fits in the wall time.

Build logs, the class path, span files and Spark's scratch space go to
.bench_build/ under the repository root.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

JAVA_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def die(msg, code=2):
    print(f"radsbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads, relative to the repository root."""
    roots = ["src/main", "project", os.path.relpath(os.path.join(HERE, "src"), ROOT),
             os.path.relpath(os.path.join(HERE, "project"), ROOT)]
    files = ["build.sbt", os.path.relpath(os.path.join(HERE, "build.sbt"), ROOT)]
    for r in roots:
        for d, dirs, names in os.walk(os.path.join(ROOT, r)):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.relpath(os.path.join(d, n), ROOT) for n in names]
    return sorted(f for f in files if os.path.isfile(os.path.join(ROOT, f)))


def digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(f.encode())
        with open(os.path.join(ROOT, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout or interrupt."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
        return p.returncode, out
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def classpath():
    """Compile if any source changed since the last build; return the class path."""
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isfile(os.path.join(ROOT, "src/main/scala/repro/core/Rads.scala"))):
        die("run from the repository root: build.sbt or the RADS sources are missing")
    stamp = os.path.join(OUT, "classpath.json")
    want = digest()
    if os.path.isfile(stamp):
        with open(stamp) as fh:
            got = json.load(fh)
        if got.get("digest") == want and all(os.path.exists(p) for p in got["classpath"]):
            return got["classpath"]
    os.makedirs(OUT, exist_ok=True)
    log = os.path.join(OUT, "build.log")
    t0 = time.time()
    try:
        with open(log, "w") as fh:
            code, _ = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
                                 "export Runtime/fullClasspath"],
                                BUILD_TIMEOUT_S, cwd=HERE, stdout=fh, stderr=subprocess.STDOUT)
    except subprocess.TimeoutExpired:
        die(f"build timed out after {BUILD_TIMEOUT_S} s; see {log}", 3)
    with open(log) as fh:
        lines = [l.strip() for l in fh if l.strip()]
    cps = [l for l in lines if not l.startswith("[") and ".jar" in l]
    if code != 0 or not cps:
        print("\n".join(lines[-30:]), file=sys.stderr)
        die(f"build failed (exit {code}); see {log}", 1)
    cp = cps[-1].split(os.pathsep)
    with open(stamp, "w") as fh:
        json.dump({"digest": want, "classpath": cp}, fh)
    print(f"radsbench: built in {time.time() - t0:.0f} s", file=sys.stderr)
    return cp


def java_cmd(cp, args, heap):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return ([java, f"-Xmx{heap}", f"-Djava.io.tmpdir={tmp}",
             f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}"]
            + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JAVA_OPENS]
            + ["-cp", os.pathsep.join(cp), "repro.radsbench.Main", "--out", OUT] + args)


def smoke(cp):
    """Run every workload on the smoke profile and check the output."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        code, out = run_group(java_cmd(cp, ["--workload", "all", "--profile", "smoke", "--seconds", "0.1"],
                                       "2g"),
                              RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        die(f"smoke run timed out after {RUN_TIMEOUT_S} s", 3)
    sys.stdout.write(out)
    if code != 0:
        die(f"smoke run exited with {code}", 1)
    results = {}
    for line in out.splitlines():
        if line.startswith("result "):
            _, wl, trace, js = line.split(" ", 3)
            results[(wl, trace)] = json.loads(js)
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in (("trace=0", "end_to_end"), ("trace=1", "per_layer")):
            r = results.get((wl, trace))
            if r is None:
                problems.append(f"{wl} {trace}: no result")
                continue
            if not r["correct"] or r["failed"]:
                problems.append(f"{wl} {trace}: {r['failed']} of {r['attempted']} operations failed")
            for m in spec[key]:
                got = r["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{wl} {trace}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{wl} {trace}: {m['name']} unit {got['unit']} != {m['unit']}")
        r0, r1 = results.get((wl, "trace=0")), results.get((wl, "trace=1"))
        if r0 and r1:
            wall = r0["metrics"]["wall_s"]["value"]
            crit = r1["metrics"].get("core.engine.critical_s", {}).get("value", float("inf"))
            over = r1["metrics"].get("trace.overhead_s", {}).get("value", 0.0)
            if not crit <= wall + over:
                problems.append(f"{wl}: critical_s {crit} > wall_s {wall} + trace.overhead_s {over}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="7", help="graph seed (default 7, as BenchData)")
    ap.add_argument("--seconds", default="8", help="measured seconds per run")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--profile", default="bench", choices=["bench", "full", "smoke"])
    ap.add_argument("--smoke", action="store_true", help="self-check on small graphs")
    a = ap.parse_args()
    if not a.smoke and not a.workload:
        ap.error("--workload is required")
    cp = classpath()
    if a.smoke:
        smoke(cp)
    args = ["--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
            "--trace", a.trace, "--profile", a.profile]
    full = a.profile == "full"
    try:
        code, _ = run_group(java_cmd(cp, args, "8g" if full else "3g"),
                            RUN_TIMEOUT_S * (20 if full else 1))
    except subprocess.TimeoutExpired:
        die("benchmark run timed out", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
