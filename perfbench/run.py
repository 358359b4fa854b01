#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --selftest                   # smoke-size self-test

Run from the root of a checkout.  The last line of standard output is the
JSON result of bench.exe (see README.md); the exit code is non-zero on any
verdict or count mismatch, and on a checkout that cannot be built.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

SCRATCH = ".perfbench"
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
DDA = os.path.join("_build", "default", "bin", "dda.exe")
WORKLOADS = ["explore", "spill", "batch", "serve"]
RUN_TIMEOUT = 175
# Everything a run starts (bench.exe, its calibration helper, dda serve and
# dda route) shares one CPU: no cross-CPU wake-ups on the serve path, and
# the calibration kernel sees the same core the work runs on.
PINNED_CPU = max(os.sched_getaffinity(0))
# variables that change what the library computes or where it writes
SCRUBBED = ["DDA_MEM_BUDGET", "DDA_STREAM_SCC", "DDA_PAR_CORES", "DDA_PAR_THRESHOLD", "DDA_CACHE", "DDA_SPILL_DIR"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        die("not the root of a checkout (no dune-project, lib/ or bin/)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", BENCH, DDA], env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("build failed")


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # not a git checkout: a digest of the sources identifies the code
    h = hashlib.sha256()
    for top in ["lib", "bin", "perfbench", "dune-project"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def stop_group(pgid):
    """Kill whatever is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(1000):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def bench(workload, seed, seconds, trace, extra=(), stamp=None):
    """Run bench.exe once in a fresh scratch directory; returns (code, stdout)."""
    tmp = os.path.join(SCRATCH, "run-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["DDA_SPILL_DIR"] = os.path.join(tmp, "spill")
    env["PERFBENCH_NPROC"] = str(len(os.sched_getaffinity(0)))
    env["PERFBENCH_CPU"] = str(PINNED_CPU)
    env["PERFBENCH_COMMIT"] = stamp or commit()
    cmd = [BENCH, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dda", DDA, "--tmp", tmp] + list(extra)
    # own process group, so a timeout also stops the servers bench.exe started
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {PINNED_CPU}))
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code, err = 124, err + "\nperfbench: timed out after %d s\n" % RUN_TIMEOUT
    finally:
        stop_group(proc.pid)
        if trace:
            traces = os.path.join(SCRATCH, "traces")
            os.makedirs(traces, exist_ok=True)
            for f in os.listdir(tmp) if os.path.isdir(tmp) else []:
                if f.startswith("trace-"):
                    shutil.move(os.path.join(tmp, f), os.path.join(traces, f))
        shutil.rmtree(tmp, ignore_errors=True)
    if err.strip():
        sys.stderr.write(err)
    return code, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def selftest():
    """Smoke-size check of names, units, the verdict gate and count repetition."""
    spec = json.load(open("BENCHMARK.json"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    stamp = commit()

    r = subprocess.run([BENCH, "--check-golden"], capture_output=True, text=True)
    print(r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "check-golden: no output")
    if r.returncode != 0:
        problems.append("golden table disagrees with the resident explicit engine")

    for w in WORKLOADS:
        outs = []
        for trace in (0, 0, 1):
            code, out = bench(w, 7, 1, trace, ["--smoke"], stamp)
            res = last_json(out)
            if code != 0 or res is None or not res.get("correct"):
                problems.append("%s trace=%d: exit %d, result %s" % (w, trace, code, res))
                continue
            want = layer if trace else e2e
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append("%s trace=%d: metrics %s, expected %s" % (w, trace, got, want))
            if not any(l.startswith("env {") for l in out.splitlines()):
                problems.append("%s: no environment stamp" % w)
            outs.append([l for l in out.splitlines() if l.startswith("count ")])
        if len(outs) == 3:
            if not outs[0] or outs[0] != outs[1] or outs[0] != outs[2]:
                problems.append("%s: exact counts do not repeat: %s / %s / %s" % (w, outs[0], outs[1], outs[2]))
        print("selftest %s: %s" % (w, "ok" if not any(p.startswith(w) for p in problems) else "FAILED"))

    code, out = bench("explore", 7, 1, 0, ["--smoke", "--inject-mismatch"], stamp)
    res = last_json(out)
    if code == 0 or res is None or res.get("correct") or res.get("failed", 0) < 1:
        problems.append("verdict gate did not reject a corrupted expectation (exit %d)" % code)
    else:
        print("selftest gate: ok (corrupted expectation rejected, exit %d)" % code)

    for p in problems:
        print("FAILED " + p)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build()
    if args.selftest:
        sys.exit(selftest())
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        code, out = bench(w, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        sys.stdout.flush()
        if code != 0 or last_json(out) is None:
            status = code or 1
    sys.exit(status)


if __name__ == "__main__":
    main()
