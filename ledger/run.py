#!/usr/bin/env python3
"""Attack-pipeline benchmark: builds the harness, prepares its checkpoint
cache, runs one workload in isolated child processes and prints one JSON
result line. Run it from the repository root:

    python3 ledger/run.py --workload pong_timebomb --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of an untraced run, --trace 1 the
per-layer metrics of a traced run. `--report` runs every workload both ways
and prints every metric by name (ledger/README.md).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import ledger  # noqa: E402  (same directory)

ROOT = ledger.LEDGER_DIR.parent
BUILD = ROOT / ".bench_build" / "ledger"
HARNESS = BUILD / "build" / "ledger_harness"
WORKLOADS = ("cartpole_reward", "invaders_reward", "pong_timebomb",
             "cartpole_fit")

# A first run builds and trains within 900 s; later runs end within 180 s.
BUILD_TIMEOUT_S = 360
PREPARE_TIMEOUT_S = 480
RUN_BUDGET_S = 160  # children of one invocation, once build and cache exist
TIMED_PROCESSES = 4
# Grids per run, each at its own seed derived from --seed. On one CPU the
# content a seed draws (attacked steps, crafts) moved cartpole_fit's pass
# times by up to 17 % between seeds with the same victim steps, and by
# about 5 % on pong_timebomb; cycling through several grids averages that
# out. Each grid costs one untimed serial reference pass per seed.
GRIDS = {"pong_timebomb": 2}
DEFAULT_GRIDS = 4


def log(*parts):
    print("[ledger]", *parts, file=sys.stderr, flush=True)


def clean_env(**extra):
    """The default program path: no RLATTACK_* knob leaks in from outside."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RLATTACK_")}
    env.update(extra)
    return env


def run_child(name, args, timeout, env, out_file=None):
    """Runs one child process with a timeout and records the outcome under
    BUILD/runs/, also when the child crashes or hangs. Returns the parsed
    result JSON ({} without an output file), or None when the run failed."""
    start = time.monotonic()
    record = {"name": name, "cmd": [str(a) for a in args]}
    proc = subprocess.Popen(record["cmd"], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    try:
        output, _ = proc.communicate(timeout=max(timeout, 1))
        record["status"] = "ok" if proc.returncode == 0 else "crash"
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()
        record["status"] = "timeout"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    record["returncode"] = proc.returncode
    record["seconds"] = time.monotonic() - start
    record["output_tail"] = output[-4000:]
    result = {} if out_file is None else None
    if record["status"] == "ok" and out_file is not None:
        try:
            result = json.loads(Path(out_file).read_text())
        except (OSError, ValueError) as e:
            record["status"] = f"bad output: {e}"
    record["result"] = result or None
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if record["status"] != "ok":
        log(f"{name}: {record['status']} (exit {proc.returncode})")
        log(output[-2000:])
        return None
    return result


def build():
    """Configures once, then builds (a no-op when up to date)."""
    build_dir = BUILD / "build"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", ledger.LEDGER_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for i, cmd in enumerate(steps):
        if run_child(f"build-{i}", cmd, BUILD_TIMEOUT_S, os.environ) is None:
            return False
    return HARNESS.exists()


def prepare_cache(rev):
    """The benchmark's own checkpoint cache, trained once (untimed) before
    any workload runs. It is keyed on the source revision, which covers the
    harness's fixed bench scale and zoo seed."""
    cache = BUILD / "cache" / rev
    ready = cache / "READY"
    if not ready.exists():
        log("training the checkpoint cache (untimed, first run only)")
        args = [HARNESS, "prepare", "--cache", cache]
        if run_child("prepare", args, PREPARE_TIMEOUT_S, clean_env()) is None:
            return None
        ready.write_text("ok\n")
    return cache


def grids(workload):
    return GRIDS.get(workload, DEFAULT_GRIDS)


def harness_run(name, workload, seed, mode, seconds, cache, timeout, env):
    out = BUILD / "out" / f"{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    args = [HARNESS, "run", "--workload", workload, "--seed", seed,
            "--grids", grids(workload), "--cache", cache, "--mode", mode,
            "--seconds", seconds, "--out", out]
    return run_child(name, args, timeout, env, out)


def reference_digests(workload, seed, cache, rev, deadline):
    """Digests of the serial path (experiment_threads = 1, both batching
    substrates off), one per grid, computed once per (source, workload,
    seed)."""
    path = BUILD / "refs" / f"{rev}-{workload}-{seed}-{grids(workload)}.json"
    if path.exists():
        return json.loads(path.read_text())["digests"]
    env = clean_env(RLATTACK_EVAL_BATCH="0", RLATTACK_CRAFT_BATCH="0")
    result = harness_run(f"{workload}-seed{seed}-reference", workload, seed,
                         "reference", 0, cache, deadline - time.monotonic(),
                         env)
    if result is None:
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result) + "\n")
    return result["digests"]


def restrict_cpus(n):
    """Runs this process, and every child it starts from here on, on the
    last n allowed CPUs (the first one takes the device interrupts). The
    program still sizes its thread pool from the machine's core count, so
    its code path is the same; only the cores it may use change."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[-n:])


def run_workload(workload, seed, seconds, trace, cpus):
    """One benchmark invocation. Returns (result dict, exit code)."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("library sources (src/) not found next to ledger/")
        return None, 2
    if not build():
        log("build failed")
        return None, 1
    if cpus:
        restrict_cpus(cpus)
    rev = ledger.source_rev(ROOT)
    cache = prepare_cache(rev)
    if cache is None:
        return None, 1
    # Building and training the cache are not part of the run's time limit.
    deadline = time.monotonic() + RUN_BUDGET_S

    tag = (f"{workload}-seed{seed}-trace{trace}-"
           f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    if trace:
        modes = [("traced", seconds)]
    else:
        # Separate processes, because a process's heap layout and thread
        # placement move its pass times by more than the passes within it
        # differ. cartpole_fit runs one: its setup is a full training run.
        n = 1 if workload == "cartpole_fit" else TIMED_PROCESSES
        modes = [("timed", seconds / n)] * n
    results = [harness_run(f"{tag}-p{i}", workload, seed, mode, secs, cache,
                           deadline - time.monotonic(), clean_env())
               for i, (mode, secs) in enumerate(modes)]
    references = reference_digests(workload, seed, cache, rev, deadline)

    # Every grid pass, every crashed or hung process and the serial
    # reference count as one attempted run each.
    ok = [r for r in results if r is not None]
    crashed = len(results) - len(ok)
    attempted = 1 + crashed + sum(len(r["digests"]) for r in ok)
    failed = (references is None) + crashed + sum(
        ledger.digest_failures(r["digests"], r.get("grids"), references)
        for r in ok)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": {}}
    if not ok:
        return record, 1
    record["fingerprint"] = ledger.fingerprint(ok[0], rev)
    if trace:
        metrics = ledger.per_layer(ok[0], failed / attempted)
    else:
        metrics = ledger.end_to_end(ok)
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record, 0


def report(seed, seconds, cpus):
    """Runs every workload untraced and traced; prints every metric."""
    code = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, rc = run_workload(workload, seed, seconds, trace, cpus)
            code = code or rc
            if record is None:
                continue
            print(f"== {workload} (trace {trace}): correct={record['correct']}"
                  f" attempted={record['attempted']} failed={record['failed']}")
            for name, m in record["metrics"].items():
                print(f"  {name:40} {m['value']:>16.6g} {m['unit']}")
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cpus", type=int, default=0,
                   help="run the workload on this many CPUs (default: all)")
    p.add_argument("--report", action="store_true",
                   help="run every workload untraced and traced")
    a = p.parse_args()
    if a.cpus < 0:
        p.error("--cpus must be at least 1 (or 0 for all)")
    if a.report:
        return report(a.seed, a.seconds, a.cpus)
    if a.workload is None:
        p.error("--workload is required (or --report)")
    record, code = run_workload(a.workload, a.seed, a.seconds, a.trace,
                                a.cpus)
    if record is not None:
        print(json.dumps({k: record[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
    return code


if __name__ == "__main__":
    sys.exit(main())
