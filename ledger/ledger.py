"""Statistics, host fingerprint, output checks, per-layer metric extraction
and result comparison for the attack-pipeline benchmark (ledger/run.py).

Compare two result sets written by run.py:

    python3 ledger/ledger.py compare BASE_DIR HEAD_DIR

It compares only results whose host fingerprints match, refuses a workload
whose fingerprints differ, and fails when no workload was compared.
"""

import hashlib
import json
import os
import statistics
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent

# Layer classes whose nn.forward.<Layer> / nn.backward.<Layer> spans are
# reported per layer.
NN_LAYERS = ("Lstm", "Conv2D", "Dense", "NoisyDense", "DuelingHead",
             "TimeDistributed", "ReLU")


# --- statistics ------------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values, method="exclusive"):
    """First and third quartile, as statistics.quantiles(n=4) gives them;
    both are the value itself when there is only one."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method=method)
    return q1, q3


def quartile_spread(values):
    """Distance between the first and third quartile over the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def worse_by(base, head, better):
    """Share by which `head` is worse than `base` (negative when better)."""
    if better == "lower":
        return (head - base) / base
    return (base - head) / base


# --- fingerprint and digests -----------------------------------------------

def cpu_list(cpus):
    """Compact CPU-set spelling: {0, 1, 2, 5} -> "0-2,5"."""
    cpus = sorted(cpus)
    parts, start = [], None
    for i, c in enumerate(cpus):
        if start is None:
            start = c
        if i + 1 == len(cpus) or cpus[i + 1] != c + 1:
            parts.append(str(start) if start == c else f"{start}-{c}")
            start = None
    return ",".join(parts)


def source_rev(root):
    """Content hash of everything compiled into the harness: the library
    sources and the harness itself. It stands in for a git revision (a
    benchmark checkout need not be a git repository) and keys the
    checkpoint cache, so a source change never loads stale artefacts."""
    root = Path(root)
    files = [p for p in sorted((root / "src").rglob("*")) if p.is_file()]
    files += [LEDGER_DIR / "CMakeLists.txt", LEDGER_DIR / "harness.cpp"]
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(harness_result, rev):
    """Host fingerprint of a run, from this process and a harness result."""
    return {
        "nproc": os.cpu_count(),
        "cpus": cpu_list(os.sched_getaffinity(0)),
        "simd_kernel": harness_result["simd_kernel"],
        "bench_scale": harness_result["scale"],
        "build_type": harness_result["build_type"],
        "source_rev": rev,
    }


def host_key(fp):
    """Fingerprint fields that must match for two results to be compared.
    The source revision is left out: comparing revisions is the point."""
    return tuple((k, fp[k]) for k in sorted(fp) if k != "source_rev")


def digest_failures(digests, grids, references):
    """Passes whose digest differs from the serial reference of their grid
    (or, without references, from the first pass of their grid). `grids`
    gives each pass's grid index; None means every pass ran grid 0."""
    grids = [int(k) for k in grids] if grids else [0] * len(digests)
    want = {}
    for d, k in zip(digests, grids):
        want.setdefault(k, references[k] if references else d)
    return sum(1 for d, k in zip(digests, grids) if d != want[k])


# --- metrics ----------------------------------------------------------------

def end_to_end(timed):
    """End-to-end metrics from the timed harness results of one run (one
    per child process), over every pass and setup of the run.

    Pass times are taken per grid, at their better quartile over the
    grid's passes (the first quartile of `episodes_s`, the third of
    `victim_steps_per_s`), and averaged over the run's grids. A grid has
    only a few passes, so its quartiles interpolate within them
    ("inclusive"); the default method would extrapolate past the fastest
    of two passes. On a shared
    virtual machine, hypervisor steal and busy sibling threads come and go
    within seconds, and the episode rendezvous multiplies them: passes that
    ran under 8 to 15 % steal read 1.4 to 2 times slower. A pass's median
    then follows how busy the host was during the run, while the better
    quartile follows the program. Setup and memory are medians."""
    times, rates = {}, {}
    for r in timed:
        for k, t, s in zip(r["grids"], r["episodes_s"], r["victim_steps"]):
            times.setdefault(k, []).append(t)
            rates.setdefault(k, []).append(s / t)
    return {
        "episodes_s": (statistics.mean(
            quartiles(v, "inclusive")[0] for v in times.values()), "s"),
        "victim_steps_per_s": (statistics.mean(
            quartiles(v, "inclusive")[1] for v in rates.values()), "1/s"),
        "setup_s": (median([t for r in timed for t in r["setup_s"]]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in timed]), "MiB"),
    }


def per_layer(traced, failed_share):
    """Per-layer metrics from a traced harness result."""
    reg = traced["registry"]

    def span(name, key="total_s"):
        return reg["spans"].get(name, {}).get(key, 0.0)

    def counter(name):
        return reg["counters"].get(name, 0)

    def hist_mean(name):
        return reg["histograms"].get(name, {}).get("mean", 0.0)

    episodes_s = traced["episodes_s"][0]
    cpu_s = traced["cpu_s"][0]
    calls, flops = counter("nn.gemm.calls"), counter("nn.gemm.flops")
    layer_s = sum(v["total_s"] for k, v in reg["spans"].items()
                  if k.startswith(("nn.forward.", "nn.backward.")))
    m = {
        "core.victim_step_p50_s": (span("phase.victim_step", "p50_s"), "s"),
        "core.victim_step_total_s": (span("phase.victim_step"), "s"),
        "core.episode_p50_s": (span("phase.episode", "p50_s"), "s"),
        "core.episode_p99_s": (span("phase.episode", "p99_s"), "s"),
        "core.workers": (reg["gauges"].get("experiment.workers", 0.0),
                         "count"),
        "core.episodes": (counter("pipeline.episodes"), "count"),
        "core.victim_steps": (counter("pipeline.steps"), "count"),
        "core.attacked_steps": (counter("pipeline.attacks"), "count"),
        "attack.perturb_total_s": (span("phase.perturb"), "s"),
        "attack.perturb_p50_s": (span("phase.perturb", "p50_s"), "s"),
        "attack.craft_batch_rows_mean": (hist_mean("craft.batch.size"),
                                         "rows"),
        "attack.craft_flushes": (counter("craft.batch.flushes"), "count"),
        "attack.eval_batch_rows_mean": (hist_mean("eval.batch.size"), "rows"),
        "attack.eval_flushes": (counter("eval.batch.flushes"), "count"),
        "attack.batch_stalls": (counter("craft.batch.stall")
                                + counter("eval.batch.stall"), "count"),
        "attack.queries_forward": (counter("attack.queries.forward"),
                                   "count"),
        "attack.queries_gradient": (counter("attack.queries.gradient"),
                                    "count"),
        "rl.train_victim_s": (span("zoo.train_victim"), "s"),
        "seq2seq.encode_history_s": (span("seq2seq.encode_history"), "s"),
        "seq2seq.forward_cached_batch_s": (
            span("seq2seq.forward_cached_batch"), "s"),
        "seq2seq.backward_to_current_batch_s": (
            span("seq2seq.backward_to_current_batch"), "s"),
        "seq2seq.train_approximator_s": (span("zoo.train_approximator"), "s"),
        "nn.gemm_calls": (calls, "count"),
        "nn.gemm_flops": (flops, "flop"),
        "nn.flops_per_gemm": (flops / calls if calls else 0.0, "flop"),
        "nn.gemm_gflops_approx": (flops / layer_s / 1e9 if layer_s else 0.0,
                                  "GFLOP/s"),
        "env.step_total_s": (span("phase.env_step"), "s"),
        "zoo.load_s": (span("ledger.zoo_load"), "s"),
        "obs.trace_overhead": (
            episodes_s / traced["untraced_episodes_s"] - 1.0, "ratio"),
        "proc.cpu_s": (cpu_s, "s"),
        "proc.cpu_util": (cpu_s / episodes_s, "ratio"),
        "failed_share": (failed_share, "ratio"),
    }
    for layer in NN_LAYERS:
        m[f"nn.forward_s.{layer}"] = (span(f"nn.forward.{layer}"), "s")
        m[f"nn.backward_s.{layer}"] = (span(f"nn.backward.{layer}"), "s")
    return m


# --- comparison -------------------------------------------------------------

def load_results(directory):
    out = []
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if "fingerprint" in rec and "metrics" in rec and not rec["trace"]:
            out.append(rec)
    return out


def compare(base, head, spec):
    """Compares end-to-end medians of two result lists per workload.

    Returns (rows, ok). A workload present on both sides with no matching
    host fingerprint is refused and fails the comparison; a metric whose
    head median is worse than the base median by more than its bound fails
    it; and zero compared workloads is a failure too. Where the base runs
    spread wider than the bound, a metric is unresolved, which also fails,
    unless every head run reads better than every base run.
    """
    rows, ok, compared = [], True, 0
    groups = {}
    for r in head:
        key = (r["workload"], host_key(r["fingerprint"]))
        groups.setdefault(key, []).append(r)
    for (workload, key), heads in sorted(groups.items()):
        label = f"{workload}@cpus={heads[0]['fingerprint']['cpus']}"
        same_workload = [r for r in base if r["workload"] == workload]
        if not same_workload:
            continue
        bases = [r for r in same_workload
                 if host_key(r["fingerprint"]) == key]
        if not bases:
            rows.append((label, "-", "fingerprint mismatch", False))
            ok = False
            continue
        compared += 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            bs = [r["metrics"][name]["value"] for r in bases]
            hs = [r["metrics"][name]["value"] for r in heads]
            worse = worse_by(median(bs), median(hs), metric["better"])
            text = (f"{median(bs):.6g} -> {median(hs):.6g} "
                    f"({worse:+.1%} worse, bound {bound:.0%}, base spread "
                    f"{quartile_spread(bs):.1%})")
            good = worse <= bound
            all_better = all(worse_by(b, h, metric["better"]) < 0
                             for b in bs for h in hs)
            if good and quartile_spread(bs) > bound and not all_better:
                good, text = False, text + " unresolved"
            ok = ok and good
            rows.append((label, name, text, good))
    if compared == 0:
        rows.append(("-", "-", "zero workloads compared", False))
        ok = False
    return rows, ok


def main(argv):
    if len(argv) != 4 or argv[1] != "compare":
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads((LEDGER_DIR.parent / "BENCHMARK.json").read_text())
    rows, ok = compare(load_results(argv[2]), load_results(argv[3]), spec)
    for workload, metric, text, good in rows:
        print(f"{'ok  ' if good else 'FAIL'} {workload:28} {metric:20} {text}")
    print("comparison", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
