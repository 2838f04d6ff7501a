#!/usr/bin/env python3
"""Seeded benchmark for cellseq.

    python3 perfbench/run.py --workload fit|evaluate|score_revisit \\
        --seed N --seconds S --trace 0|1

Run from the root of a cellseq checkout: the benchmark imports the package
from ``src/`` and the brute-force oracles from ``tests/oracles.py``, and
fails if either is missing. It uses one process and one BLAS thread.

With ``--trace 0`` it runs timed rounds of the workload, with a set-up
before every round or every few rounds, until ``--seconds`` have passed
(``setup_s`` is the fastest set-up), checks every output and prints the
end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced set-ups and rounds, and prints the
per-layer metrics and the tracing overhead. The last line of the output is
a JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a longer report goes to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
checks = workloads = None  # imported by main() after it puts src/ on the path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("fit", "evaluate", "score_revisit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="minimum time spent in timed rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, or the requested count."""
    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line and ".so" in line)
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(getattr(lib, symbol)())
    except (OSError, StopIteration):
        pass
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def median(values):
    return float(statistics.median(values)) if values else float("nan")


class Rounds:
    """The first round in full, and each phase's fastest time over all rounds.

    Later rounds are compared with the first as they finish and then
    dropped, so the benchmark's own memory does not grow with the number of
    rounds that fit in ``--seconds``.
    """

    def __init__(self, outcome):
        self.outcome = outcome
        self.first = None
        self.count = 0
        self.fastest: dict[str, tuple[int, float]] = {}

    def add(self, r) -> None:
        self.count += 1
        if self.first is None:
            self.first, self.fastest = r, dict(r.phases)
            return
        if (r.fingerprints, r.values, r.outputs_digest) != (
                self.first.fingerprints, self.first.values, self.first.outputs_digest):
            self.outcome.fail(r.units, "a repeated round changed its outputs")
        for name, (units, seconds) in r.phases.items():
            if seconds < self.fastest[name][1]:
                self.fastest[name] = (units, seconds)


def fresh_dir(base: Path, name: str) -> Path:
    path = base / name
    path.mkdir(parents=True)
    return path


def timed_setup(workload, seed, workdir, outcome):
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(seed, workdir, outcome)
    return state, time.perf_counter() - t0


def timed_round(workload, state, seed, workdir, outcome):
    gc.collect()
    result = workload.run_round(state, seed, workdir, outcome)
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def tail(times_s) -> dict:
    """Highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times_s)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return {"value_ms": ordered[-1] * 1e3, "percentile": 100.0, "samples": n}
    return {
        "value_ms": ordered[n - TAIL_BEYOND - 1] * 1e3,
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "samples": n,
    }


def check_rounds(w, state, rounds, seed, oracles, outcome) -> dict:
    """The workload checks the first round in full and reports its input
    properties; later rounds were compared with it as they finished."""
    if not math.isfinite(rounds.first.quality):
        outcome.fail(1, "quality is not finite")
    return w.check(state, rounds.first, rounds.fastest, seed, oracles, outcome)


def work_per_s(rounds) -> float:
    """Work items per second of a round made of each phase's fastest time."""
    phases = rounds.fastest.values()
    return sum(n for n, _ in phases) / sum(t for _, t in phases)


def named_metrics(w, rounds, setup_s, rss_mb) -> dict:
    out = {}
    for name, (units, seconds) in rounds.fastest.items():
        if name.startswith("train_"):
            out[f"{name}_seq_per_s"] = units / seconds
        elif name.startswith("eval_"):
            out[f"{name}_tasks_per_s"] = units / seconds
        elif name == "search":
            out["search_s"] = seconds
    out.update(rounds.first.values)  # every round repeats them
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = rss_mb
    if w.name == "score_revisit":
        out["score_pairs_per_s"] = work_per_s(rounds)
        per_pair = [t for _, t in rounds.fastest.values()]
        t = tail(per_pair)
        out["score_pair_tail_ms"] = t["value_ms"]
        out["score_pair_tail_percentile"] = t["percentile"]
        out["score_pair_tail_samples"] = t["samples"]
        out["score_pair_p50_ms"] = median(per_pair) * 1e3
    return out


NAMED_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "search_s": "s",
    "val_loss_rnn": "nats/step", "val_loss_arnn": "nats/step",
    "meteor_rnn": "score", "meteor_arnn": "score",
    "score_pairs_per_s": "pairs/s", "score_pair_tail_ms": "ms", "score_pair_p50_ms": "ms",
    "score_pair_tail_percentile": "%", "score_pair_tail_samples": "count",
}


def unit_of(name: str) -> str:
    if name in NAMED_UNITS:
        return NAMED_UNITS[name]
    if name.endswith("_seq_per_s"):
        return "seq/s"
    if name.endswith("_tasks_per_s"):
        return "tasks/s"
    return ""


def run_untraced(args, w, workdir, outcome):
    """Run rounds until ``--seconds`` have passed, with a set-up before the
    first round and before every ``w.rounds_per_setup``-th one after it.
    Set-ups, like the phases of a round, are taken at their fastest, and
    both are sampled over the same stretch of time, so a change in the
    machine's speed during the run affects both alike."""
    setup_times, digests = [], set()
    rounds = Rounds(outcome)
    state = None
    started = time.perf_counter()
    while not rounds.count or time.perf_counter() - started < args.seconds:
        if rounds.count % w.rounds_per_setup == 0:
            state = None  # the previous set-up's state must not count towards this one's memory
            state, dt = timed_setup(w, args.seed, fresh_dir(workdir, f"setup{len(setup_times)}"), outcome)
            setup_times.append(dt)
            digests.add(state.setup_digest)
        rounds.add(timed_round(w, state, args.seed, fresh_dir(workdir, f"round{rounds.count}"), outcome))
    outcome.record(1, 0 if len(digests) == 1 else 1, "repeated set-ups built different inputs")
    return state, min(setup_times), rounds


def run_traced(args, w, workdir, outcome):
    import layers
    from tracer import Tracer

    box = layers.CounterBox()
    tracer = Tracer(observers=layers.observers(box))
    state, plain_setup = timed_setup(w, args.seed, fresh_dir(workdir, "setup-plain"), outcome)
    with tracer:
        traced_state, traced_setup = timed_setup(w, args.seed, fresh_dir(workdir, "setup-traced"), outcome)
    setup_stats, setup_counters = tracer.take_section(), box.take()
    outcome.record(1, 0 if traced_state.setup_digest == state.setup_digest else 1,
                   "tracing changed the set-up outputs")
    traced_state = None

    rounds, deltas, values = Rounds(outcome), [], []
    started = time.perf_counter()
    while not rounds.count or time.perf_counter() - started < args.seconds:
        plain = timed_round(w, state, args.seed, fresh_dir(workdir, f"round{rounds.count}-plain"), outcome)
        box.take()
        with tracer:
            traced = timed_round(w, state, args.seed, fresh_dir(workdir, f"round{rounds.count}-traced"), outcome)
        stats, counters = tracer.take_section(), box.take()
        same = (traced.fingerprints, traced.values, traced.outputs_digest) == (
            plain.fingerprints, plain.values, plain.outputs_digest)
        outcome.fail(0 if same else traced.units, "tracing changed the round outputs")
        rounds.add(plain)
        deltas.append(traced.wall_s - plain.wall_s)
        values.append(layers.per_layer_values(layers.merge_stats(setup_stats, stats),
                                              setup_counters.merged(counters)))
    per_layer = {name: median([v[name] for v in values]) for name in values[0]}
    per_layer[layers.OVERHEAD] = (traced_setup - plain_setup) + median(deltas)
    return state, plain_setup, rounds, per_layer


def load_baseline() -> dict:
    path = HERE / "baseline.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def compare_fingerprints(args, fingerprints) -> dict:
    stored = load_baseline().get("runs", {}).get(args.workload, {}).get(str(args.seed), {}).get("fingerprints")
    out = {}
    for name, digest in sorted(fingerprints.items()):
        if stored is None or name not in stored:
            out[name] = "no stored baseline for this seed"
        else:
            out[name] = "matches baseline" if stored[name] == digest else "DIFFERS from baseline"
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cellseq" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no cellseq checkout (src/cellseq and tests/oracles.py)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    global checks, workloads  # importable only once src/ is on the path
    import checks
    import workloads

    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    w = workloads.WORKLOADS[args.workload]
    outcome = workloads.Outcome()
    oracles = checks.load_oracles(ROOT)
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    metrics: dict[str, dict] = {}
    report: dict = {"environment": env}
    props: dict = {}
    rounds = None
    try:
        if args.trace:
            state, setup_s, rounds, per_layer = run_traced(args, w, workdir, outcome)
        else:
            state, setup_s, rounds = run_untraced(args, w, workdir, outcome)
        rss_mb = peak_rss_mb()  # before the checks, whose regenerated outputs are the benchmark's own
        props = check_rounds(w, state, rounds, args.seed, oracles, outcome)
    except Exception:  # the run reports the failure instead of dying silently
        traceback.print_exc()
        outcome.record(1, 1, "the run raised; see the traceback")
        rounds = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if rounds:
        named = named_metrics(w, rounds, setup_s, rss_mb)
        if args.trace:
            import layers

            unit = layers.units()
            metrics = {name: {"value": value, "unit": unit[name]} for name, value in per_layer.items()}
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": named["peak_rss_mb"], "unit": "MB"},
                "work_per_s": {"value": work_per_s(rounds), "unit": "1/s"},
                "quality": {"value": rounds.first.quality, "unit": "score"},
            }
        fingerprints = rounds.first.fingerprints
        report.update(named=named, properties=props, fingerprints=fingerprints, rounds=rounds.count,
                      fingerprint_check=compare_fingerprints(args, fingerprints))
        for name, value in named.items():
            print(f"metric {name} = {value!r} {unit_of(name)}")
        report["phases"] = {name: {"items": n, "fastest_s": t} for name, (n, t) in rounds.fastest.items()}
        if w.name != "score_revisit":
            print("phases: " + json.dumps(report["phases"]))
        print("properties: " + json.dumps(props, sort_keys=True))
        for name, verdict in report["fingerprint_check"].items():
            print(f"fingerprint {name} {fingerprints[name]} ({verdict})")
        print(f"rounds: {rounds.count}")

    bad_metrics = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    for name in bad_metrics:
        del metrics[name]
    outcome.fail(len(bad_metrics), "a metric is not finite")
    failed_share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"metric failed_share = {failed_share!r} ratio ({outcome.failed} of {outcome.attempted} operations)")
    for message in outcome.messages:
        print(f"failure: {message}")
    result = {
        "correct": outcome.failed == 0 and bool(rounds),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    report.update(result=result, failures=outcome.messages)
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0 if rounds else 1


if __name__ == "__main__":
    raise SystemExit(main())
