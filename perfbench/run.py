"""Benchmark of canalis: closed-loop, single-client workloads.

One run:
    python3 perfbench/run.py --workload sample --seed 1 --seconds 10 --trace 0

prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Steadiness mode,
    python3 perfbench/run.py --steadiness --runs 10 [--workloads wide]
runs two sets of runs of every workload and prints, per end-to-end
metric, both medians, both quartile ranges and the metric's bound.

The program is imported from src/ of the checkout that holds this file;
see perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPS = 15


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _import_program():
    """Import canalis from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "canalis" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src / 'canalis'}")
    sys.path[:0] = [str(src), str(HERE)]
    import canalis

    if Path(canalis.__file__).resolve().parent != src / "canalis":
        raise SystemExit(f"perfbench: imported canalis from {canalis.__file__}, not {src}")


def _install_wrappers(tracer) -> None:
    from canalis import exact_counts, generator, oracle, probability

    for module, attr in [
        (generator, "generate"),
        (generator, "sample_category"),
        (generator, "classify"),
        (generator, "category_weights"),
        (probability, "prob_breakdown"),
        (probability, "decimal_string"),
        (exact_counts, "count_exact_k"),
        (exact_counts, "scientific_string"),
        (oracle, "enumerate_classify"),
    ]:
        tracer.install(module, attr)


def _comparable(out):
    return (type(out).__name__, str(out)) if isinstance(out, Exception) else out


def measure(wl, seconds: float, between=None) -> dict:
    """Replay the workload's round until one round ends with at least
    ``seconds`` of timed work. Only the operations are timed, each on the
    workload's clock. The first round's outputs are checked; every later
    round must give the same outputs, since it runs the same operations on
    the same inputs.
    ``between(share)`` runs after each round with the share of the timed
    phase done so far."""
    walls, errors = [], []
    attempted = failed = 0
    first = fastest = None
    clock = wl.clock
    while not walls or sum(walls) < seconds * 1e9:
        ops = wl.round()
        results, times = [], []
        # as timeit does: no cyclic collection inside the timed ops, one
        # full collection between rounds; a replayed round would otherwise
        # pay each collection in the same op every time
        gc.collect()
        gc.disable()
        start = time.perf_counter_ns()
        try:
            for op in ops:
                t0 = clock()
                try:
                    out = op()
                except wl.failure as exc:
                    out = exc
                times.append(clock() - t0)
                results.append(out)
        finally:
            gc.enable()
        walls.append(time.perf_counter_ns() - start)
        attempted += len(ops)
        failed += sum(isinstance(out, Exception) for out in results)
        # Each operation's fastest repeat: this machine's speed wanders by
        # tens of percent from one second to the next, and a repeat can
        # only be slowed by that, never sped up.
        fastest = times if fastest is None else list(map(min, fastest, times))
        seen = [_comparable(out) for out in results]
        if first is None:
            first = seen
            errors += wl.check(results)
        elif seen != first:
            errors.append(f"round {len(walls)} gave other outputs than round 1")
        if between:
            between(sum(walls) / (seconds * 1e9))
    return {
        "rounds": len(walls),
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": (attempted - failed) / len(walls) * 1e9 / sum(fastest),
        "op_min_ns": fastest,
        "errors": errors,
    }


class SetupTimer:
    """Times a fresh interpreter doing the workload's set-up, SETUP_REPS
    times spread evenly over the run, so that the median does not rest on
    the machine's speed in one moment. One untimed run first leaves the
    byte-code caches as users have them."""

    def __init__(self, wl, env):
        self.argv = [sys.executable, "-c", wl.setup_code]
        self.env = env
        self.times = []
        self._run()

    def _run(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.argv, env=self.env, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def catch_up(self, share: float) -> None:
        while len(self.times) < min(share, 1.0) * SETUP_REPS:
            self.times.append(self._run())

    def median(self) -> float:
        self.catch_up(1.0)
        return statistics.median(self.times)


def end_to_end(wl, stats, setup_s: float) -> dict:
    times = stats["op_min_ns"]
    tail = statistics.quantiles(times, n=100, method="inclusive")[wl.tail_pct - 1]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (stats["ops_per_s"], "1/s"),
        "op_p50_ms": (statistics.median(times) / 1e6, "ms"),
        "op_tail_ms": (tail / 1e6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_once(args, spec) -> dict:
    _import_program()
    from tracer import Tracer
    from workloads import LAYER_ROUNDS, WORKLOADS, _program_env

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: --workload must be one of {', '.join(WORKLOADS)}")
    factory = WORKLOADS[args.workload]
    if not args.trace:
        wl = factory(args.seed, None, str(ROOT))
        setup = SetupTimer(wl, _program_env(str(ROOT)))
        stats = measure(wl, args.seconds, setup.catch_up)
        metrics = end_to_end(wl, stats, setup.median())
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        tracer = Tracer()
        _install_wrappers(tracer)
        wl = factory(args.seed, tracer, str(ROOT))
        stats = measure(wl, args.seconds)
        metrics = wl.layer_metrics(tracer, stats)
        tracer.uninstall()
        wanted = [m["name"] for m in spec["per_layer"]]
        # layers the workload does not exercise are measured on one round
        # of their own, under a tracer of their own
        missing = [m.split(".")[0] for m in wanted if m not in metrics]
        for make in dict.fromkeys(LAYER_ROUNDS[layer] for layer in missing):
            extra = Tracer()
            _install_wrappers(extra)
            other = make(args.seed, extra, str(ROOT))
            other_stats = measure(other, 0)
            stats["errors"] += other_stats["errors"]
            metrics.update(other.layer_metrics(extra, other_stats))
            extra.uninstall()
        RESULTS.mkdir(exist_ok=True)
        tracer.write(
            RESULTS / f"trace-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "rounds": stats["rounds"],
             "ops_per_s": stats["ops_per_s"]},
        )
    for err in stats["errors"]:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
    return {
        "correct": not stats["errors"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }


def _spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def steadiness(args, spec) -> int:
    """Two sets of runs of each workload, on disjoint seeds, one after the
    other; prints both medians and quartile ranges per end-to-end metric."""
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    report = {}
    for name in names:
        sets = []
        for first in (1, 1001):
            runs = []
            for seed in range(first, first + args.runs):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    capture_output=True, text=True, check=True,
                )
                runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            sets.append(runs)
        rows = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a, b = ([r["metrics"][key]["value"] for r in runs] for runs in sets)
            worse = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            rows[key] = {
                "median": [statistics.median(a), statistics.median(b)],
                "spread": [_spread(a), _spread(b)],
                "bound": metric["bound"],
                "second_vs_first": worse if metric["better"] == "lower" else -worse,
            }
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        report[name] = {"metrics": rows, "failed_shares": shares, "correct": correct, "runs": sets}
        print(f"{name}: correct={correct} failed shares {shares[0]} / {shares[1]}")
        print(f"  {'metric':<12} {'median 1':>11} {'median 2':>11} {'IQR 1':>7} {'IQR 2':>7} "
              f"{'worse':>7} {'bound':>6}")
        for key, row in rows.items():
            print(f"  {key:<12} {row['median'][0]:>11.5g} {row['median'][1]:>11.5g} "
                  f"{row['spread'][0]:>7.1%} {row['spread'][1]:>7.1%} "
                  f"{row['second_vs_first']:>7.1%} {row['bound']:>6.0%}", flush=True)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"steadiness-{int(time.time())}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true", help="two sets of runs per workload")
    parser.add_argument("--runs", type=int, default=10, help="runs per set in steadiness mode")
    parser.add_argument("--workloads", help="comma-separated subset for steadiness mode")
    args = parser.parse_args(argv)
    spec = _load_spec()
    if args.steadiness:
        return steadiness(args, spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    print(json.dumps(run_once(args, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
