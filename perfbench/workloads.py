"""The benchmark workloads.

Each workload builds its inputs from the seed and hands the program one
round of operations at a time. The harness replays the round with the
same inputs, so the share of failed operations is the same in every run.
The first round's outputs are checked, outside the timed part, against
`reference` or against a property the method must have.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd
from statistics import median

import canalis
from canalis import cli as C
from canalis import exact_counts as E
from canalis import generator as G
from canalis import oracle as O
from canalis import probability as P

import reference as ref
from tracer import CountingRandom

HALF = Fraction(1, 2)


class CommandFailed(Exception):
    """A CLI command exited with a non-zero code."""


def _coprime_bias(rng: random.Random, b: int) -> Fraction:
    """a/b in lowest terms with a/b drawn from [1/3, 2/3), or from (0, 1)
    when no such a is coprime to b.

    The cost of a closed-form query grows with the sizes of a^i and
    (b-a)^j, so a numerator from 1 up to about b/4 makes a query up to
    twice as cheap; keeping p away from the ends keeps each query's cost
    nearly the same whatever the seed."""
    lo = max(1, b // 3)
    coprime = [a for a in range(1, b) if gcd(a, b) == 1]
    return Fraction(rng.choice([a for a in coprime if lo <= a < b - lo] or coprime), b)


def _same_fraction(text: str, value: Fraction) -> bool:
    """Exact comparison that never converts a long integer to or from str,
    so it is not limited by the interpreter's int digit limit."""
    num, _, den = text.partition("/")
    return Decimal(num) == Decimal(value.numerator) and Decimal(den or "1") == Decimal(
        value.denominator
    )


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _program_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Workload:
    """Interface: ``round()`` returns the operations of one round as
    zero-argument callables, the same operations on the same inputs every
    round; an operation that raises ``failure`` counts as failed.
    ``check(results)`` returns error strings for the first round's results,
    with an exception object for an operation that failed, and reports
    every failure other than the known ones; ``layer_metrics(tracer,
    stats)`` gives the traced run's numbers."""

    failure: type[Exception]
    # Operations are timed in process CPU time: the library computes
    # without waiting on anything, and an operation of several milliseconds
    # that other processes preempt would otherwise count their time as its
    # own.
    clock = staticmethod(time.process_time_ns)


# ---------------------------------------------------------------------------
# sampler workloads


class _Stream:
    """One generator configuration with its weights and random source;
    ``reset`` restarts the source from the configured seed."""

    def __init__(self, n, p, seed, tracer):
        self.config = G.GeneratorConfig(n=n, p=p, seed=seed)
        self.weights = G.category_weights(n, p)
        self.rng = CountingRandom(None) if tracer else None
        self.reset()

    def reset(self):
        if isinstance(self.rng, CountingRandom):
            self.rng.rng = random.Random(self.config.seed)
        else:
            self.rng = random.Random(self.config.seed)

    def draw(self):
        return G.generate(self.config, self.rng, self.weights)


class Draws(Workload):
    """Draws alternating over ``biases`` at one n, each round restarting
    every generator from its seed. No draw is expected to fail."""

    failure = G.RejectionLimitExceeded

    def __init__(self, seed, tracer, *, n, biases, per_round, tail_pct, law=False):
        rng = random.Random(seed)
        self.n = n
        self.tail_pct = tail_pct
        self.per_round = per_round
        self.streams = [_Stream(n, p, rng.getrandbits(64), tracer) for p in biases]
        self.setup_code = (
            "import canalis\nfrom fractions import Fraction\n"
            + "".join(
                f"canalis.CanalizingGenerator(canalis.GeneratorConfig(n={n}, "
                f"p=Fraction({p.numerator}, {p.denominator}), seed={s.config.seed}))\n"
                for p, s in zip(biases, self.streams)
            )
        )
        self.census = ref.Census(n) if law else None
        self.draws = 0
        self.attempts = 0

    def round(self):
        for stream in self.streams:
            stream.reset()
        return [self.streams[i % len(self.streams)].draw for i in range(self.per_round)]

    def check(self, results):
        errors = []
        observed = [{} for _ in self.streams]
        for i, out in enumerate(results):
            if isinstance(out, Exception):
                errors.append(f"draw {i} failed: {out}")
                continue
            table, rec = out
            if table.n != self.n or not ref.record_matches(
                table.bits, self.n, rec.q, rec.r, rec.subset, rec.values
            ):
                errors.append(f"draw disagrees with its record: q={rec.q} r={rec.r}")
            self.draws += 1
            self.attempts += rec.rejections + 1
            seen = observed[i % len(self.streams)]
            seen[table.bits] = seen.get(table.bits, 0) + 1
        for stream, seen in zip(self.streams, observed if self.census else []):
            stat, crit = ref.goodness_of_fit(seen, self.census.law(stream.config.p))
            if not stat <= crit:
                errors.append(
                    f"drawn law at p={stream.config.p} fails chi-square: {stat:.1f} > {crit:.1f}"
                )
        return errors[:5]

    def layer_metrics(self, tracer, stats):
        draws = self.draws * stats["rounds"]
        calls = sum(s.rng.calls for s in self.streams)
        bits = sum(s.rng.bits for s in self.streams)
        return {
            "generator.attempts_per_draw": (_mean(self.attempts, self.draws), "count"),
            "generator.bits_per_draw": (_mean(bits, draws), "bit"),
            "generator.rng_calls_per_draw": (_mean(calls, draws), "count"),
            "generator.category_us_per_draw": (_mean(tracer.ms("sample_category") * 1e3, draws), "us"),
            "generator.self_ms_per_draw": (_mean(tracer.self_ms("generate"), draws), "ms"),
            "generator.weights_ms": (_mean(tracer.ms("category_weights"), tracer.calls["category_weights"]), "ms"),
            "truth_table.classify_calls_per_draw": (_mean(tracer.calls["classify"], draws), "count"),
            "truth_table.classify_us_per_call": (_mean(tracer.ms("classify") * 1e3, tracer.calls["classify"]), "us"),
        }


def sample(seed, tracer, root):
    # the paper's default Monte Carlo case; per-draw overhead dominates.
    # 4000 draws put about 33 draws in each of the 120 cells of the
    # goodness-of-fit test. The slowest draws are those with the most
    # rejections; with 2000 draws, their 99th percentile moved between 10
    # and 13 attempts from seed to seed, and op_tail_ms with it
    return Draws(seed, tracer, n=3, biases=[HALF], per_round=4000, tail_pct=99, law=True)


def wide(seed, tracer, root):
    # 2^(n-q) free entries filled bit by bit dominate; a dyadic and a
    # non-dyadic bias side by side
    return Draws(seed, tracer, n=14, biases=[HALF, Fraction(1, 3)], per_round=60, tail_pct=80)


# ---------------------------------------------------------------------------
# closed forms


# The bias denominator for each n: a ladder over 2..100, falling again for
# n >= 14 to keep every query near a second or less, since the work grows
# with 2^n * log2(denominator) bits. Fixed denominators keep the cost of
# each query the same from seed to seed; the seed draws the numerators.
DENOMINATOR = {1: 2, 2: 3, 3: 4, 4: 5, 5: 7, 6: 9, 7: 12, 8: 16, 9: 25, 10: 36,
               11: 50, 12: 71, 13: 100, 14: 10, 15: 3, 16: 2}
PROB_MAX_N = 16
COUNT_MAX_N = 20
DECIMAL_DIGITS = 12
SCIENTIFIC_DIGITS = 10


class Exact(Workload):
    """Complement pairs of `prob --digits 12` queries for n = 1..16, and a
    `count --table --scientific` query for each n = 1..20. No query is
    expected to fail."""

    failure = ArithmeticError

    def __init__(self, seed):
        rng = random.Random(seed)
        self.queries = []
        for n in range(1, PROB_MAX_N + 1):
            p = _coprime_bias(rng, DENOMINATOR[n])
            self.queries += [("prob", n, p), ("prob", n, 1 - p)]
        self.queries += [("count", n, None) for n in range(1, COUNT_MAX_N + 1)]
        self.census = {n: ref.Census(n) for n in range(1, ref.CENSUS_MAX_N + 1)}
        self.kbits = []
        self.prob_queries = 0

    @staticmethod
    def _prob(n, p):
        b = P.prob_breakdown(n, p)
        values = [b.pr_c, b.pr_bc, *b.pr_pce.values(), *b.pr_nce.values()]
        return b, [P.decimal_string(v, DECIMAL_DIGITS) for v in values]

    @staticmethod
    def _count(n):
        total = E.count_canalizing(n)
        rows = [E.count_exact_k(n, k) for k in range(1, n + 1)]
        return total, rows, [E.scientific_string(v, SCIENTIFIC_DIGITS) for v in rows + [total]]

    def round(self):
        return [
            (lambda n=n, p=p: self._prob(n, p)) if kind == "prob" else (lambda n=n: self._count(n))
            for kind, n, p in self.queries
        ]

    def check(self, results):
        errors = []
        by_input = {}
        for (kind, n, p), out in zip(self.queries, results):
            if isinstance(out, Exception):
                errors.append(f"{kind} n={n} p={p} failed: {out}")
                continue
            by_input[kind, n, p] = out
            errors += self._check_prob(n, p, *out) if kind == "prob" else self._check_count(n, *out)
        for (kind, n, p), out in by_input.items():
            other = by_input.get((kind, n, 1 - p)) if kind == "prob" else None
            if other and not _mirrors(out[0], other[0]):
                errors.append(f"prob n={n}: p={p} and 1-p do not mirror")
        return errors[:5]

    def _check_prob(self, n, p, b, decimals):
        self.prob_queries += 1
        self.kbits.append(b.pr_c.numerator.bit_length() / 1000)
        errors = []
        values = [b.pr_c, b.pr_bc, *b.pr_pce.values(), *b.pr_nce.values()]
        # every value lies over b^(2^n) for p = a/b, so the sum is checked
        # in integers instead of by repeated Fraction reduction
        common = p.denominator ** (2**n)
        if any(common % v.denominator for v in values):
            errors.append(f"prob n={n} p={p}: a denominator does not divide b^(2^n)")
        elif sum(v.numerator * (common // v.denominator) for v in values[1:]) != (
            b.pr_c.numerator * (common // b.pr_c.denominator)
        ):
            errors.append(f"prob n={n} p={p}: classes do not sum to pr_c")
        for text, v in zip(decimals, values):
            if not ref.correctly_rounded(text, v, DECIMAL_DIGITS):
                errors.append(f"prob n={n} p={p}: {text} is not correctly rounded")
                break
        if n in self.census:
            census = self.census[n]
            expected = [census.prob(p), census.prob(p, "both")]
            expected += [census.prob(p, ("pos", k)) for k in range(1, n + 1)]
            expected += [census.prob(p, ("neg", k)) for k in range(1, n + 1)]
            if values != expected:
                errors.append(f"prob n={n} p={p}: class probabilities differ from the census")
        return errors

    def _check_count(self, n, total, rows, scientific):
        errors = []
        if sum(rows) != total:
            errors.append(f"count n={n}: rows do not sum to the total")
        if n <= PROB_MAX_N and total != P.prob_canalizing(n, HALF) * 2 ** (2**n):
            errors.append(f"count n={n}: differs from 2^(2^n) Pr(C) at p=1/2")
        census = self.census.get(n)
        if census:
            by_k = [census.count(("pos", k)) + census.count(("neg", k)) for k in range(1, n + 1)]
            by_k[0] += census.count("both")
            if total != census.count() or rows != by_k:
                errors.append(f"count n={n}: differs from the census")
        if n == 5 and total != ref.N5_CANALIZING_COUNT:
            errors.append(f"count n=5 is not the published {ref.N5_CANALIZING_COUNT}")
        if n >= 2:
            lower, upper = ref.count_bounds(n)
            if not lower <= total <= upper:
                errors.append(f"count n={n}: outside the sandwich bounds")
        for text, v in zip(scientific, rows + [total]):
            if not ref.correctly_rounded(text, Fraction(v), SCIENTIFIC_DIGITS):
                errors.append(f"count n={n}: {text} is not the rounded count")
                break
        return errors

    def layer_metrics(self, tracer, stats):
        queries = self.prob_queries * stats["rounds"]
        return {
            "probability.breakdown_ms_per_query": (_mean(tracer.ms("prob_breakdown"), queries), "ms"),
            "probability.decimal_ms_per_query": (_mean(tracer.ms("decimal_string"), queries), "ms"),
            "probability.numerator_kbits_per_query": (_mean(sum(self.kbits), len(self.kbits)), "kbit"),
            "exact_counts.count_us_per_row": (_mean(tracer.ms("count_exact_k") * 1e3, tracer.calls["count_exact_k"]), "us"),
            "exact_counts.scientific_ms_per_row": (_mean(tracer.ms("scientific_string"), tracer.calls["scientific_string"]), "ms"),
        }


def _mirrors(at_p, at_q) -> bool:
    return (
        at_p.pr_c == at_q.pr_c
        and at_p.pr_bc == at_q.pr_bc
        and at_p.pr_pce == at_q.pr_nce
        and at_p.pr_nce == at_q.pr_pce
    )


def exact(seed, tracer, root):
    # big-integer powers, Fraction reduction and Decimal rendering; no randomness
    return Exact(seed)


# ---------------------------------------------------------------------------
# command line


# Both exit 2 today: the result has more digits than str() converts by
# default, and the CLI reports the ValueError as a usage error.
KNOWN_FAILURES = (("count", "--n", "16"), ("prob", "--n", "14", "--p", "1/3", "--digits", "12"))


class Cli(Workload):
    """A fixed script of 30 commands, each a fresh `python -m canalis`:
    two passes over the command mix, each with its own inputs. Only the
    commands in KNOWN_FAILURES are expected to fail."""

    failure = CommandFailed
    # a command's time is spent in its own process
    clock = staticmethod(time.perf_counter_ns)

    def __init__(self, seed, root):
        rng = random.Random(seed)
        self.env = _program_env(root)
        self.script = [args for _ in range(2) for args in self._script(rng)]
        self.stdout_bytes = 0

    @staticmethod
    def _script(rng):
        def bias():
            return str(_coprime_bias(rng, rng.randint(2, 100)))

        def hex_table(n):
            return format(rng.getrandbits(1 << n), f"0{-(-(1 << n) // 4)}x")

        return [
            ("count", "--n", str(rng.randint(5, 12))),
            ("count", "--n", str(rng.randint(6, 14)), "--scientific"),
            ("count", "--n", str(rng.randint(3, 10)), "--table"),
            ("prob", "--n", str(rng.randint(4, 10)), "--p", bias(), "--digits", "12"),
            ("prob", "--n", str(rng.randint(4, 10)), "--p", bias(), "--digits", "12"),
            ("prob", "--n", str(rng.randint(3, 8)), "--p", bias(), "--k", "1", "--direction", "pos"),
            ("prob", "--n", str(rng.randint(3, 8)), "--p", bias(), "--k", "2"),
            ("classify", "--n", "4", "--hex", hex_table(4)),
            ("classify", "--n", "6", "--hex", hex_table(6)),
            ("generate", "--n", "3", "--p", "1/2", "--count", "200", "--seed",
             str(rng.getrandbits(64)), "--format", "lines"),
            ("generate", "--n", "4", "--p", bias(), "--count", "50", "--seed",
             str(rng.getrandbits(64)), "--format", "lines"),
            ("generate", "--n", "6", "--p", bias(), "--count", "20", "--seed",
             str(rng.getrandbits(64)), "--records"),
            ("verify", "--max-n", "4"),
            *KNOWN_FAILURES,
        ]

    def _run(self, args):
        proc = subprocess.run(
            [sys.executable, "-m", "canalis", *args], env=self.env, capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise CommandFailed(f"{' '.join(args)}: exit {proc.returncode}")
        return proc.stdout

    def round(self):
        return [lambda args=args: self._run(args) for args in self.script]

    def check(self, results):
        errors = []
        for args, out in zip(self.script, results):
            if isinstance(out, Exception):
                if args not in KNOWN_FAILURES:
                    errors.append(f"{out}, not a known failure")
                continue
            self.stdout_bytes += len(out.encode())
            try:
                ok = getattr(self, "_check_" + args[0])(_options(args), out)
            except (ValueError, KeyError, TypeError) as exc:
                ok = False
                errors.append(f"{' '.join(args)}: unreadable output ({exc})")
            if not ok:
                errors.append(f"{' '.join(args)}: output disagrees with the reference")
        return errors[:5]

    def _check_count(self, opt, out):
        n = int(opt["--n"])
        res = json.loads(out)["result"]
        total = E.count_canalizing(n)
        if "--table" in opt:
            rows = [E.count_exact_k(n, k) for k in range(1, n + 1)]
            ok = [r["k"] for r in res["rows"]] == list(range(1, n + 1))
            ok &= all(_same_fraction(r["count"], Fraction(v)) for r, v in zip(res["rows"], rows))
            return ok and _same_fraction(res["total"], Fraction(total))
        ok = _same_fraction(res["count"], Fraction(total))
        if "--scientific" in opt:
            ok &= ref.correctly_rounded(res["scientific"], Fraction(total), SCIENTIFIC_DIGITS)
        return ok

    def _check_prob(self, opt, out):
        n, p = int(opt["--n"]), Fraction(opt["--p"])
        res = json.loads(out)["result"]
        if "--k" not in opt:
            expected = {"value": P.prob_canalizing(n, p), "both_ways": P.prob_both_ways(n, p)}
        elif "--direction" in opt:
            expected = {"value": P.prob_exactly_k(n, int(opt["--k"]), p, opt["--direction"])}
        else:
            k = int(opt["--k"])
            expected = {d: P.prob_exactly_k(n, k, p, d) for d in ("positive", "negative")}
        ok = all(_same_fraction(res[key], v) for key, v in expected.items())
        if "--digits" in opt:
            ok &= all(
                ref.correctly_rounded(res[key + "_decimal"], v, int(opt["--digits"]))
                for key, v in expected.items()
            )
        return ok

    def _check_classify(self, opt, out):
        n, bits = int(opt["--n"]), int(opt["--hex"], 16)
        res = json.loads(out)["result"]
        positive, negative = ref.forcing_pairs(bits, n)
        cls = ref.table_class(bits, n)
        return (
            res["canalizing"] == (cls is not None)
            and {tuple(x) for x in res["positive"]} == positive
            and {tuple(x) for x in res["negative"]} == negative
            and res["is_constant"] == (bits in (0, (1 << (1 << n)) - 1))
        )

    def _check_generate(self, opt, out):
        n, p, seed = int(opt["--n"]), Fraction(opt["--p"]), int(opt["--seed"])
        gen = canalis.CanalizingGenerator(canalis.GeneratorConfig(n=n, p=p, seed=seed))
        draws = gen.draws(int(opt["--count"]))
        expected = [canalis.to_hex(t) for t, _ in draws]
        if "--records" not in opt:
            tables = out.split()
            ok = tables == expected
            return ok and all(ref.table_class(int(t, 16), n) is not None for t in tables)
        res = json.loads(out)["result"]
        ok = res["tables"] == expected
        for text, rec in zip(res["tables"], res["records"]):
            values = {int(i): v for i, v in rec["values"].items()}
            ok &= ref.record_matches(int(text, 16), n, rec["q"], rec["r"], tuple(rec["subset"]), values)
        return ok and len(res["records"]) == len(expected)

    def _check_verify(self, opt, out):
        max_n = int(opt["--max-n"])
        res = json.loads(out)["result"]
        # per n: the count, n exact-k counts, both-ways, and at each of the
        # five biases Pr(C), Pr(both-ways) and 2n exactly-k classes
        expected = sum(2 + n + len(C.VERIFY_BIASES) * (2 + 2 * n) for n in range(1, max_n + 1))
        return res["ok"] is True and res["checks_passed"] == expected

    def layer_metrics(self, tracer, stats):
        ms_by_command = {}
        for args, ns in zip(self.script, stats["op_min_ns"]):
            ms_by_command.setdefault(args[0], []).append(ns / 1e6)
        metrics = {f"cli.{name}_ms": (median(ms), "ms") for name, ms in ms_by_command.items()}
        metrics["cli.stdout_kb"] = (self.stdout_bytes / 1000 / len(self.script), "kB")
        imports = [import_times(self.env) for _ in range(3)]
        metrics["cli.import_ms"] = (median(t[0] for t in imports), "ms")
        metrics["cli.import_numpy_ms"] = (median(t[1] for t in imports), "ms")
        metrics.update(self._oracle_metrics(tracer))
        return metrics

    def _oracle_metrics(self, tracer):
        # the census work of `verify --max-n 4`, timed in process
        censuses = [O.enumerate_classify(n) for n in range(1, 5)]
        start = time.perf_counter_ns()
        for census in censuses:
            for p in C.VERIFY_BIASES:
                O.prob_from_census(census, p)
                O.both_ways_prob_from_census(census, p)
                for k in range(1, census.n + 1):
                    for d in ("positive", "negative"):
                        O.class_prob_from_census(census, k, d, p)
        return {
            "oracle.census_ms": (tracer.ms("enumerate_classify"), "ms"),
            "oracle.census_prob_ms": ((time.perf_counter_ns() - start) / 1e6, "ms"),
        }


def _options(args) -> dict:
    opt = {}
    for i, a in enumerate(args):
        if a.startswith("--"):
            nxt = args[i + 1] if i + 1 < len(args) else ""
            opt[a] = "" if nxt.startswith("--") else nxt
    return opt


def import_times(env) -> tuple[float, float]:
    """(canalis, numpy) cumulative import times in ms from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import canalis"],
        env=env, capture_output=True, text=True, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = [x.strip() for x in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1]) / 1000
    return cumulative["canalis"], cumulative["numpy"]


def cli(seed, tracer, root):
    # interpreter start, imports, argparse and JSON output per command
    return Cli(seed, root)


WORKLOADS = {"sample": sample, "wide": wide}
# The layers the sampler workloads do not exercise, and the workload of
# which a traced run measures one round for each. Neither workload is in
# WORKLOADS: their end-to-end figures are not steady enough to gate.
LAYER_ROUNDS = {"probability": exact, "exact_counts": exact, "oracle": cli, "cli": cli}
