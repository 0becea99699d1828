"""Command-line surface: count, prob, classify, generate, verify.

Every command prints one JSON envelope {format_version, command, params,
result} to stdout; numeric results are exact decimal or fraction strings,
never floats. Exit codes are stable API: 0 ok, 2 usage error, 3 range
error, 4 generator starvation, 5 verification mismatch, 141 stdout closed
by its reader (as a shell reports a writer ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from fractions import Fraction

from . import __version__
from .exact_counts import (
    count_both_ways,
    count_canalizing,
    count_exact_k,
    scientific_string,
)
from .generator import (
    STREAM_VERSION,
    CanalizingGenerator,
    GeneratorConfig,
    RejectionLimitExceeded,
)
from .limits import RangeError
from .oracle import (
    ORACLE_MAX_N,
    both_ways_prob_from_census,
    census_to_json,
    class_prob_from_census,
    prob_from_census,
    profile_census,
)
from .probability import (
    decimal_string,
    parse_bias,
    prob_both_ways,
    prob_breakdown,
    prob_canalizing,
    prob_exactly_k,
)
from .truth_table import classify, from_hex, to_hex

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RANGE = 3
EXIT_STARVED = 4
EXIT_MISMATCH = 5
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE

VERIFY_BIASES = (
    Fraction(1, 10),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(9, 10),
)


def _envelope(command: str, params: dict, result: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "params": params,
        "result": result,
    }


def _emit(envelope: dict) -> None:
    print(json.dumps(envelope, indent=2))


def _emit_csv(rows: list[dict]) -> None:
    if not rows:
        return
    header = list(rows[0])
    print(",".join(header))
    for row in rows:
        print(",".join(str(row[k]) for k in header))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canalis",
        description="Exact counts, probabilities, classification and random "
        "generation of canalizing Boolean functions.",
    )
    parser.add_argument("--version", action="version", version=f"canalis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="number of canalizing functions")
    p_count.add_argument("--n", type=int, required=True, help="variable count")
    p_count.add_argument("--k", type=int, help="count only exactly-k canalizing functions")
    p_count.add_argument(
        "--table", action="store_true", help="emit rows for k = 1..n plus the total"
    )
    p_count.add_argument(
        "--scientific", action="store_true", help="include 10-significant-digit rounding"
    )
    p_count.add_argument("--format", choices=("json", "csv"), default="json")

    p_prob = sub.add_parser("prob", help="exact class probabilities under bias p")
    p_prob.add_argument("--n", type=int, required=True)
    p_prob.add_argument("--p", type=str, required=True, help="bias as a/b or a decimal")
    p_prob.add_argument("--k", type=int, help="exactly-k class instead of the full class")
    p_prob.add_argument("--direction", choices=("pos", "neg"), help="with --k: one direction")
    p_prob.add_argument("--digits", type=int, help="add a rounded decimal rendering")
    p_prob.add_argument("--format", choices=("json", "csv"), default="json")

    p_cls = sub.add_parser("classify", help="canalizing profile of one truth table")
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--hex", type=str, required=True, help="packed table, hex text form")

    p_gen = sub.add_parser("generate", help="sample canalizing functions")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=str, required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, help="64-bit seed; drawn from entropy if absent")
    p_gen.add_argument("--max-rejections", type=int, default=10000)
    p_gen.add_argument(
        "--records", action="store_true", help="include per-draw records in the envelope"
    )
    p_gen.add_argument(
        "--format",
        choices=("json", "lines"),
        default="json",
        help="lines = raw hex tables, one per line",
    )

    p_ver = sub.add_parser("verify", help="cross-check closed forms against brute force")
    p_ver.add_argument(
        "--max-n",
        type=int,
        default=4,
        help=f"verify n = 1..max-n against the profile-DP census (max {ORACLE_MAX_N})",
    )
    p_ver.add_argument(
        "--emit-census", action="store_true", help="include full census documents"
    )
    return parser


def cmd_count(args) -> int:
    params = {"n": args.n, "k": args.k, "table": args.table}
    if args.table and (args.k is not None or args.scientific):
        print("count: --table excludes --k and --scientific", file=sys.stderr)
        return EXIT_USAGE
    if args.table:
        rows = [{"k": k, "count": str(count_exact_k(args.n, k))} for k in range(1, args.n + 1)]
        total = str(count_canalizing(args.n))
        if args.format == "csv":
            _emit_csv(rows + [{"k": "total", "count": total}])
            return EXIT_OK
        _emit(_envelope("count", params, {"rows": rows, "total": total}))
        return EXIT_OK
    value = count_exact_k(args.n, args.k) if args.k is not None else count_canalizing(args.n)
    result = {"count": str(value)}
    if args.scientific:
        result["scientific"] = scientific_string(value)
    if args.format == "csv":
        _emit_csv([{"n": args.n, "k": args.k if args.k is not None else "", **result}])
        return EXIT_OK
    _emit(_envelope("count", params, result))
    return EXIT_OK


def cmd_prob(args) -> int:
    bias = parse_bias(args.p)
    params = {"n": args.n, "p": str(bias), "k": args.k, "direction": args.direction}
    if args.direction is not None and args.k is None:
        print("prob: --direction requires --k", file=sys.stderr)
        return EXIT_USAGE
    values: dict[str, Fraction] = {}
    if args.k is None:
        values["value"] = prob_canalizing(args.n, bias)
        values["both_ways"] = prob_both_ways(args.n, bias)
    elif args.direction is not None:
        values["value"] = prob_exactly_k(args.n, args.k, bias, args.direction)
    else:
        values["positive"] = prob_exactly_k(args.n, args.k, bias, "positive")
        values["negative"] = prob_exactly_k(args.n, args.k, bias, "negative")
    result = {key: str(value) for key, value in values.items()}
    if args.digits is not None:
        for key, value in values.items():
            result[f"{key}_decimal"] = decimal_string(value, args.digits)
    if args.format == "csv":
        _emit_csv([{"n": args.n, "p": str(bias), **result}])
        return EXIT_OK
    _emit(_envelope("prob", params, result))
    return EXIT_OK


def cmd_classify(args) -> int:
    table = from_hex(args.n, args.hex)
    profile = classify(table)
    result = {
        "hex": to_hex(table),
        "canalizing": profile.canalizing,
        "positive": sorted(map(list, profile.positive)),
        "negative": sorted(map(list, profile.negative)),
        "both_ways_variable": profile.both_ways_variable,
        "is_constant": profile.is_constant,
        "constant_value": profile.constant_value,
        "num_canalizing_vars": profile.num_canalizing_vars,
    }
    _emit(_envelope("classify", {"n": args.n, "hex": args.hex}, result))
    return EXIT_OK


def cmd_generate(args) -> int:
    seed = args.seed if args.seed is not None else secrets.randbits(64)
    bias = parse_bias(args.p)
    if args.count < 1:
        print("generate: --count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.records and args.format == "lines":
        print("generate: --records requires --format json", file=sys.stderr)
        return EXIT_USAGE
    config = GeneratorConfig(
        n=args.n, p=bias, seed=seed, max_rejections=args.max_rejections
    )
    draws = CanalizingGenerator(config).draws(args.count)
    if args.format == "lines":
        for table, _ in draws:
            print(to_hex(table))
        return EXIT_OK
    params = {
        "n": args.n,
        "p": str(bias),
        "count": args.count,
        "seed": seed,
        "max_rejections": args.max_rejections,
        "stream": STREAM_VERSION,
    }
    tables, records = [], []
    for table, record in draws:
        tables.append(to_hex(table))
        if args.records:
            records.append(
                {
                    "q": record.q,
                    "r": record.r,
                    "subset": list(record.subset),
                    "values": {str(i): v for i, v in sorted(record.values.items())},
                    "rejections": record.rejections,
                }
            )
    result: dict = {"tables": tables}
    if args.records:
        result["records"] = records
    _emit(_envelope("generate", params, result))
    return EXIT_OK


def _verify_checks(census):
    """Yield (name, closed form, census value) for every check of one
    census, cheapest first; the census never consults the closed forms."""
    n = census.n
    yield f"count_canalizing n={n}", count_canalizing(n), census.canalizing
    for k in range(1, n + 1):
        yield f"count_exact_k n={n} k={k}", count_exact_k(n, k), census.by_exact_k[k]
    yield f"count_both_ways n={n}", count_both_ways(n), census.both_ways
    for p in VERIFY_BIASES:
        yield f"prob_canalizing n={n} p={p}", prob_canalizing(n, p), prob_from_census(census, p)
        yield (
            f"prob_both_ways n={n} p={p}",
            prob_both_ways(n, p),
            both_ways_prob_from_census(census, p),
        )
        for k in range(1, n + 1):
            for direction in ("positive", "negative"):
                yield (
                    f"prob_exactly_k n={n} k={k} {direction} p={p}",
                    prob_exactly_k(n, k, p, direction),
                    class_prob_from_census(census, k, direction, p),
                )


def cmd_verify(args) -> int:
    if not 1 <= args.max_n <= ORACLE_MAX_N:
        print(f"verify: --max-n must be between 1 and {ORACLE_MAX_N}", file=sys.stderr)
        return EXIT_USAGE
    params = {"max_n": args.max_n}
    passed = 0
    censuses = []
    for n in range(1, args.max_n + 1):
        census = profile_census(n)
        censuses.append(census)
        for name, expected, actual in _verify_checks(census):
            if expected != actual:
                expected, actual = str(expected), str(actual)
                disagreement = {"check": name, "expected": expected, "actual": actual}
                result = {"ok": False, "first_disagreement": disagreement, "checks_passed": passed}
                _emit(_envelope("verify", params, result))
                print(
                    f"verify: MISMATCH in {name}: expected {expected}, got {actual}",
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
            passed += 1
    result = {"ok": True, "checks_passed": passed}
    if args.emit_census:
        result["censuses"] = [census_to_json(census) for census in censuses]
    _emit(_envelope("verify", params, result))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "count": cmd_count,
        "prob": cmd_prob,
        "classify": cmd_classify,
        "generate": cmd_generate,
        "verify": cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        # a reader that closed stdout early shows up here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # e.g. `| head -1`: what is still buffered goes to devnull, so the
        # flush at interpreter exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except RangeError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except RejectionLimitExceeded as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_STARVED
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
