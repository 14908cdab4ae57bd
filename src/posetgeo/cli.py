"""Command-line interface: generate layouts, classify events against
chain pairs, run verification suites, export posets.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from .collinearity import census
from .errors import PosetGeoError, UnknownChain, UnknownFormat
from .generators import (
    collinear_config,
    dotprod_config,
    grid_config,
    lattice_1p1,
    pythagoras_config,
    random_dag,
    simplex_config,
)
from .projection import Projector
from .serialize import (
    dump_json,
    load_json,
    require_chain,
    to_dot,
)
from .verify import run_suite

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@contextmanager
def _output(path: str | None):
    """The output stream for --out: stdout for None or "-", else the file,
    closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as out:
            yield out


def _write(path: str | None, text: str) -> None:
    with _output(path) as out:
        out.write(text)


def _rational(text: str) -> Fraction:
    """A spacing argument: "1/0" is bad input like "x", not a crash."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"spacing {text!r} has a zero denominator") from None


def cmd_generate(args: argparse.Namespace) -> int:
    kind, ticks = args.kind, args.ticks
    if kind == "lattice1p1":
        bundle = lattice_1p1(args.width, ticks)
    elif kind == "collinear":
        bundle = collinear_config(args.chains, _rational(args.spacing), ticks)
    elif kind == "simplex":
        bundle = simplex_config(args.chains, _rational(args.spacing), ticks)
    elif kind == "grid":
        spacings = _rational(args.row_spacing), _rational(args.col_spacing)
        bundle = grid_config(args.rows, args.cols, *spacings, ticks).bundle
    elif kind == "pythagoras":
        bundle = pythagoras_config(args.leg_a, args.leg_b, ticks).bundle
    elif kind == "dotprod":
        bundle = dotprod_config(args.scale, ticks).bundle
    else:  # randomdag: argparse restricts the choices
        poset = random_dag(args.n, args.p, args.seed)
        with _output(args.out) as out:
            dump_json(poset, [], out)
        return EXIT_PASS
    with _output(args.out) as out:
        dump_json(bundle.poset, bundle.chains, out)
    return EXIT_PASS


def cmd_classify(args: argparse.Namespace) -> int:
    with open(args.poset, encoding="utf-8") as fp:
        poset, chains = load_json(fp)
    if args.chain_a == "all" and args.chain_b == "all":
        pairs = list(combinations(chains.values(), 2))
    elif args.chain_a == args.chain_b:
        raise UnknownChain("classification needs two distinct chains")
    else:
        pairs = [
            (require_chain(chains, args.chain_a), require_chain(chains, args.chain_b))
        ]
    result = census(Projector(poset), pairs)
    if args.format == "csv":
        _write(args.out, result.to_csv())
    else:
        doc = {
            "command": "classify",
            "inputs": {"poset": args.poset, "chains": [args.chain_a, args.chain_b]},
            "histogram": dict(sorted(result.histogram.items())),
            "total": result.total,
            "legal_codes_only": result.legal_codes_only,
        }
        _write(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_PASS if result.legal_codes_only else EXIT_CHECK_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    params = {}
    if args.suite == "pythagoras":
        params["max_leg"] = args.max_leg
    if args.suite == "parallel":
        params["trials"] = args.trials
        params["seed"] = args.seed
    report = run_suite(args.suite, **params)
    _write(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def cmd_export(args: argparse.Namespace) -> int:
    with open(args.poset, encoding="utf-8") as fp:
        poset, chains = load_json(fp)
    chain_list = list(chains.values())
    if args.format == "dot":
        _write(args.out, to_dot(poset, chain_list))
    elif args.format == "json":
        with _output(args.out) as out:
            dump_json(poset, chain_list, out)
    else:
        raise UnknownFormat(f"unsupported export format {args.format!r}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetgeo",
        description="Exact chain-projection geometry on event posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generated poset as JSON")
    gen.add_argument(
        "kind",
        choices=[
            "lattice1p1",
            "collinear",
            "simplex",
            "grid",
            "pythagoras",
            "dotprod",
            "randomdag",
        ],
    )
    gen.add_argument("--width", type=int, default=5)
    gen.add_argument("--ticks", type=int, default=None)
    gen.add_argument("--chains", type=int, default=3)
    gen.add_argument("--spacing", default="1")
    gen.add_argument("--rows", type=int, default=3)
    gen.add_argument("--cols", type=int, default=3)
    gen.add_argument("--row-spacing", default="3")
    gen.add_argument("--col-spacing", default="4")
    gen.add_argument("--leg-a", type=int, default=3)
    gen.add_argument("--leg-b", type=int, default=4)
    gen.add_argument("--scale", type=int, default=1)
    gen.add_argument("--n", type=int, default=50)
    gen.add_argument("--p", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_generate)

    cls = sub.add_parser("classify", help="projection-code census for a chain pair")
    cls.add_argument("poset")
    cls.add_argument("chain_a")
    cls.add_argument("chain_b")
    cls.add_argument("--format", choices=["json", "csv"], default="json")
    cls.add_argument("--out", default=None)
    cls.set_defaults(func=cmd_classify)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite")
    ver.add_argument("--max-leg", type=int, default=20)
    ver.add_argument("--trials", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    exp = sub.add_parser("export", help="rewrite a poset file as JSON or DOT")
    exp.add_argument("poset")
    exp.add_argument("--format", default="json")
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PosetGeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
