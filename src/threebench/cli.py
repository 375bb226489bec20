"""Command-line front end.

    threebench solve <problem> --algo <id> --input <file> [--g --s --p --q --K --seed]
    threebench bench --problem ... --algos ... --sizes ... --trials ... --csv out
    threebench bench --config <keyfile>
    threebench fit --csv <in>

Exit codes: 0 = ran, 1 = usage error or invalid input, 2 = oracle mismatch.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness, trimatrix
from .core import ComparisonLedger


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="threebench", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one solver on an instance file")
    solve.add_argument("problem", choices=harness.PROBLEMS)
    solve.add_argument("--algo", required=True, choices=sorted({a for _, a in harness.SOLVERS}))
    solve.add_argument("--input", required=True)
    for key in harness.PARAMS:
        solve.add_argument(f"--{key}", type=int)
    solve.add_argument("--seed", type=int, help="seed of a sampling solver (default 0)")
    solve.add_argument("--k", type=int, help="ldt arity (default 3, or that of --alphas)")
    solve.add_argument("--alphas", help="ldt coefficients a0,a1,...,ak")
    solve.add_argument("--no-check", action="store_true",
                       help="skip the witness check and the oracle cross-check")

    bench = sub.add_parser("bench", help="run an experiment grid, write CSV")
    bench.add_argument("--config", help="key = value file; flags override")
    bench.add_argument("--problem", choices=harness.PROBLEMS)
    bench.add_argument("--algos", help="comma-separated algorithm ids")
    bench.add_argument("--sizes", help="comma-separated sizes, ascending")
    bench.add_argument("--trials", type=int)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--generator", choices=harness.GENERATORS)
    bench.add_argument("--csv")
    bench.add_argument("--oracle-cap", type=int)

    fit = sub.add_parser("fit", help="fit tick-count scaling exponents")
    fit.add_argument("--csv", required=True)
    return parser


def _read_vector(path):
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                values.append(float(line))
    return np.asarray(values, dtype=np.float64)


def _load_instance(problem, path):
    if problem in ("3sum", "ldt", "conv"):
        return _read_vector(path)
    if problem == "zerotri":
        return trimatrix.read_graph(path)
    with open(path) as fh:
        tokens = fh.read().split()
    a, pos = trimatrix.read_matrix(tokens, 0)
    b, pos = trimatrix.read_matrix(tokens, pos)
    t, pos = trimatrix.read_matrix(tokens, pos)
    return a, b, t


def _solve_options(args):
    options = {key: getattr(args, key) for key in harness.PARAMS + ("k",)
               if getattr(args, key) is not None}
    if args.alphas:
        options["alphas"] = tuple(float(t) for t in args.alphas.split(","))
    return options


def _cmd_solve(args) -> int:
    instance = _load_instance(args.problem, args.input)
    options = _solve_options(args)
    ledger = ComparisonLedger()
    found, payload, params = harness.run_solver(
        args.problem, args.algo, instance, options, ledger, args.seed or 0)
    # params holds what the solver read; k and alphas make the form of ldt
    given = set(options) | ({"seed"} if args.seed is not None else set())
    unread = given - set(params) - ({"k", "alphas"} if args.problem == "ldt" else set())
    if unread:
        raise ValueError(f"{args.problem} {args.algo} reads no "
                         + ", ".join(f"--{key}" for key in sorted(unread)))
    size = harness._instance_size(args.problem, instance)
    if not args.no_check:
        harness.check_witness(args.problem, instance, found, payload)
        if size <= harness.DEFAULT_ORACLE_CAPS[args.problem]:
            harness.cross_check(args.problem, instance, found, payload, options)
    print(f"problem: {args.problem}")
    print(f"algo: {args.algo}")
    print(f"n: {size}")
    print(" ".join(["params:"] + [f"{key}={val}" for key, val in params.items()]))
    print(f"decision: {'witness' if found else 'no-witness'}")
    if found and payload is not None and args.problem != "tmp":
        print(f"witness: {' '.join(str(x) for x in payload)}")
    print(f"ticks3: {ledger.count_3linear}")
    print(f"ticks4: {ledger.count_4linear}")
    print(f"ticksK: {ledger.other_total()}")
    print(f"total: {ledger.total()}")
    return 0


def _parse_keyfile(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _cmd_bench(args) -> int:
    raw = _parse_keyfile(args.config) if args.config else {}
    if args.problem:
        raw["problem"] = args.problem
    if args.algos:
        raw["algos"] = args.algos
    if args.sizes:
        raw["sizes"] = args.sizes
    if args.trials is not None:
        raw["trials"] = str(args.trials)
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    if args.generator:
        raw["generator"] = args.generator
    if args.csv:
        raw["csv"] = args.csv
    if args.oracle_cap is not None:
        raw["oracle_cap"] = str(args.oracle_cap)
    for key in ("problem", "algos", "sizes"):
        if key not in raw:
            raise UsageError(f"bench needs {key!r} (flag or config)")
    try:
        config = harness.ExperimentConfig(
            problem=raw["problem"],
            algos=tuple(a.strip() for a in raw["algos"].split(",") if a.strip()),
            sizes=tuple(int(s) for s in raw["sizes"].split(",") if s.strip()),
            trials=int(raw.get("trials", 1)),
            seed=int(raw.get("seed", 0)),
            generator=raw.get("generator", "uniform"),
            csv_path=raw.get("csv"),
            oracle_cap=int(raw["oracle_cap"]) if "oracle_cap" in raw else None)
    except ValueError as exc:
        raise UsageError(str(exc))
    records = harness.run_experiment(config)
    print(f"ran {len(records)} runs "
          f"({len(config.sizes)} sizes x {config.trials} trials x {len(config.algos)} algos)")
    if config.csv_path:
        print(f"csv: {config.csv_path}")
    return 0


def _cmd_fit(args) -> int:
    records = harness.read_records(args.csv)
    fits = harness.fit_exponent(records)
    for (problem, algo), fit in sorted(fits.items()):
        print(f"{problem} {algo}: slope={fit.slope:.4f} "
              f"ci95=[{fit.ci_low:.4f}, {fit.ci_high:.4f}] "
              f"sizes={list(fit.sizes)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_fit(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except harness.OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
