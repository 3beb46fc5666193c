"""Command-line front end.

Subcommands: factorize, count, constant, polytope, toric, verify.
Reports go to standard output as JSON (default) or CSV key/value rows
carrying the same flattened pairs; diagnostics go to standard error.
Exit codes: 0 success, 1 usage error, 2 resource-limit error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from fractions import Fraction
from typing import Any

from . import constants, counting, factorization, toric, verify
from .errors import ContractViolation, ResourceLimit


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def _flatten(prefix: str, value: Any, rows: list[tuple[str, Any]]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def _emit(report: dict, fmt: str) -> None:
    payload = _jsonable(report)
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        rows: list[tuple[str, Any]] = []
        _flatten("", payload, rows)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, val in rows:
            writer.writerow([key, json.dumps(val) if isinstance(val, str) else val])
        sys.stdout.write(buf.getvalue())


def _parse_bound(text: str) -> tuple[float, Fraction]:
    """The height bound as reported (float) and as counted (exact).

    The float screens out inf, nan and values beyond the float range;
    the count floors the exact decimal value, so bounds above 2^53 are
    not rounded first.
    """
    try:
        value = float(text)
    except ValueError as exc:
        raise _UsageError(f"invalid height bound {text!r}") from exc
    if not math.isfinite(value):
        raise _UsageError(f"height bound must be finite, got {text!r}")
    return value, Fraction(text)


def _seed(text: str) -> int:
    """A Monte Carlo seed: numpy takes nonnegative integers only."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="hypercount",
                     description="Point counts, constant factors, and "
                                 "verification suites for the reciprocal-sum "
                                 "hypersurface family.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="factor a coordinate tuple into its "
                                         "reduced divisor tuple")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--y", required=True,
                   help="comma-separated positive integers")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("count", help="count points of height at most B")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--B", required=True, help="height bound >= 0; scientific "
                                              "notation accepted, floored "
                                              "exactly")
    p.add_argument("--method", choices=counting.METHODS, default="direct")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("constant", help="assemble the leading constant both ways")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--prime-limit", default="1e6")
    p.add_argument("--mc-samples", default="1e6")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--v-method", choices=("exact", "mc"), default="exact")
    p.add_argument("--beta-tol", type=float, default=1e-8)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("polytope", help="volume of the constraint polytope")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--method", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", default="1e6")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("toric", help="brute-force point count over F_p")
    p.add_argument("--kind", choices=("C", "B0", "X0"), required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=verify.SUITES, default="all")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--B", default="1e4")
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--heavy", action="store_true",
                   help="run the batteries at their full published sizes")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _int_param(text: str, name: str) -> int:
    try:
        value = int(float(text))
    except (ValueError, OverflowError) as exc:  # nan; inf or beyond the float range
        raise _UsageError(f"invalid {name} {text!r}") from exc
    if value < 1:
        raise _UsageError(f"{name} must be positive")
    return value


def _cmd_factorize(args: argparse.Namespace) -> dict:
    digits = sys.get_int_max_str_digits()  # Python's int <-> str limit, 0: none
    parts = args.y.split(",")
    if digits and max(map(len, parts)) > digits:
        raise ResourceLimit(f"tuple entries are limited to {digits} digits")
    try:
        y = tuple(int(part) for part in parts)
    except ValueError as exc:
        raise _UsageError(f"invalid tuple {args.y!r}") from exc
    if args.n is not None and args.n != len(y):
        raise _UsageError(f"--n {args.n} does not match tuple length {len(y)}")
    z = factorization.factorize(y)
    lcm = math.prod(z)
    if digits and lcm >= 10 ** digits:
        raise ResourceLimit(f"the lcm of the tuple is limited to {digits} digits")
    return {
        "command": "factorize", "n": len(y), "y": list(y), "z": list(z),
        "lcm": lcm, "reduced": factorization.is_reduced(z),
    }


def _cmd_count(args: argparse.Namespace) -> dict:
    B, exact = _parse_bound(args.B)
    report = counting.count_points(args.n, exact, args.method, shards=args.shards)
    return {
        "command": "count", "n": args.n, "B": B, "method": args.method,
        "shards": args.shards, "count": report.count,
        "log_exponent": report.log_exponent, "ratio": report.ratio,
        "log_ratio": report.log_ratio,
        "wall_time_s": report.seconds,
    }


def _cmd_constant(args: argparse.Namespace) -> dict:
    prime_limit = _int_param(args.prime_limit, "prime limit")
    samples = _int_param(args.mc_samples, "sample count")
    cfg = constants.AssemblyConfig(
        prime_limit=prime_limit, v_method=args.v_method, v_samples=samples,
        beta_tol=args.beta_tol, beta_samples=samples, mu_samples=samples,
        seed=args.seed)
    br = constants.assemble_constant(args.n, cfg)
    return {
        "command": "constant", "n": args.n, "config": dataclasses.asdict(cfg),
        "V": br.V, "V_exact": br.V_exact, "v_method": br.v_method,
        "beta_tilde": br.beta, "euler_product": br.euler,
        "zeta_n": br.zeta_n, "zeta_err": br.zeta_err,
        "alpha": br.alpha, "beta_brauer": br.beta_brauer,
        "omega_infinity": br.omega_infinity,
        "c_formula": br.c_formula, "c_peyre": br.c_peyre,
        "c_formula_err": br.c_formula_err, "c_peyre_err": br.c_peyre_err,
        "relative_discrepancy": br.relative_discrepancy,
        "discrepancy_within_budget": br.discrepancy_within_budget,
    }


def _cmd_polytope(args: argparse.Namespace) -> dict:
    if args.method == "exact":
        vol = constants.polytope_volume(args.n, "exact")
        result = {"volume": vol, "volume_float": float(vol)}
    else:
        samples = _int_param(args.samples, "sample count")
        est = constants.polytope_volume(args.n, "mc", samples, args.seed)
        result = {"volume": est.value, "standard_error": est.standard_error,
                  "samples": est.samples, "seed": est.seed}
    # the dimension is formed only for an n that polytope_volume admitted
    return {"command": "polytope", "n": args.n, "method": args.method,
            "dimension": (1 << args.n) - args.n - 1, **result}


def _cmd_toric(args: argparse.Namespace) -> dict:
    res = toric.enumerate_variety(args.kind, args.n, args.p)
    return {"command": "toric", "kind": res.kind, "n": res.n, "p": res.p,
            "count": res.count}


def _cmd_verify(args: argparse.Namespace) -> dict:
    B, exact = _parse_bound(args.B)
    results = verify.run_suite(
        args.suite, n=args.n, B=exact, shards=args.shards,
        seed=args.seed, heavy=args.heavy,
        log=lambda line: print(line, file=sys.stderr))
    return {
        "command": "verify", "suite": args.suite, "n": args.n,
        "B": B, "shards": args.shards, "seed": args.seed,
        "heavy": args.heavy,
        "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                   for r in results],
        "passed": sum(r.ok for r in results),
        "failed": sum(not r.ok for r in results),
    }


_COMMANDS = {
    "factorize": _cmd_factorize,
    "count": _cmd_count,
    "constant": _cmd_constant,
    "polytope": _cmd_polytope,
    "toric": _cmd_toric,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    try:
        report = _COMMANDS[args.command](args)
    except (_UsageError, ContractViolation) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    if "wall_time_s" not in report:
        report["wall_time_s"] = time.perf_counter() - start
    _emit(report, args.format)
    if report.get("failed"):
        print("verification failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
