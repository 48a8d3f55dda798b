"""Command-line interface: reproducible construction, measurement, and
bound-verdict runs with machine-readable output.

Exit status: 0 when every verdict passes, 2 when a verdict fails or a
verifier runs out of budget before finishing, 1 for usage or runtime
errors.  Any command with an explicit seed produces byte-identical
output across reruns and worker counts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import bounds as bounds_mod
from .errors import BudgetExceededError, TreeFactorError
from .processes import (
    DEFAULT_ENUM_BUDGET,
    RULES,
    GaussianSignSpec,
    exact_joint,
    gaussian_sign_measure,
    listing_normalized_mi,
    mc_joint,
    random_regular_graph,
    sparse_coloring,
    sparse_set_labeling,
    check_sparse_set,
    check_sparse_coloring,
    short_cycle_count,
)
from .information import MeasuredQuantity
from .tree import BallRegion, ball_size
from .words import (
    DEFAULT_SEQUENCE_BUDGET,
    build_generators,
    certify_free_claim,
    verify_coset_factorization,
    verify_free_claim,
    word_to_str,
)

BUDGET_ENV_VAR = "TREEFACTOR_BUDGET"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT_FAILED = 2


class _Parser(argparse.ArgumentParser):
    # Usage problems exit with 1; code 2 is reserved for failed verdicts.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type that accepts an integer >= ``low``, so a bad value
    is a usage error before any work runs."""
    def parse(spec: str) -> int:
        try:
            value = int(spec)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {spec!r}")
        return value
    return parse


_budget = _int_at_least(0)  # the type of every --budget flag


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(rows: list[dict], lines: list[str], fieldnames: list[str], args) -> None:
    if args.format == "text":
        payload = "\n".join(lines) + "\n"
    elif args.format == "json":
        payload = json.dumps({"schema": 1, "rows": rows}, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["schema"] + fieldnames)
        for row in rows:
            writer.writerow(["1"] + [_fmt(row.get(name)) for name in fieldnames])
        payload = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# The bound and verdict columns of the universal and of the fixed-process verdict.
_VERDICT_FIELDS = [
    "universal_normalized_MI_bound_bound", "universal_normalized_MI_bound_verdict",
    "fixed_process_MI_bound_bound", "fixed_process_MI_bound_verdict",
]


def _add_verdicts(row: dict, lines: list[str], d: int, k: int, nmi, mi=None, m=None) -> int:
    """Add the universal verdict on ``nmi`` and, given ``mi``, the fixed-process verdict
    for ``m`` output values to ``row`` and ``lines``; return their exit status."""
    verdicts = [bounds_mod.universal_verdict(d, k, nmi)]
    if mi is not None:
        verdicts.append(bounds_mod.fixed_process_verdict(d, k, m, mi))
    for i, v in enumerate(verdicts):
        row[_VERDICT_FIELDS[2 * i]] = v.bound
        row[_VERDICT_FIELDS[2 * i + 1]] = "PASS" if v.passed else "FAIL"
        lines.append(f"  {v}")
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_VERDICT_FAILED


def cmd_generators(args) -> int:
    gs = build_generators(args.d, args.k)
    certificate = certify_free_claim(gs, budget=args.budget)
    report = verify_free_claim(gs, args.nmax, budget=args.budget)
    row = {
        "d": args.d,
        "k": args.k,
        "rank": gs.claimed_rank,
        "construction": gs.construction,
        "free_claim": "PASS" if report.passed else "FAIL",
        "complete": report.complete,
        "sequences_checked": report.checked,
        "min_product_length": report.min_product_length,
        "certificate": certificate.verdict,
        "certificate_states": certificate.states,
        "elements": " ".join(word_to_str(w) for w in gs.elements),
    }
    lines = [
        f"generators d={args.d} k={args.k}: rank {gs.claimed_rank} ({gs.construction})",
        f"free-claim {report}",
        f"certificate {certificate}",
    ]
    _emit([row], lines, list(row.keys()), args)
    certified = certificate.verdict == "PASS" and report.passed and report.complete
    return EXIT_OK if certified else EXIT_VERDICT_FAILED


def cmd_factorization(args) -> int:
    report = verify_coset_factorization(args.d, args.k, args.L, budget=args.budget)
    row = {
        "d": args.d,
        "k": args.k,
        "L": args.L,
        "result": "PASS" if report.passed else "FAIL",
        "complete": report.complete,
        "items_checked": report.checked,
        "ball_size": ball_size(args.d, args.L),
        "message": report.message,
    }
    lines = [f"factorization d={args.d} k={args.k} L={args.L}: {report}"]
    _emit([row], lines, list(row.keys()), args)
    return EXIT_OK if report.passed and report.complete else EXIT_VERDICT_FAILED


# Each measurement returns its rows, text lines, exit status and the region
# it was measured on (None where no region is built).
def _measure_block_rule(args) -> tuple[list[dict], list[str], int, Optional[BallRegion]]:
    rule = RULES[args.process](args.d)
    if args.R is not None and args.R != rule.radius:
        raise ValueError(
            f"rule {args.process!r} has radius {rule.radius}, not {args.R}"
        )
    pm = None
    if args.method in ("auto", "exact"):
        try:
            pm = exact_joint(rule, args.d, args.k, budget=args.budget)
        except BudgetExceededError:
            if args.method == "exact":
                raise
    if pm is None:
        pm = mc_joint(rule, args.d, args.k, args.samples, args.seed)
    row = pm.to_row()
    row["process"] = args.process
    lines = [
        f"measure process={args.process} d={args.d} k={args.k} method={pm.method}",
        f"  H={pm.entropy_v} I={pm.mi} I/H={pm.nmi}",
    ]
    code = _add_verdicts(row, lines, args.d, args.k, pm.nmi, pm.mi, len(rule.output_values))
    return [row], lines, code, pm.region


def _measure_listing(args) -> tuple[list[dict], list[str], int, Optional[BallRegion]]:
    if args.R is None:
        raise ValueError("the listing process needs --R")
    ratio = listing_normalized_mi(args.d, args.R, args.k)
    row = {
        "process": "listing",
        "d": args.d,
        "k": args.k,
        "R": args.R,
        "method": "closed-form",
        "nmi": ratio,
    }
    lines = [f"measure process=listing d={args.d} k={args.k} R={args.R}: I/H -> {ratio!r}"]
    code = _add_verdicts(row, lines, args.d, args.k, MeasuredQuantity(ratio, 0.0, "closed-form"))
    return [row], lines, code, None


def _measure_gaussian_sign(args) -> tuple[list[dict], list[str], int, Optional[BallRegion]]:
    spec = GaussianSignSpec(args.d, args.eps, args.D, tail_tol=args.tail_tol)
    pm = gaussian_sign_measure(spec, args.k, args.samples if args.method != "exact" else 0,
                               seed=args.seed)
    row = pm.to_row()
    row["process"] = "gaussian-sign"
    lines = [
        f"measure process=gaussian-sign d={args.d} k={args.k} method={pm.method}",
        f"  I={pm.mi} corr={pm.corr}",
    ]
    code = _add_verdicts(row, lines, args.d, args.k, pm.nmi, pm.mi, 2)
    return [row], lines, code, pm.region


_MEASURE_FIELDS = [
    "process", "d", "k", "R", "method", "samples", "seed",
    "H", "H_stderr", "I", "I_stderr", "nmi", "nmi_stderr",
    "corr", "corr_stderr",
] + _VERDICT_FIELDS

# Defaults of the measure options, for the measure parser and every sweep row.
_MEASURE_DEFAULTS = {
    "R": None, "samples": 100_000, "seed": 0, "method": "auto", "eps": 0.25, "D": 8, "tail_tol": None,
}


def _measure_dispatch(args) -> tuple[list[dict], list[str], int, Optional[BallRegion]]:
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    if args.method == "mc" and args.samples < 1:
        raise ValueError(f"--method mc needs --samples >= 1, got {args.samples}")
    if args.process in RULES:
        return _measure_block_rule(args)
    if args.process == "listing":
        return _measure_listing(args)
    if args.process == "gaussian-sign":
        return _measure_gaussian_sign(args)
    known = sorted(RULES) + ["listing", "gaussian-sign"]
    raise ValueError(f"unknown process {args.process!r}; known: {', '.join(known)}")


def cmd_measure(args) -> int:
    if args.dump_region and args.process not in RULES:
        raise ValueError(f"--dump-region needs a block-rule process "
                         f"({', '.join(sorted(RULES))}), got {args.process!r}")
    rows, lines, code, region = _measure_dispatch(args)
    if args.dump_region:
        with open(args.dump_region, "w") as fh:
            fh.write(region.to_json() + "\n")
    _emit(rows, lines, _MEASURE_FIELDS, args)
    return code


_MEASURE_METHODS = ("auto", "exact", "mc")


def _parse_k_values(spec: str) -> list[int]:
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        ks = list(range(int(lo), int(hi) + 1))
    else:
        ks = [int(part) for part in spec.split(",")]
    if not ks or min(ks) < 1:
        raise ValueError(spec)
    return ks


def _positive_float(spec: str) -> float:
    value = float(spec)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(spec)
    return value


# key -> (conversion, what the value must be)
_SWEEP_KEYS = {
    "process": (str, "str"),
    "d": (int, "int"),
    "k": (_parse_k_values, "distances >= 1 as n, lo:hi or n,m,..."),
    "R": (int, "int"),
    "samples": (int, "int"),
    "seed": (int, "int"),
    "method": (str, "str"),
    "eps": (_positive_float, "a positive finite float"),
    "D": (int, "int"),
    "tail_tol": (_positive_float, "a positive finite float"),
}


def _parse_sweep_config(path: str) -> dict:
    config = {}
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, raw_bytes in enumerate(data.splitlines(), 1):  # \n, \r\n or \r, as text mode
        try:
            raw = raw_bytes.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SWEEP_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        convert, expected = _SWEEP_KEYS[key]
        value = value.strip()
        try:
            config[key] = convert(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} must be {expected}, "
                             f"got {value!r}") from None
        if key == "method" and config[key] not in _MEASURE_METHODS:
            raise ValueError(f"{path}:{lineno}: method must be one of "
                             f"{', '.join(_MEASURE_METHODS)}, got {config[key]!r}")
        if key == "samples" and config[key] < 1:
            raise ValueError(f"{path}:{lineno}: samples must be >= 1, got {config[key]}")
    if "process" not in config or "d" not in config or "k" not in config:
        raise ValueError(f"{path}: a sweep needs at least process, d, and k")
    return config


def cmd_sweep(args) -> int:
    config = _parse_sweep_config(args.config)
    worst = EXIT_OK
    rows: list[dict] = []
    lines: list[str] = []
    for k in config["k"]:
        ns = argparse.Namespace(**{**_MEASURE_DEFAULTS, **config, "k": k, "budget": args.budget})
        k_rows, k_lines, code, _ = _measure_dispatch(ns)
        rows.extend(k_rows)
        lines.extend(k_lines)
        worst = max(worst, code)
    _emit(rows, lines, _MEASURE_FIELDS, args)
    return worst


def cmd_sharpness(args) -> int:
    rows_raw = bounds_mod.sharpness_report(args.d, args.kmax, args.Rmax)
    rows = []
    lines = [f"sharpness d={args.d} R={args.Rmax}"]
    for r in rows_raw:
        rows.append(
            {
                "d": args.d,
                "k": r.k,
                "R": r.radius,
                "ratio": r.ratio,
                "bound": r.bound,
                "gap": r.gap,
                "gap_non_increasing": r.gap_non_increasing,
            }
        )
        lines.append(
            f"  k={r.k}: ratio {r.ratio:.6f} vs bound {r.bound:.6f}, "
            f"gap {r.gap:.6f} ({'shrinking' if r.gap_non_increasing else 'NOT shrinking'})"
        )
    _emit(rows, lines, ["d", "k", "R", "ratio", "bound", "gap", "gap_non_increasing"], args)
    return EXIT_OK


def cmd_gaussian(args) -> int:
    if args.kmax < 1:
        raise ValueError(f"--kmax must be >= 1, got {args.kmax}")
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    spec = GaussianSignSpec(args.d, args.eps, args.D, tail_tol=args.tail_tol)
    rows = []
    lines = [f"gaussian-sign d={args.d} eps={args.eps} D={args.D}"]
    worst = EXIT_OK
    for k in range(1, args.kmax + 1):
        pm = gaussian_sign_measure(spec, k, 0)
        extra = dict(pm.extra)
        row = {
            "d": args.d,
            "k": k,
            "eps": args.eps,
            "D": args.D,
            "rho": extra["rho"],
            "corr": pm.corr.value,
            "mi": pm.mi.value,
            "mi_scaled": pm.mi.value * (args.d - 1) ** k,
            "mi_remainder": extra["mi_remainder"],
        }
        # The table's text leaves the verdict lines out.
        worst = max(worst, _add_verdicts(row, [], args.d, k, pm.nmi, pm.mi, 2))
        if args.samples > 0:
            mc = gaussian_sign_measure(spec, k, args.samples, seed=args.seed)
            row.update(
                {
                    "mc_corr": mc.corr.value,
                    "mc_corr_stderr": mc.corr.stderr,
                    "mc_mi": mc.mi.value,
                    "mc_mi_stderr": mc.mi.stderr,
                    "samples": args.samples,
                    "seed": args.seed,
                }
            )
        rows.append(row)
        lines.append(
            f"  k={k}: corr={row['corr']:.6f} mi={row['mi']:.6e} "
            f"mi*(d-1)^k={row['mi_scaled']:.6f}"
            + (f" mc_mi={row['mc_mi']:.6e}±{row['mc_mi_stderr']:.1e}" if args.samples > 0 else "")
        )
    if args.kmax >= 3:
        ks = np.arange(2, args.kmax + 1, dtype=float)
        fit = np.polyfit(np.log(ks), np.log([row["mi_scaled"] for row in rows[1:]]), 1)
        lines.append(f"fitted growth exponent of mi*(d-1)^k over k=2..{args.kmax}: {fit[0]:.4f}")
        for row in rows:
            row["fitted_exponent"] = float(fit[0])
    fields = [
        "d", "k", "eps", "D", "rho", "corr", "mi", "mi_scaled", "mi_remainder",
        "mc_corr", "mc_corr_stderr", "mc_mi", "mc_mi_stderr", "samples", "seed",
    ] + _VERDICT_FIELDS + ["fitted_exponent"]
    _emit(rows, lines, fields, args)
    return worst


def cmd_sparse(args) -> int:
    G = random_regular_graph(args.n, args.d, args.seed)
    cycles = short_cycle_count(G, 6)
    if args.mode == "set":
        res = sparse_set_labeling(G, args.L, args.seed)
        sep_ok, dom_ok = check_sparse_set(G, res.labels, args.L)
        counts = {"ones": len(res.ones)}
        checks = {"separation": "OK" if sep_ok else "FAIL",
                  "domination": "OK" if dom_ok else "FAIL"}
        summary = (f"separation {checks['separation']}, domination {checks['domination']}, "
                   f"rounds={res.rounds}, ones={len(res.ones)}")
        ok = sep_ok and dom_ok
    else:
        res = sparse_coloring(G, args.L, args.seed)
        sep_ok = check_sparse_coloring(G, res.colors, args.L)
        cap = ball_size(args.d, args.L)
        counts = {"colors": res.color_count, "color_cap": cap}
        checks = {"separation": "OK" if sep_ok else "FAIL"}
        summary = (f"colors={res.color_count} <= {cap}, separation {checks['separation']}, "
                   f"rounds={res.rounds}")
        ok = sep_ok and res.color_count <= cap
    row = {
        "mode": args.mode,
        "n": args.n,
        "d": args.d,
        "L": args.L,
        "seed": args.seed,
        **counts,
        "rounds": res.rounds,
        "cycles_leq_6": cycles,
        **checks,
    }
    lines = [f"sparse {args.mode} n={args.n} d={args.d} L={args.L}: {summary}, short cycles={cycles}"]
    _emit([row], lines, list(row.keys()), args)
    return EXIT_OK if ok else EXIT_VERDICT_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="treefactor", description=__doc__)
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text")
    parser.add_argument("--output", help="write output to this path instead of stdout")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and has no effect; runs are single-threaded",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # argparse runs a string default through the flag's type, as it does a given value.
    verifier_budget = os.environ.get(BUDGET_ENV_VAR, DEFAULT_SEQUENCE_BUDGET)

    p = sub.add_parser("generators",
                       help="build a length-k free generating set and verify it")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=_int_at_least(1), default=3)
    p.add_argument("--budget", type=_budget, default=verifier_budget)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("factorization",
                       help="verify unique coset factorization (even d, odd k)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--budget", type=_budget, default=verifier_budget)
    p.set_defaults(func=cmd_factorization)

    p = sub.add_parser("measure",
                       help="measure the joint law of a process at distance k")
    p.add_argument("--process", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--R", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--method", choices=_MEASURE_METHODS)
    p.add_argument("--eps", type=float, help="gaussian-sign only")
    p.add_argument("--D", type=int, help="gaussian-sign truncation radius")
    p.add_argument("--tail-tol", type=float)
    p.add_argument("--budget", type=_budget, default=DEFAULT_ENUM_BUDGET,
                   help="labelings of one radius-R ball that exact enumeration may run the rule on")
    p.add_argument("--dump-region", help="write the measurement region as JSON")
    p.set_defaults(func=cmd_measure, **_MEASURE_DEFAULTS)

    p = sub.add_parser("sweep",
                       help="run a measurement sweep from a key=value config file")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_ENUM_BUDGET,
                   help="labelings of one radius-R ball that exact enumeration may run the rule on")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sharpness",
                       help="listing ratio vs the universal bound per distance")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--Rmax", type=int, required=True)
    p.set_defaults(func=cmd_sharpness)

    p = sub.add_parser("gaussian",
                       help="gaussian-sign sweep over distances")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--D", type=int, default=100_000)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail-tol", type=float, default=None)
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("sparse",
                       help="sparse-set labeling / coloring on a random regular graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["set", "coloring"], default="set")
    p.set_defaults(func=cmd_sparse)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TreeFactorError, ValueError, OSError) as exc:
        print(f"treefactor: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
