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
from .tree import ball_size, origin, region_from_balls, vertex_at_distance
from .words import (
    DEFAULT_SEQUENCE_BUDGET,
    build_generators,
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


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_SEQUENCE_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}")


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


def _verdict_fields(verdicts) -> dict:
    out = {}
    for v in verdicts:
        key = v.name.split(" (")[0].replace(" ", "_").replace("-", "_")
        out[f"{key}_bound"] = v.bound
        out[f"{key}_verdict"] = "PASS" if v.passed else "FAIL"
    return out


def cmd_generators(args) -> int:
    gs = build_generators(args.d, args.k)
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
        "elements": " ".join(word_to_str(w) for w in gs.elements),
    }
    lines = [
        f"generators d={args.d} k={args.k}: rank {gs.claimed_rank} ({gs.construction})",
        f"free-claim {report}",
    ]
    _emit([row], lines, list(row.keys()), args)
    return EXIT_OK if report.passed and report.complete else EXIT_VERDICT_FAILED


def cmd_factorization(args) -> int:
    report = verify_coset_factorization(args.d, args.k, args.L, budget=args.budget)
    row = {
        "d": args.d,
        "k": args.k,
        "L": args.L,
        "result": "PASS" if report.passed else "FAIL",
        "complete": report.complete,
        "products_checked": report.checked,
        "ball_size": ball_size(args.d, args.L),
        "message": report.message,
    }
    lines = [f"factorization d={args.d} k={args.k} L={args.L}: {report}"]
    _emit([row], lines, list(row.keys()), args)
    return EXIT_OK if report.passed and report.complete else EXIT_VERDICT_FAILED


def _measurement_row(pm, verdicts) -> dict:
    row = pm.to_row()
    row.update(_verdict_fields(verdicts))
    return row


def _measure_block_rule(args) -> tuple[list[dict], list[str], int]:
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
    verdicts = [
        bounds_mod.universal_verdict(args.d, args.k, pm.nmi),
        bounds_mod.fixed_process_verdict(args.d, args.k, len(rule.output_values), pm.mi),
    ]
    row = _measurement_row(pm, verdicts)
    row["process"] = args.process
    lines = [
        f"measure process={args.process} d={args.d} k={args.k} method={pm.method}",
        f"  H={pm.entropy_v} I={pm.mi} I/H={pm.nmi}",
    ] + [f"  {v}" for v in verdicts]
    code = EXIT_OK if all(v.passed for v in verdicts) else EXIT_VERDICT_FAILED
    return [row], lines, code


def _measure_listing(args) -> tuple[list[dict], list[str], int]:
    if args.R is None:
        raise ValueError("the listing process needs --R")
    ratio = listing_normalized_mi(args.d, args.R, args.k)
    nmi = MeasuredQuantity(ratio, 0.0, "closed-form")
    verdicts = [bounds_mod.universal_verdict(args.d, args.k, nmi)]
    row = {
        "process": "listing",
        "d": args.d,
        "k": args.k,
        "R": args.R,
        "method": "closed-form",
        "nmi": ratio,
    }
    row.update(_verdict_fields(verdicts))
    lines = [
        f"measure process=listing d={args.d} k={args.k} R={args.R}: I/H -> {ratio!r}",
    ] + [f"  {v}" for v in verdicts]
    code = EXIT_OK if all(v.passed for v in verdicts) else EXIT_VERDICT_FAILED
    return [row], lines, code


def _measure_gaussian_sign(args) -> tuple[list[dict], list[str], int]:
    spec = GaussianSignSpec(args.d, args.eps, args.D, tail_tol=args.tail_tol)
    pm = gaussian_sign_measure(spec, args.k, args.samples if args.method != "exact" else 0,
                               seed=args.seed)
    verdicts = [
        bounds_mod.universal_verdict(args.d, args.k, pm.nmi),
        bounds_mod.fixed_process_verdict(args.d, args.k, 2, pm.mi),
    ]
    row = _measurement_row(pm, verdicts)
    row["process"] = "gaussian-sign"
    lines = [
        f"measure process=gaussian-sign d={args.d} k={args.k} method={pm.method}",
        f"  I={pm.mi} corr={pm.corr}",
    ] + [f"  {v}" for v in verdicts]
    code = EXIT_OK if all(v.passed for v in verdicts) else EXIT_VERDICT_FAILED
    return [row], lines, code


_MEASURE_FIELDS = [
    "process", "d", "k", "R", "method", "samples", "seed",
    "H", "H_stderr", "I", "I_stderr", "nmi", "nmi_stderr",
    "corr", "corr_stderr",
    "universal_normalized_MI_bound_bound", "universal_normalized_MI_bound_verdict",
    "fixed_process_MI_bound_bound", "fixed_process_MI_bound_verdict",
]


def _measure_dispatch(args) -> tuple[list[dict], list[str], int]:
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
    rows, lines, code = _measure_dispatch(args)
    if args.dump_region:
        rule = RULES[args.process](args.d)
        u = origin(args.d)
        region = region_from_balls(
            [(u, rule.radius), (vertex_at_distance(u, args.k), rule.radius)]
        )
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
        ns = argparse.Namespace(
            process=config["process"],
            d=config["d"],
            k=k,
            R=config.get("R"),
            samples=config.get("samples", 100_000),
            seed=config.get("seed", 0),
            method=config.get("method", "auto"),
            eps=config.get("eps", 0.25),
            D=config.get("D", 8),
            tail_tol=config.get("tail_tol"),
            budget=args.budget,
        )
        k_rows, k_lines, code = _measure_dispatch(ns)
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
    any_fail = False
    scaled = []
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
        verdicts = [
            bounds_mod.universal_verdict(args.d, k, pm.nmi),
            bounds_mod.fixed_process_verdict(args.d, k, 2, pm.mi),
        ]
        row.update(_verdict_fields(verdicts))
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
        scaled.append(row["mi_scaled"])
        any_fail = any_fail or not all(v.passed for v in verdicts)
        lines.append(
            f"  k={k}: corr={row['corr']:.6f} mi={row['mi']:.6e} "
            f"mi*(d-1)^k={row['mi_scaled']:.6f}"
            + (f" mc_mi={row['mc_mi']:.6e}±{row['mc_mi_stderr']:.1e}" if args.samples > 0 else "")
        )
    if args.kmax >= 3:
        ks = np.arange(2, args.kmax + 1, dtype=float)
        fit = np.polyfit(np.log(ks), np.log(np.asarray(scaled[1:])), 1)
        lines.append(f"fitted growth exponent of mi*(d-1)^k over k=2..{args.kmax}: {fit[0]:.4f}")
        for row in rows:
            row["fitted_exponent"] = float(fit[0])
    fields = [
        "d", "k", "eps", "D", "rho", "corr", "mi", "mi_scaled", "mi_remainder",
        "mc_corr", "mc_corr_stderr", "mc_mi", "mc_mi_stderr", "samples", "seed",
        "universal_normalized_MI_bound_bound", "universal_normalized_MI_bound_verdict",
        "fixed_process_MI_bound_bound", "fixed_process_MI_bound_verdict",
        "fitted_exponent",
    ]
    _emit(rows, lines, fields, args)
    return EXIT_VERDICT_FAILED if any_fail else EXIT_OK


def cmd_sparse(args) -> int:
    G = random_regular_graph(args.n, args.d, args.seed)
    cycles = short_cycle_count(G, 6)
    if args.mode == "set":
        res = sparse_set_labeling(G, args.L, args.seed)
        sep_ok, dom_ok = check_sparse_set(G, res.labels, args.L)
        row = {
            "mode": "set",
            "n": args.n,
            "d": args.d,
            "L": args.L,
            "seed": args.seed,
            "ones": len(res.ones),
            "rounds": res.rounds,
            "cycles_leq_6": cycles,
            "separation": "OK" if sep_ok else "FAIL",
            "domination": "OK" if dom_ok else "FAIL",
        }
        lines = [
            f"sparse set n={args.n} d={args.d} L={args.L}: "
            f"separation {'OK' if sep_ok else 'FAIL'}, domination {'OK' if dom_ok else 'FAIL'}, "
            f"rounds={res.rounds}, ones={len(res.ones)}, short cycles={cycles}"
        ]
        ok = sep_ok and dom_ok
    else:
        res = sparse_coloring(G, args.L, args.seed)
        sep_ok = check_sparse_coloring(G, res.colors, args.L)
        cap = ball_size(args.d, args.L)
        row = {
            "mode": "coloring",
            "n": args.n,
            "d": args.d,
            "L": args.L,
            "seed": args.seed,
            "colors": res.color_count,
            "color_cap": cap,
            "rounds": res.rounds,
            "cycles_leq_6": cycles,
            "separation": "OK" if sep_ok else "FAIL",
        }
        lines = [
            f"sparse coloring n={args.n} d={args.d} L={args.L}: "
            f"colors={res.color_count} <= {cap}, separation {'OK' if sep_ok else 'FAIL'}, "
            f"rounds={res.rounds}, short cycles={cycles}"
        ]
        ok = sep_ok and res.color_count <= cap
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

    p = sub.add_parser("generators",
                       help="build a length-k free generating set and verify it")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("factorization",
                       help="verify unique coset factorization (even d, odd k)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_factorization)

    p = sub.add_parser("measure",
                       help="measure the joint law of a process at distance k")
    p.add_argument("--process", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=_MEASURE_METHODS, default="auto")
    p.add_argument("--eps", type=float, default=0.25, help="gaussian-sign only")
    p.add_argument("--D", type=int, default=8, help="gaussian-sign truncation radius")
    p.add_argument("--tail-tol", type=float, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET,
                   help="label configurations exact enumeration may sum over")
    p.add_argument("--dump-region", help="write the measurement region as JSON")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep",
                       help="run a measurement sweep from a key=value config file")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET,
                   help="label configurations exact enumeration may sum over")
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
        if getattr(args, "budget", None) is None and hasattr(args, "budget"):
            args.budget = _default_budget()
        return args.func(args)
    except (TreeFactorError, ValueError, OSError) as exc:
        print(f"treefactor: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
