"""Job lists of the benchmark workloads and the correctness check of each job.

A job is one ``treefactor`` CLI call made in-process (``--format json``,
stdout captured) or, where the CLI has no entry point, one call of a
public library function.  Every callee is looked up on its module at call
time, so a traced run sees the call through the wrapper installed there.

Inputs come from the seed a job is given; the benchmark derives that seed
from its own ``--seed``, the pass number and the job id.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import treefactor.cli as cli
import treefactor.information as information
import treefactor.processes as processes

REFERENCE_PATH = Path(__file__).with_name("reference.json")

EXACT_TOL = 1e-12  # exact and closed-form math must not change
MC_SIGMAS = 4.0  # sampled values must lie this many stderr from the exact law
LISTING_SIGMAS = 3.0

EXACT_MEASURES = [
    (process, d, k) for process in ("majority", "parity") for d in (3, 5, 7) for k in (1, 2, 3)
]
MC_BLOCK_RULES = [("majority", 3, 1), ("majority", 3, 2), ("majority", 3, 4), ("parity", 4, 3)]
GAUSSIAN_CLOSED = (3, 0.25, 300_000, 8)  # d, eps, D, kmax of the `gaussian` job
GAUSSIAN_MC = (3, 0.25, 8, (2, 4))  # d, eps, D, distances of the sampled jobs
CLOSED_FORMS = [GAUSSIAN_CLOSED[:3] + (k,) for k in range(1, GAUSSIAN_CLOSED[3] + 1)] + [
    GAUSSIAN_MC[:3] + (k,) for k in GAUSSIAN_MC[3]
]
SHARPNESS = [(3, 4, 10), (4, 6, 8)]  # d, kmax, Rmax
MC_SAMPLES = 100_000
RANDOM_JOINTS = 1000

SPARSE_N = 1000
SPARSE_L = 2
ROUNDS_N = 10_000  # large enough that the round loop, not set-up, dominates the job
LISTING_R = 0  # 2R+k must not exceed the separation of the L=2 coloring
LISTING_K = 1
LISTING_LABELS = 16


def measure_key(process: str, d: int, k: int) -> str:
    return f"{process} d={d} k={k}"


def gaussian_key(d: int, eps: float, D: int, k: int) -> str:
    return f"d={d} eps={eps} D={D} k={k}"


def sharpness_key(d: int, rmax: int, k: int) -> str:
    return f"d={d} Rmax={rmax} k={k}"


def derive_seed(base: int, pass_no: int, job_id: str) -> int:
    digest = hashlib.sha256(f"{base}/{pass_no}/{job_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]  # problems found in the result; empty when correct
    text: Callable[[Any], str]  # the output whose sha256 the run record keeps


class JobError(Exception):
    """The CLI exited with its usage/runtime-error status."""


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def _run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["--format", "json", *argv])
    if code == cli.EXIT_USAGE:
        raise JobError(err.getvalue().strip())
    return CliResult(code, out.getvalue())


def _cli_job(job_id: str, argv: list, row_check: Callable[[list[dict]], list[str]]) -> Job:
    def check(res: CliResult) -> list[str]:
        problems = [] if res.code == cli.EXIT_OK else [f"exit status {res.code}"]
        rows = json.loads(res.stdout)["rows"]
        for row in rows:
            problems += [
                f"{key} is {value}"
                for key, value in row.items()
                if key.endswith("_verdict") and value != "PASS"
            ]
        return problems + row_check(rows)

    return Job(job_id, lambda: _run_cli([str(a) for a in argv]), check, lambda r: r.stdout)


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    return [] if abs(got - want) <= tol else [f"{name} {got!r} is not within {tol:.3g} of {want!r}"]


def _certified(result_key: str) -> Callable[[list[dict]], list[str]]:
    def check(rows):
        row = rows[0]
        ok = row[result_key] == "PASS" and row["complete"] is True
        return [] if ok else [f"{result_key}={row[result_key]} complete={row['complete']}"]

    return check


def _ball_size(d: int, radius: int) -> int:
    return 1 + d * ((d - 1) ** radius - 1) // (d - 2)


def _separated(adjacency, colors, separation: int) -> bool:
    """No two vertices within ``separation`` of each other share a color."""
    for v, own in enumerate(colors):
        seen = {v}
        frontier = [v]
        for _ in range(separation):
            nxt = []
            for x in frontier:
                for w in adjacency[x]:
                    if w not in seen:
                        if colors[w] == own:
                            return False
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
    return True


def _mutual_information(m: np.ndarray) -> float:
    outer = np.outer(m.sum(axis=1), m.sum(axis=0))
    nz = m > 0
    return float((m[nz] * np.log(m[nz] / outer[nz])).sum())


# ---------------------------------------------------------------------------
# exact: word verifiers, exact enumeration, closed forms, maximal correlation
# ---------------------------------------------------------------------------


def exact_jobs(seed_of: Callable[[str], int], ref: dict) -> list[Job]:
    jobs = [
        _cli_job("generators d=5 k=5 nmax=3",
                 ["generators", "--d", 5, "--k", 5, "--nmax", 3], _certified("free_claim")),
        _cli_job("generators d=4 k=4 nmax=4",
                 ["generators", "--d", 4, "--k", 4, "--nmax", 4], _certified("free_claim")),
        _cli_job("factorization d=4 k=3 L=6",
                 ["factorization", "--d", 4, "--k", 3, "--L", 6], _certified("result")),
    ]
    for process, d, k in EXACT_MEASURES:
        want = ref["measure"][measure_key(process, d, k)]

        def check(rows, want=want):
            return [p for f in ("H", "I", "nmi", "corr")
                    for p in _close(f, rows[0][f], want[f], EXACT_TOL)]

        jobs.append(_cli_job(f"measure {measure_key(process, d, k)} exact",
                             ["measure", "--process", process, "--d", d, "--k", k,
                              "--method", "exact"], check))

    d, eps, D, kmax = GAUSSIAN_CLOSED

    def check_gaussian(rows, d=d, eps=eps, D=D, kmax=kmax):
        problems = [] if len(rows) == kmax else [f"{len(rows)} rows, expected {kmax}"]
        for row in rows:
            want = ref["gaussian"][gaussian_key(d, eps, D, row["k"])]
            problems += _close("corr", row["corr"], want["corr"], EXACT_TOL)
            problems += _close("mi", row["mi"], want["mi"], EXACT_TOL)
        return problems

    jobs.append(_cli_job(f"gaussian d={d} eps={eps} kmax={kmax} D={D}",
                         ["gaussian", "--d", d, "--eps", eps, "--kmax", kmax, "--D", D],
                         check_gaussian))
    for d, kmax, rmax in SHARPNESS:

        def check_sharpness(rows, d=d, kmax=kmax, rmax=rmax):
            problems = [] if len(rows) == kmax else [f"{len(rows)} rows, expected {kmax}"]
            for row in rows:
                want = ref["sharpness"][sharpness_key(d, rmax, row["k"])]
                problems += _close(f"ratio k={row['k']}", row["ratio"], want, EXACT_TOL)
            return problems

        jobs.append(_cli_job(f"sharpness d={d} kmax={kmax} Rmax={rmax}",
                             ["sharpness", "--d", d, "--kmax", kmax, "--Rmax", rmax],
                             check_sharpness))

    # Criterion 6's generator of random joints, seeded from the benchmark seed.
    rng = np.random.default_rng(seed_of("maximal_correlation"))
    exact_pairs = [
        (information.JointDistribution.from_array(np.asarray(want["joint"])), abs(want["corr"]))
        for want in (ref["measure"][measure_key(*case)] for case in EXACT_MEASURES)
    ]
    random_joints = []
    for _ in range(RANDOM_JOINTS):
        matrix = rng.random((int(rng.integers(2, 6)), int(rng.integers(2, 6)))) ** 2 + 1e-12
        random_joints.append(information.JointDistribution.from_array(matrix / matrix.sum()))
    joints = [J for J, _ in exact_pairs] + random_joints

    def run_maxcorr():
        return [information.maximal_correlation(J) for J in joints]

    def check_maxcorr(alphas):
        problems = []
        # For a 2x2 joint the maximal correlation is the absolute Pearson correlation.
        for (J, want), alpha in zip(exact_pairs, alphas):
            problems += _close("maximal correlation of an exact joint", alpha, want, 1e-9)
        for J, alpha in zip(random_joints, alphas[len(exact_pairs):]):
            m = J.as_array
            if _mutual_information(m) > (m.shape[0] - 1) * alpha**2 + 1e-8:
                problems.append(f"MI exceeds (m-1) alpha^2 for alpha={alpha!r}")
        return problems

    jobs.append(Job(f"maximal_correlation {len(joints)} joints", run_maxcorr, check_maxcorr,
                    lambda alphas: json.dumps(alphas)))
    return jobs


# ---------------------------------------------------------------------------
# mc: seeded Monte Carlo of block rules and of the Gaussian sign process
# ---------------------------------------------------------------------------


def mc_jobs(seed_of: Callable[[str], int], ref: dict) -> list[Job]:
    jobs = []
    for process, d, k in MC_BLOCK_RULES:
        job_id = f"measure {measure_key(process, d, k)} mc"
        want = ref["measure"][measure_key(process, d, k)]

        def check(rows, want=want):
            row = rows[0]
            return [p for f in ("H", "I", "nmi", "corr")
                    for p in _close(f, row[f], want[f], MC_SIGMAS * row[f + "_stderr"])]

        jobs.append(_cli_job(job_id, ["measure", "--process", process, "--d", d, "--k", k,
                                      "--method", "mc", "--samples", MC_SAMPLES,
                                      "--seed", seed_of(job_id)], check))
    d, eps, D, ks = GAUSSIAN_MC
    for k in ks:
        job_id = f"measure gaussian-sign d={d} D={D} k={k} mc"
        want = ref["gaussian"][gaussian_key(d, eps, D, k)]

        def check_gaussian(rows, want=want):
            row = rows[0]
            return (
                _close("closed_form_corr", row["closed_form_corr"], want["corr"], EXACT_TOL)
                + _close("closed_form_mi", row["closed_form_mi"], want["mi"], EXACT_TOL)
                + _close("corr", row["corr"], want["corr"],
                         MC_SIGMAS * row["corr_stderr"] + row["corr_remainder"])
                + _close("I", row["I"], want["mi"],
                         MC_SIGMAS * row["I_stderr"] + row["mi_remainder"])
            )

        jobs.append(_cli_job(job_id, ["measure", "--process", "gaussian-sign", "--d", d,
                                      "--k", k, "--eps", eps, "--D", D, "--method", "mc",
                                      "--samples", MC_SAMPLES, "--seed", seed_of(job_id)],
                             check_gaussian))
    return jobs


# ---------------------------------------------------------------------------
# local: round-based local algorithms on random regular graphs
# ---------------------------------------------------------------------------


def _check_set(rows):
    row = rows[0]
    ok = row["separation"] == "OK" and row["domination"] == "OK"
    return [] if ok else [f"separation {row['separation']}, domination {row['domination']}"]


def _check_coloring_row(rows):
    row = rows[0]
    cap = _ball_size(row["d"], row["L"])
    ok = row["separation"] == "OK" and row["colors"] <= cap
    return [] if ok else [f"separation {row['separation']}, {row['colors']} colors (cap {cap})"]


def local_jobs(seed_of: Callable[[str], int], ref: dict) -> list[Job]:
    jobs = []
    for mode, check in (("set", _check_set), ("coloring", _check_coloring_row)):
        job_id = f"sparse {mode} n={SPARSE_N} L={SPARSE_L}"
        jobs.append(_cli_job(job_id, ["sparse", "--mode", mode, "--n", SPARSE_N, "--d", 3,
                                      "--L", SPARSE_L, "--seed", seed_of(job_id)], check))

    rounds_id = f"sparse_coloring n={ROUNDS_N} L={SPARSE_L}"
    rounds_seed = seed_of(rounds_id)

    def run_coloring(seed=rounds_seed):
        G = processes.random_regular_graph(ROUNDS_N, 3, seed)
        return processes.sparse_coloring(G, SPARSE_L, seed)

    def check_coloring(res):
        cap = _ball_size(3, SPARSE_L)
        ok = (min(res.colors) >= 1 and res.color_count <= cap
              and _separated(res.graph.adjacency, res.colors, SPARSE_L))
        return [] if ok else [f"coloring with {res.color_count} colors breaks its contract"]

    jobs.append(Job(rounds_id, run_coloring, check_coloring,
                    lambda res: json.dumps([res.rounds, res.colors])))

    listing_id = (f"listing_finite_N_mi R={LISTING_R} k={LISTING_K} "
                  f"n_labels={LISTING_LABELS} n={SPARSE_N} L={SPARSE_L}")
    listing_seed = seed_of(listing_id)

    def run_listing(seed=listing_seed):
        G = processes.random_regular_graph(SPARSE_N, 3, seed)
        coloring = processes.sparse_coloring(G, SPARSE_L, seed)
        return processes.listing_finite_N_mi(3, LISTING_R, LISTING_K, LISTING_LABELS, coloring)

    def check_listing(pm):
        bound = ref["listing_nmi_bound"]
        limit = bound + LISTING_SIGMAS * pm.nmi.stderr
        ok = math.isfinite(pm.nmi.value) and pm.nmi.value <= limit
        return [] if ok else [f"NMI {pm.nmi.value!r} above bound {bound!r} + 3 stderr"]

    jobs.append(Job(listing_id, run_listing, check_listing, lambda pm: pm.to_json()))
    return jobs


WORKLOADS = {"exact": exact_jobs, "mc": mc_jobs, "local": local_jobs}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
