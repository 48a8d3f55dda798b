"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime against the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from treefactor.bounds import fixed_process_mi_bound, normalized_mi_bound
from treefactor.information import (
    JointDistribution,
    maximal_correlation,
    mutual_information,
    symmetric_binary_joint,
)
from treefactor.processes import (
    GaussianSignSpec,
    check_sparse_coloring,
    check_sparse_set,
    exact_joint,
    gaussian_sign_closed_form,
    gaussian_sign_measure,
    majority_rule,
    mc_joint,
    random_regular_graph,
    sparse_coloring,
    sparse_set_labeling,
)
from treefactor.tree import ball_size, listing_ratio
from treefactor.words import (
    build_generators,
    expected_rank,
    verify_coset_factorization,
    verify_free_claim,
)
from treefactor.cli import main as cli_main


def _report(num: int, desc: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:2d}] {status} in {elapsed:6.2f}s (limit {limit:g}s): {desc}")
    assert ok, desc
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_01_generating_set_cardinalities():
    t0 = time.perf_counter()
    ok = True
    for d in (3, 4, 5, 6):
        for k in (2, 3, 4, 5, 6, 7):
            gs = build_generators(d, k)
            l = k // 2
            formula = d * (d - 1) ** l // 2 if k % 2 else (d - 1) ** l
            ok = ok and len(gs.elements) == formula == expected_rank(d, k)
    _report(1, "generating-set ranks match the closed formulas", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_free_claim_brute_force():
    t0 = time.perf_counter()
    ok = True
    for d in (3, 4, 5):
        for k in (2, 3, 4, 5):
            report = verify_free_claim(build_generators(d, k), 3)
            ok = ok and report.passed and report.complete
    _report(2, "no product of <=3 generators collapses; suffix laws hold",
            ok, time.perf_counter() - t0, 60.0)


def test_criterion_03_unique_coset_factorization():
    t0 = time.perf_counter()
    report = verify_coset_factorization(4, 3, 4)
    count = ball_size(4, 4)
    ok = report.passed and report.complete and count == 161
    ok = ok and f"all {count} elements" in report.message
    _report(3, "unique factorization over all 161 elements of the radius-4 ball",
            ok, time.perf_counter() - t0, 10.0)


def test_criterion_04_majority_rule_exact_compliance():
    t0 = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        pm = exact_joint(majority_rule(3), 3, k)
        ok = ok and pm.nmi.stderr == 0.0
        ok = ok and pm.nmi.value <= float(normalized_mi_bound(3, k))
        ok = ok and pm.mi.value <= 2 * (k + 1) ** 2 / 2**k
        ok = ok and pm.mi.value <= fixed_process_mi_bound(3, k, 2)
    _report(4, "majority-rule exact joints satisfy both bounds with zero slack",
            ok, time.perf_counter() - t0, 10.0)


def test_criterion_05_listing_ratio_sharpness_trend():
    t0 = time.perf_counter()
    ok = True
    for k in (1, 2, 3, 4):
        bound = normalized_mi_bound(3, k)
        gaps = [float(bound - listing_ratio(3, radius, k)) for radius in range(k, 11)]
        ok = ok and abs(gaps[-1]) <= 0.05
        ok = ok and all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        ok = ok and all(g >= -1e-15 for g in gaps)
    _report(5, "listing ratio within 0.05 of the distance bound at R=10, gap non-increasing",
            ok, time.perf_counter() - t0, 1.0)


def test_criterion_06_mi_versus_maximal_correlation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260811)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        matrix = rng.random((m, n)) ** 2 + 1e-12
        J = JointDistribution.from_array(matrix / matrix.sum())
        alpha = maximal_correlation(J)
        ok = ok and mutual_information(J).value <= (m - 1) * alpha**2 + 1e-8
    for q in np.linspace(0.0, 1.0, 101):
        J = symmetric_binary_joint(float(q))
        ok = ok and abs(maximal_correlation(J) - abs(2 * q - 1)) <= 1e-8
    _report(6, "MI <= (m-1) alpha^2 on 1000 joints; binary alpha matches |2q-1|",
            ok, time.perf_counter() - t0, 30.0)


def test_criterion_07_exchangeable_functional_correlation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(715)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        matrix = rng.random((m, m)) ** 2 + 1e-12
        matrix = matrix + matrix.T
        J = JointDistribution.from_array(matrix / matrix.sum())
        two_sided = maximal_correlation(J)
        arr = J.as_array
        px = arr.sum(axis=1)
        q = arr / np.sqrt(np.outer(px, px))
        s = np.sqrt(px)
        proj = np.eye(m) - np.outer(s, s)
        one_sided = float(np.max(np.abs(np.linalg.eigvalsh(proj @ q @ proj))))
        ok = ok and abs(two_sided - one_sided) <= 1e-6
    _report(7, "two-function correlation equals best single-function correlation",
            ok, time.perf_counter() - t0, 60.0)


def test_criterion_08_gaussian_sign_pipeline():
    t0 = time.perf_counter()
    ok = True
    # Monte Carlo against the arcsine/binary-MI closed form, same truncation,
    # so only sampling noise separates them.
    spec_mc = GaussianSignSpec(3, 0.25, 8, tail_tol=None)
    for k in (1, 2, 3, 4):
        cf = gaussian_sign_closed_form(spec_mc, k)
        mc = gaussian_sign_measure(spec_mc, k, 100_000, seed=20260811 + k)
        ok = ok and abs(mc.corr.value - cf["corr"]) <= 4 * mc.corr.stderr
        ok = ok and abs(mc.mi.value - cf["mi"]) <= 4 * mc.mi.stderr
    # Closed-form sweep at a deep truncation: bound compliance and growth.
    spec_cf = GaussianSignSpec(3, 0.25, 300_000, tail_tol=None)
    scaled = []
    for k in range(1, 9):
        mi = gaussian_sign_closed_form(spec_cf, k)["mi"]
        ok = ok and mi <= fixed_process_mi_bound(3, k, 2)
        scaled.append(mi * 2**k)
    ok = ok and all(b > a for a, b in zip(scaled[1:], scaled[2:]))
    _report(8, "sign-process MC matches closed form; MI*2^k strictly grows on k=2..8",
            ok, time.perf_counter() - t0, 120.0)


def test_criterion_09_local_algorithms_exact_properties():
    t0 = time.perf_counter()
    G = random_regular_graph(1000, 3, seed=606)
    labeling = sparse_set_labeling(G, 2, seed=607)
    sep_ok, dom_ok = check_sparse_set(G, labeling.labels, 2)
    coloring = sparse_coloring(G, 2, seed=608)
    ok = (
        sep_ok
        and dom_ok
        and coloring.color_count <= ball_size(3, 2) == 10
        and check_sparse_coloring(G, coloring.colors, 2)
    )
    _report(9, "sparse labeling separates and dominates; coloring uses <= 10 colors",
            ok, time.perf_counter() - t0, 30.0)


def test_criterion_10_seeded_byte_determinism(capsys):
    t0 = time.perf_counter()
    ok = True
    # library level: identical seeds give identical serialized measurements
    a = mc_joint(majority_rule(3), 3, 1, 20_000, seed=99)
    b = mc_joint(majority_rule(3), 3, 1, 20_000, seed=99)
    ok = ok and a.to_json() == b.to_json()
    spec = GaussianSignSpec(3, 0.25, 6, tail_tol=None)
    ga = gaussian_sign_measure(spec, 2, 20_000, seed=5)
    gb = gaussian_sign_measure(spec, 2, 20_000, seed=5)
    ok = ok and ga.to_json() == gb.to_json()
    # CLI level: identical bytes for any --threads value
    outputs = []
    for threads in ("1", "4"):
        cli_main(["--threads", threads, "--format", "csv", "measure",
                  "--process", "majority", "--d", "3", "--k", "1",
                  "--method", "mc", "--samples", "5000", "--seed", "11"])
        outputs.append(capsys.readouterr().out)
    ok = ok and outputs[0] == outputs[1]
    for threads in ("1", "4"):
        cli_main(["--threads", threads, "--format", "csv", "sparse",
                  "--n", "300", "--d", "3", "--L", "2", "--seed", "12",
                  "--mode", "coloring"])
        outputs.append(capsys.readouterr().out)
    ok = ok and outputs[2] == outputs[3]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(10, "seeded Monte Carlo output is byte-identical across reruns and thread counts",
                ok, elapsed, 60.0)
