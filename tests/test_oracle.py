import ast
import gc
import itertools
import math
import os
import resource
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equiszego import oracle
from equiszego.actions import WeightSystem
from equiszego.errors import AssumptionViolation
from equiszego.geometry import SpherePoint
from equiszego.hardy import build_basis, log_coefficient
from equiszego.kernel import szego_eval
from equiszego.oracle import (
    _scan_degrees,
    brute_dim,
    brute_dim_range,
    dirichlet_moment,
    dirichlet_moment_frac,
    exact_diag_rational,
    hp_kernel,
    mc_sphere_integral,
    required_scan_bound,
    stirling_p1,
    stirling_p1_limit,
    stirling_p2,
    stirling_p2_limit,
    stirling_p2_limit_nu_free,
)
from equiszego.presets import p1_weight_system, p2_weight_system
from support import level_weight_system, t_only_weight_system

WS1 = p1_weight_system()
WS2 = p2_weight_system()


def test_brute_dim_published_cases():
    assert brute_dim(WS1, [1], [1], 7, bound=20) == 1
    assert brute_dim(WS1, [1], [1], 8, bound=20) == 0
    assert brute_dim(WS2, [1, 1], [1], 16, bound=20) == 1


def test_brute_dim_bound_guard():
    with pytest.raises(ValueError):
        brute_dim(WS1, [1], [1], 60, bound=10)
    assert required_scan_bound(WS1, [1], 60) == 60


def test_brute_dim_range_consistency():
    dims = brute_dim_range(WS1, [1], [1], 40, bound=40)
    for k in (3, 7, 13, 40):
        assert dims[k] == brute_dim(WS1, [1], [1], k, bound=40)


def test_brute_dim_range_closed_forms():
    # closed forms independent of both the enumeration and the tally
    dims = brute_dim_range(level_weight_system(2), [], [1], 60, bound=60)
    assert dims.tolist() == [math.comb(k + 2, 2) for k in range(61)]
    dims = brute_dim_range(t_only_weight_system(1, [1, 2]), [], [1], 60, bound=60)
    assert dims.tolist() == [k // 2 + 1 for k in range(61)]


def test_brute_dim_range_wide_keys():
    # a + 5b = k = 5a + b: the W_T J keys spread far wider than the scan
    # has points, so the tally must not allocate a bin per possible key
    ws = WeightSystem(n=1, W_G=np.zeros((0, 2), dtype=int), W_T=np.array([[1, 5], [5, 1]]))
    dims = brute_dim_range(ws, [], [1, 1], 60, bound=60)
    assert dims.tolist() == [int(k % 6 == 0) for k in range(61)]
    # a + 20b + c = 20a + b + 20c: b = a + c and k = 21 b, so the wide keys
    # repeat across slabs and the final reduction sums multiplicities
    ws = WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int), W_T=np.array([[1, 20, 1], [20, 1, 20]]))
    dims = brute_dim_range(ws, [], [1, 1], 60, bound=60)
    assert dims.tolist() == [k // 21 + 1 if k % 21 == 0 else 0 for k in range(61)]


def test_scan_degrees_wide_box_stays_small():
    # W_T J lies in a box of ~9e8 cells for 5,456 points: a histogram over
    # the box would take ~7 GB, so the scan must tally by np.unique
    ws = WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int),
                      W_T=np.array([[1, 1000, 0], [0, 1, 1000]]))
    expected = Counter(
        tuple((ws.W_T @ J).tolist())
        for J in itertools.product(range(31), repeat=3) if sum(J) <= 30
    )
    tracemalloc.start()
    try:
        counts = _scan_degrees(ws, [], 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == dict(expected)
    assert peak < 16 * 2**20


@st.composite
def scan_cases(draw):
    """Random weight systems passing the positivity check (the scan itself
    does not need it), a G-character and a scan bound."""
    n = draw(st.integers(0, 3))
    d_G = draw(st.integers(0, 1))
    d_T = draw(st.integers(1, 2))
    W = draw(st.lists(st.lists(st.integers(-3, 4), min_size=n + 1, max_size=n + 1),
                      min_size=d_G + d_T, max_size=d_G + d_T))
    W = np.array(W, dtype=np.int64)
    try:
        ws = WeightSystem(n=n, W_G=W[:d_G], W_T=W[d_G:])
    except AssumptionViolation:
        assume(False)
    nu_G = draw(st.lists(st.integers(-3, 3), min_size=d_G, max_size=d_G))
    return ws, nu_G, draw(st.integers(0, 12))


@settings(max_examples=150, deadline=None)
@given(scan_cases())
# W_T J spreads over 85^2 keys for 91 points: the np.unique route
@example((WeightSystem(n=1, W_G=np.zeros((0, 2), dtype=int), W_T=np.array([[4, -3], [-3, 4]])),
          [], 12))
# prefixes of one residual, such as (1, 0) and (0, 1), need different W_G
# images of their tails, so they read different blocks of the running tally
@example((WeightSystem(n=3, W_G=np.array([[1, -1, 1, -1]]), W_T=np.array([[1, 2, 1, 3]])),
          [1], 12))
# a dense box over two W_T rows: 25 x 13 cells
@example((WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int), W_T=np.array([[1, 2, 0], [0, 1, 1]])),
          [], 12))
# W_G images over a box of 2^64 cells: their int64 codes would wrap, and
# merge images that differ in the last row, so the np.unique route runs
@example((WeightSystem(n=3, W_G=np.array([[1 - 2**32, 0, 0, 0], [0, 1 - 2**32, 0, 0], [0, 0, 1, -1]]),
                       W_T=np.array([[1, 1, 1, 1]])), [0, 0, 1], 1))
# bound 0: the one point J = 0
@example((WeightSystem(n=2, W_G=np.array([[1, -1, 0]]), W_T=np.array([[1, 2, 3]])), [0], 0))
# d_G = 0: one block of the running tally, and no rank pass
@example((level_weight_system(2), [], 12))
# d_G = 2 over a dense box: two W_G rows coded into one rank per tail
@example((WeightSystem(n=3, W_G=np.array([[1, -1, 0, 0], [0, 0, 1, -1]]),
                       W_T=np.array([[1, 1, 1, 1]])), [0, 1], 12))
def test_scan_degrees_matches_product_tally(case):
    ws, nu_G, bound = case
    expected = Counter()
    for J in itertools.product(range(bound + 1), repeat=ws.n + 1):
        if sum(J) <= bound and (ws.W_G @ J == nu_G).all():
            expected[tuple((ws.W_T @ J).tolist())] += 1
    assert _scan_degrees(ws, nu_G, bound) == dict(expected)


def test_scan_degrees_running_tally_stays_small():
    # the level-dim scan to degree 400 tallies 80,601 tails and 401
    # prefixes; a table of one histogram per degree would not fit
    ws = level_weight_system(2)
    tracemalloc.start()
    try:
        counts = _scan_degrees(ws, [], 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == {(k,): math.comb(k + 2, 2) for k in range(401)}
    assert peak < 8 * 2**20


@pytest.mark.skipif(sys.platform != "linux" or "malloc" in " ".join(os.environ).lower()
                    + os.environ.get("GLIBC_TUNABLES", ""), reason="glibc's own heap thresholds")
def test_repeated_scans_fault_no_pages():
    # with glibc's thresholds left to adapt, the ~1 MB temporaries of this
    # scan are trimmed after each call in some heap layouts and faulted back
    # in by the next: ~1,700 minor faults a call
    ws = level_weight_system(2)
    for _ in range(3):
        _scan_degrees(ws, [], 400)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        _scan_degrees(ws, [], 400)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_brute_dim_range_leaves_no_reference_cycle():
    # a cycle would keep the scan's arrays alive until a full collection
    ws = level_weight_system(2)
    gc.collect()
    gc.disable()
    try:
        brute_dim_range(ws, [], [1], 60, bound=60)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_exact_diag_rational_published_value():
    b = build_basis(WS1, [1], [1], 7)
    assert exact_diag_rational(b, [Fraction(1, 2), Fraction(1, 2)]) == Fraction(60, 32)


def test_exact_diag_empty_basis():
    b = build_basis(WS1, [1], [1], 8)
    assert exact_diag_rational(b, [Fraction(1, 2), Fraction(1, 2)]) == 0


def test_exact_diag_degree_guard():
    b = build_basis(WS1, [1], [1], 121)  # single monomial of degree 81
    with pytest.raises(ValueError):
        exact_diag_rational(b, [Fraction(1, 2), Fraction(1, 2)])


def test_hp_kernel_matches_float_route():
    b = build_basis(WS1, [1], [1], 13)
    r_x, ph_x = [Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 7), Fraction(0)]
    r_y, ph_y = [Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(2, 5)]
    ref = hp_kernel(b, r_x, ph_x, r_y, ph_y)
    x = SpherePoint.from_moduli(
        np.array([float(v) for v in r_x]),
        2.0 * np.pi * np.array([float(v) for v in ph_x]),
    )
    y = SpherePoint.from_moduli(
        np.array([float(v) for v in r_y]),
        2.0 * np.pi * np.array([float(v) for v in ph_y]),
    )
    val = szego_eval(b, x, y)
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_hp_kernel_conjugate_symmetry():
    b = build_basis(WS1, [1], [1], 13)
    r_x, ph_x = [Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 7), Fraction(0)]
    r_y, ph_y = [Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(2, 5)]
    a = hp_kernel(b, r_x, ph_x, r_y, ph_y)
    bb = hp_kernel(b, r_y, ph_y, r_x, ph_x)
    assert abs(a - np.conj(bb)) < 1e-40 * abs(a) + 1e-60


def test_stirling_p1_ratio_tends_to_one():
    # the Stirling form targets the bare factorial ratio (no pi)
    ratios = []
    for b in (25, 100, 400):
        nu = 1
        exact_log = (
            math.lgamma(2 * b + nu + 2) - math.lgamma(b + nu + 1) - math.lgamma(b + 1)
        )
        ratios.append(math.exp(exact_log) / stirling_p1(b, nu))
    assert abs(ratios[-1] - 1.0) < 0.01
    assert abs(ratios[0] - 1.0) > abs(ratios[-1] - 1.0)


def test_stirling_p1_limit_published_value():
    assert abs(stirling_p1_limit(400) - 22.5676) < 1e-3


def test_stirling_p2_ratio_tends_to_one():
    ratios = []
    for c in (25, 100, 200):
        nu1 = nu2 = 1
        s = nu1 + 2 * nu2
        exact_log = (
            math.lgamma(3 * c + s + 3)
            - 2 * math.log(math.pi)
            - math.lgamma(c + nu1 + nu2 + 1)
            - math.lgamma(c + nu2 + 1)
            - math.lgamma(c + 1)
        )
        ratios.append(math.exp(exact_log) / stirling_p2(c, nu1, nu2))
    assert abs(ratios[-1] - 1.0) < 0.01
    assert abs(ratios[0] - 1.0) > abs(ratios[-1] - 1.0)


def test_stirling_p2_limit_forms():
    c = 100
    assert abs(
        stirling_p2_limit(c, 1, 1) - stirling_p2_limit_nu_free(c) / 27.0
    ) < 1e-12
    expected = 9.0 * math.sqrt(3.0) * c / (2.0 * math.pi**3) / 27.0
    assert abs(stirling_p2_limit(c, 1, 1) - expected) < 1e-12


def test_mc_sphere_volume():
    est, err = mc_sphere_integral(lambda Z: np.ones(Z.shape[0]), 1, 10**5, seed=0)
    assert abs(est - math.pi) <= 3 * max(err, 1e-12)
    est2, err2 = mc_sphere_integral(lambda Z: np.ones(Z.shape[0]), 2, 10**5, seed=0)
    assert abs(est2 - math.pi**2 / 2) <= 3 * max(err2, 1e-12)


def test_mc_moduli_symmetry():
    est, err = mc_sphere_integral(
        lambda Z: np.abs(Z[:, 0]) ** 2, 1, 10**5, seed=1
    )
    assert abs(est - math.pi / 2) <= 3 * err


def test_mc_matches_dirichlet_moments():
    rng = np.random.default_rng(2)
    for trial in range(5):
        J = tuple(int(v) for v in rng.integers(0, 4, size=2))

        def g(Z, J=J):
            return np.prod(np.abs(Z) ** (2 * np.array(J)), axis=1)

        est, err = mc_sphere_integral(g, 1, 10**5, seed=10 + trial)
        target = dirichlet_moment(J, 1) / (2 * math.pi)
        assert abs(est - target) <= 3 * max(err, 1e-12)


@pytest.mark.parametrize("seed", [7, 11])
def test_mc_gram_chunked_sums_match_one_pass(seed):
    # the Gram matrix and its error bars are summed over chunks of the same
    # drawn samples; the one-pass sums over all of them are the reference
    b = build_basis(level_weight_system(1), [], [1], 5)

    def sections(Z):
        return np.exp(0.5 * b.log_c) * np.prod(Z[:, None, :] ** b.J_matrix, axis=2)

    def f(Z):
        return 1.0 + 0.5 * np.abs(Z[:, 0]) ** 2

    samples = 3 * oracle._MC_CHUNK + 1234
    G, err = oracle.mc_gram(sections, f, 1, samples, seed)
    w, vol = oracle._uniform_sphere(1, samples, seed)
    V, fv = sections(w), f(w)
    G1 = vol / samples * (V.T @ (fv[:, None] * V.conj()))
    A = np.abs(V) ** 2
    second = vol**2 / samples * ((fv**2)[:, None] * A).T @ A
    err1 = np.sqrt(np.maximum(second - np.abs(G1) ** 2, 0.0) / samples)
    G1, err1 = 0.5 * (G1 + G1.conj().T), 0.5 * (err1 + err1.T)
    assert np.max(np.abs(G - G1)) <= 1e-12 * np.max(np.abs(G1))
    assert np.max(np.abs(err - err1)) <= 1e-12 * np.max(err1)


def test_mc_sample_floor():
    with pytest.raises(ValueError):
        mc_sphere_integral(lambda Z: np.ones(Z.shape[0]), 1, 10, seed=0)


def test_dirichlet_published_value():
    assert abs(dirichlet_moment((0, 0), 1) - 2 * math.pi**2) < 1e-12
    assert dirichlet_moment_frac((0, 0), 1) == Fraction(2)


def test_normalization_designed_identity():
    # c_J * (sphere moment) / (2 pi) = 1 exactly in the log domain
    for J, n in (((3, 2), 1), ((4, 3, 2), 2), ((0, 0, 0), 2)):
        log_lhs = (
            log_coefficient(J, n)
            + math.log(dirichlet_moment(J, n))
            - math.log(2 * math.pi)
        )
        assert abs(log_lhs) < 1e-12


def test_oracle_imports_only_weight_system_and_basis():
    # the oracle disagrees with the main path only if it shares none of its
    # code: from the package it takes the weight matrices and the basis rows
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "equiszego" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "equiszego":
                continue
            module = module.removeprefix("equiszego").lstrip(".")
            imported |= {(module, a.name) for a in node.names}
    assert imported == {("actions", "WeightSystem"), ("hardy", "IsotypeBasis")}
