import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equiszego.actions import WeightSystem, act
from equiszego.errors import AssumptionViolation
from equiszego.geometry import SpherePoint
from equiszego import hardy
from equiszego.hardy import (
    _solve_last,
    build_basis,
    dim_isotype,
    enumerate_isotype,
    log_coefficient,
    log_sections,
)
from equiszego.oracle import (
    brute_dim,
    brute_dim_range,
    mc_sphere_integral,
    required_scan_bound,
)
from equiszego.presets import p1_weight_system, p2_weight_system
from support import level_weight_system, t_only_weight_system

WS1 = p1_weight_system()
WS2 = p2_weight_system()


def test_exponent_vector_rejects_negative():
    with pytest.raises(ValueError):
        log_coefficient((1, -1), 1)
    with pytest.raises(ValueError):
        log_coefficient(np.array([[1, 0], [0, -2]]), 1)
    # log_sections reads exponents that build_basis validated and froze
    b = build_basis(WS1, [1], [1], 7)
    with pytest.raises(ValueError):
        b.J_matrix[0, 1] = -1


def test_enumerate_published_cases():
    assert enumerate_isotype(WS1, [1], [1], 7).tolist() == [[3, 2]]
    empty = enumerate_isotype(WS1, [1], [1], 8)
    assert empty.shape == (0, 2) and empty.dtype == np.int64
    # k = 6c + nu1 + 3 nu2 with c = 2
    assert enumerate_isotype(WS2, [1, 1], [1], 16).tolist() == [[4, 3, 2]]


def test_enumerate_refuses_int64_overflow():
    with pytest.raises(AssumptionViolation):
        enumerate_isotype(WS1, [1], [1], 2**62)
    with pytest.raises(AssumptionViolation):
        dim_isotype(WS1, [1], [1], 2**62)


def test_dim_pattern_is_one_congruence_class():
    dims = [dim_isotype(WS1, [1], [1], k) for k in range(1, 13)]
    assert dims == [1 if k % 3 == 1 else 0 for k in range(1, 13)]


def test_dims_match_brute_force_small():
    for k in range(0, 201):
        assert dim_isotype(WS1, [1], [1], k) == brute_dim(WS1, [1], [1], k, bound=2 * k + 2)
    oracle = brute_dim_range(WS2, [1, 1], [1], 200, bound=201)
    for k in range(0, 201):
        assert dim_isotype(WS2, [1, 1], [1], k) == oracle[k]


def test_dim_p2_is_zero_or_one():
    dims = {dim_isotype(WS2, [1, 1], [1], k) for k in range(0, 501)}
    assert dims <= {0, 1}


def test_t_only_dimension_is_lattice_count():
    ws = t_only_weight_system(1, [1, 2])
    # a + 2b = k has floor(k/2)+1 solutions
    for k in range(0, 30):
        assert dim_isotype(ws, [], [1], k) == k // 2 + 1


def test_relaxing_fixed_block_recovers_t_only_count():
    ws_t = t_only_weight_system(1, [1, 2])
    k = 17
    total = dim_isotype(ws_t, [], [1], k)
    by_character = sum(
        dim_isotype(WS1, [nu], [1], k) for nu in range(-2 * k, 2 * k + 1)
    )
    assert by_character == total


def test_log_coefficient_values():
    assert abs(log_coefficient((0, 0), 1) - math.log(1 / math.pi)) < 1e-14
    assert abs(log_coefficient((3, 2), 1) - math.log(60 / math.pi)) < 1e-13
    # (|J| + n)! = 11! here, matching the displayed normalization
    expected = math.log(math.factorial(11) / (math.pi**2 * 24 * 6 * 2))
    assert abs(log_coefficient((4, 3, 2), 2) - expected) < 1e-13


def test_log_factorial_matches_gammaln():
    from scipy.special import gammaln

    def assert_close(x):
        ref = gammaln(x + 1)
        assert np.all(np.abs(hardy._log_factorial(x) - ref) <= 1e-14 * np.abs(ref))

    assert_close(np.arange(10**5 + 1))
    assert_close(np.random.default_rng(5).integers(0, 10**17, size=10**4))
    # the table's cap, both sides of it, and huge values in one call
    cap = hardy._LOG_FACTORIAL_CAP
    assert_close(np.array([[cap - 1, cap], [cap + 1, 10**16]]))
    assert hardy._log_factorial(np.array([0, 1])).tolist() == [0.0, 0.0]
    assert hardy._log_factorial(5).shape == ()
    assert hardy._log_factorial(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
    with pytest.raises(ValueError):
        hardy._log_factorial(np.array([3, -1]))


def test_basis_entries_sorted_and_deterministic():
    ws = t_only_weight_system(2, [1, 1, 1])
    b1 = build_basis(ws, [], [1], 5)
    b2 = build_basis(ws, [], [1], 5)
    assert b1.J_matrix.tobytes() == b2.J_matrix.tobytes()
    assert b1.log_c.tobytes() == b2.log_c.tobytes()
    Js = b1.J_matrix.tolist()
    assert Js == sorted(Js)
    assert b1.dim == (5 + 2) * (5 + 1) // 2  # full degree-5 space on n=2


def test_tail_solver_vectorized_path_matches_loop():
    # the vectorized last-coordinate solve must agree with the elementary
    # one-at-a-time enumeration, also when the last two columns are parallel
    # (then many prefixes share one residual direction)
    import random

    def loop_tail(c0, c1, residual, caps):
        return [
            (a, b)
            for a in range(caps[0] + 1)
            for b in range(caps[1] + 1)
            if all(a * w0 + b * w1 == r for w0, w1, r in zip(c0, c1, residual))
        ]

    random.seed(0)
    checked = 0
    while checked < 400:
        d = random.randint(1, 3)
        c0 = tuple(random.randint(-3, 4) for _ in range(d))
        t = random.randint(-3, 3)
        c1 = tuple(t * w for w in c0)
        if not any(c1):
            continue  # the last column is nonzero for every weight system
        residual = tuple(random.randint(-10, 20) for _ in range(d))
        caps = [random.randint(0, 15), random.randint(0, 15)]
        a = np.arange(caps[0] + 1, dtype=np.int64)[:, None]
        R = np.array(residual, dtype=np.int64) - a * np.array(c0, dtype=np.int64)
        got = _solve_last(a, R, np.array(c1, dtype=np.int64), caps[1])
        assert got.dtype == np.int64
        assert got.tolist() == [list(s) for s in loop_tail(c0, c1, residual, caps)]
        checked += 1


@st.composite
def small_isotypes(draw):
    """Random small weight systems passing the positivity check, with a
    character and a scale; about a third have parallel last two columns, and
    about a third of those with a fixed block have W_G columns that are zero
    at the tail (where the sweep prunes most)."""
    n = draw(st.integers(1, 3))
    d_G = draw(st.integers(0, 2))
    d_T = draw(st.integers(1, 2))
    entry = st.integers(-3, 4)
    W = np.array(
        draw(st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1),
                      min_size=d_G + d_T, max_size=d_G + d_T)),
        dtype=np.int64,
    )
    if draw(st.integers(0, 2)) == 0:
        W[:, -1] = draw(st.integers(1, 3)) * W[:, -2]
    if d_G and draw(st.integers(0, 2)) == 0:
        W[:d_G, n + 1 - draw(st.integers(1, n)):] = 0
    try:
        ws = WeightSystem(n=n, W_G=W[:d_G], W_T=W[d_G:])
    except AssumptionViolation:
        assume(False)
    nu_G = draw(st.lists(st.integers(-3, 3), min_size=d_G, max_size=d_G))
    nu_T = draw(st.lists(st.integers(-2, 3), min_size=d_T, max_size=d_T))
    return ws, nu_G, nu_T, draw(st.integers(0, 5))


def _check_against_exhaustive_scan(ws, nu_G, nu_T, k, bound):
    box = np.indices((bound + 1,) * (ws.n + 1)).reshape(ws.n + 1, -1).T
    box = box[box.sum(axis=1) <= bound]
    target = np.array(list(nu_G) + [k * v for v in nu_T], dtype=np.int64)
    expected = sorted(J for J in box.tolist() if (ws.W_P @ J == target).all())
    J = enumerate_isotype(ws, nu_G, nu_T, k)
    assert J.dtype == np.int64 and J.shape == (len(expected), ws.n + 1)
    assert J.tolist() == expected
    assert dim_isotype(ws, nu_G, nu_T, k) == brute_dim(ws, nu_G, nu_T, k, bound)
    return J


@settings(max_examples=200, deadline=None)
@given(small_isotypes())
def test_enumeration_matches_exhaustive_scan(case):
    ws, nu_G, nu_T, k = case
    bound = required_scan_bound(ws, nu_T, k)
    assume(bound <= 30)
    _check_against_exhaustive_scan(ws, nu_G, nu_T, k, bound)


@settings(max_examples=200, deadline=None)
@given(small_isotypes())
# n = 0: the sweep is the solved level alone
@example((t_only_weight_system(0, [3]), [], [1], 6))
@example((t_only_weight_system(0, [3]), [], [1], 7))
# d_G = 1
@example((WS1, [1], [1], 7))
# budget < 0: the isotype is empty before any sweep
@example((WS1, [1], [-1], 5))
def test_dim_isotype_counts_the_enumerated_rows(case):
    ws, nu_G, nu_T, k = case
    dim = dim_isotype(ws, nu_G, nu_T, k)
    assert type(dim) is int
    assert dim == enumerate_isotype(ws, nu_G, nu_T, k).shape[0]


def test_dim_isotype_lists_no_rows():
    # level n = 2 at k = 1400 has 982,101 entries; listing them peaks near
    # 47 MB, counting them near 1 MB
    tracemalloc.start()
    try:
        dim = dim_isotype(level_weight_system(2), [], [1], 1400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == math.comb(1402, 2)
    assert peak < 8 * 2**20


TRANSVERSAL = WeightSystem(n=3, W_G=[[1, -1, 0, 0]], W_T=[[1, 1, 1, 1]])
# functionals with a component below 1/2000: a rationalization with a
# fixed denominator limit of 1000 rounds it to 0, which leaves a functional
# that is not positive on every column
LARGE_WEIGHTS = t_only_weight_system(1, [3000, 3001])
LARGE_COPRIME = WeightSystem(
    n=2, W_G=np.zeros((0, 3), dtype=int), W_T=[[2003, -1, 1000], [-1, 2011, 1000]]
)


@pytest.mark.parametrize(
    "ws, nu_G, nu_T, ks",
    [
        (TRANSVERSAL, [0], [1], [11, 12, 13]),
        (WS2, [1, 1], [1], [27, 28, 29, 33, 34, 35]),
        # caps (k, k // 2, k // 3): k = 3c - 1, 3c, 3c + 1 straddle the cap
        # of the last coordinate, which (0, 0, c) reaches exactly
        (t_only_weight_system(2, [1, 2, 3]), [], [1], [29, 30, 31]),
        # functional 1/2, caps (k // 2, k // 4, k // 6)
        (t_only_weight_system(2, [2, 4, 6]), [], [1], [35, 36, 37]),
        # functional (1/3, 5/3), rationalized to (1, 5)
        (WeightSystem(n=2, W_G=[[-2, 1, 2]], W_T=[[3, 2, -2], [0, 2, 1]]), [1], [1, 1], [5, 6, 7]),
        # functional 1/3000, caps (k // 3000, k // 3001): 6002 = 2 * 3001
        # reaches the cap of the last coordinate
        (LARGE_WEIGHTS, [], [1], [5999, 6000, 6001, 6002, 6003]),
        (LARGE_COPRIME, [], [3002, 3010], [0, 1, 2, 3, 4]),
    ],
    ids=["transversal", "p2", "cap-boundary", "half-functional", "fractional-functional",
         "large-weights", "large-coprime-weights"],
)
def test_enumeration_matches_oracle_near_cap_boundaries(ws, nu_G, nu_T, ks):
    for k in ks:
        _check_against_exhaustive_scan(ws, nu_G, nu_T, k, required_scan_bound(ws, nu_T, k))


def test_caps_exact_at_large_k():
    # 97 (10^14 + 1) / 97 in floats lands below the integer, and a float cap
    # dropped the only solution; the integer caps are exact for every k
    ws = t_only_weight_system(0, [97])
    c = 10**14 + 1
    assert enumerate_isotype(ws, [], [1], 97 * c).tolist() == [[c]]
    assert enumerate_isotype(ws, [], [1], 97 * c - 1).shape == (0, 1)
    assert enumerate_isotype(ws, [], [1], 97 * c + 1).shape == (0, 1)


def test_integer_functional_is_positive_on_every_column():
    for ws in (WS1, WS2, TRANSVERSAL, t_only_weight_system(2, [2, 4, 6]),
               WeightSystem(n=2, W_G=[[-2, 1, 2]], W_T=[[3, 2, -2], [0, 2, 1]]),
               LARGE_WEIGHTS, LARGE_COPRIME):
        psi = hardy._integer_functional(ws)
        assert all(isinstance(p, int) for p in psi)
        assert (np.array(psi) @ ws.W_T >= 1).all()


def test_enumeration_refuses_a_functional_that_is_not_positive():
    ws = t_only_weight_system(1, [1, 2])
    object.__setattr__(ws, "_phi_positive", np.array([-1.0]))
    with pytest.raises(AssumptionViolation):
        enumerate_isotype(ws, [], [1], 5)


def test_sweep_reaches_the_last_coordinate_only_near_solutions(monkeypatch):
    # interval pruning: rows that reach the last-coordinate solve are at
    # most twice the output (3,721 here; the unpruned sweep sent 302,621)
    seen = []

    def counting(P, R, col, cap):
        seen.append(P.shape[0])
        return _solve_last(P, R, col, cap)

    monkeypatch.setattr(hardy, "_solve_last", counting)
    dim = enumerate_isotype(TRANSVERSAL, [0], [1], 120).shape[0]
    assert dim == 3721
    assert sum(seen) <= 2 * dim


def test_enumeration_leaves_no_reference_cycle():
    # a cycle would keep the sweep's arrays alive until a full collection
    gc.collect()
    gc.disable()
    try:
        enumerate_isotype(TRANSVERSAL, [0], [1], 120)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_basis_dump_format():
    b = build_basis(WS1, [1], [1], 7)
    (line,) = b.dump_lines()
    parts = line.split()
    assert parts[:2] == ["3", "2"]
    assert abs(float(parts[2]) - log_coefficient((3, 2), 1)) < 1e-15


def _sections(b, Z):
    logmag, phase = log_sections(b, Z)
    return np.exp(logmag + 1j * phase)


def test_eval_section_axis_point():
    k = 12
    b = build_basis(level_weight_system(1), [], [1], k)
    x = SpherePoint(np.array([1.0, 0.0]))
    vals = _sections(b, x)
    row = b.J_matrix.tolist().index([k, 0])
    assert abs(vals[row] - math.exp(log_coefficient((k, 0), 1) / 2)) < 1e-12
    # every other section has a positive exponent on the zero coordinate
    assert np.all(np.delete(vals, row) == 0.0)


def test_eval_section_equivariance_phase():
    rng = np.random.default_rng(3)
    b = build_basis(WS1, [1], [1], 13)
    J = b.J_matrix[0]
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x = SpherePoint(z / np.linalg.norm(z))
    for _ in range(5):
        p = rng.uniform(0, 2 * np.pi, size=2)
        lhs = _sections(b, act(WS1, p, x))[0]
        weight = np.concatenate([WS1.W_G @ J, WS1.W_T @ J]).astype(float)
        rhs = np.exp(-1j * (weight @ p)) * _sections(b, x)[0]
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_eval_section_bounded_by_normalization():
    rng = np.random.default_rng(4)
    b = build_basis(WS1, [1], [1], 31)
    lc = b.log_c[0]
    for seed in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = SpherePoint(z / np.linalg.norm(z))
        assert abs(_sections(b, x)[0]) <= math.exp(lc / 2) + 1e-12


def test_eval_section_large_degree_stable():
    x = SpherePoint.from_moduli([0.5, 0.5])
    b = build_basis(level_weight_system(1), [], [1], 10000)
    v = _sections(b, x)[b.J_matrix.tolist().index([5000, 5000])]
    assert v != 0 and np.isfinite(v.real) and np.isfinite(v.imag)


def test_orthonormality_monte_carlo():
    ws = level_weight_system(1)
    b = build_basis(ws, [], [1], 5)
    assert b.dim == 6
    for i in range(b.dim):
        for j in range(i, b.dim):

            def g(Z, i=i, j=j):
                V = _sections(b, Z)
                return V[:, i] * np.conj(V[:, j])

            est, err = mc_sphere_integral(g, 1, samples=20000, seed=100 + 7 * i + j)
            target = 1.0 if i == j else 0.0
            est_r = est.real if np.iscomplexobj(np.asarray(est)) else est
            assert abs(est_r - target) <= 3.0 * max(err, 1e-3)
