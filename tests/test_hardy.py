import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equiszego import actions
from equiszego.actions import WeightSystem, act
from equiszego.errors import AssumptionViolation
from equiszego.geometry import SpherePoint
from equiszego import hardy
from equiszego.hardy import (
    build_basis,
    dim_isotype,
    enumerate_isotype,
    log_coefficient,
    log_moduli,
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
TRANSVERSAL = WeightSystem(n=3, W_G=[[1, -1, 0, 0]], W_T=[[1, 1, 1, 1]])
WEIGHTED = t_only_weight_system(3, [1, 2, 3, 5])


def test_exponent_vector_rejects_negative():
    with pytest.raises(ValueError):
        log_coefficient((1, -1), 1)
    with pytest.raises(ValueError):
        log_coefficient(np.array([[1, 0], [0, -2]]), 1)
    # log_sections reads exponents that build_basis validated and froze
    b = build_basis(WS1, [1], [1], 7)
    with pytest.raises(ValueError):
        b.J_matrix[0, 1] = -1


@pytest.mark.parametrize("ws, nu_G, k", [(TRANSVERSAL, [0], 120), (WEIGHTED, [], 100)])
def test_log_coefficient_sums_columns_as_the_table_did(ws, nu_G, k):
    # one column at a time gives the bits of the (N, n+1) table's row sums
    J = enumerate_isotype(ws, nu_G, [1], k)
    table = (hardy._log_factorial(J.sum(axis=-1) + ws.n) - ws.n * math.log(math.pi)
             - hardy._log_factorial(J).sum(axis=-1))
    assert np.array_equal(log_coefficient(J, ws.n), table)
    assert np.array_equal(build_basis(ws, nu_G, [1], k).log_c, table)


def test_exponent_transpose_is_cast_once_and_read_only():
    b = build_basis(TRANSVERSAL, [0], [1], 60)
    JT = b.J_float_T
    assert JT is b.J_float_T and JT.dtype == np.float64 and JT.flags.c_contiguous
    assert np.array_equal(JT, b.J_matrix.T)
    with pytest.raises(ValueError):
        JT[0, 0] = 1.0


def test_section_batches_are_refused_past_the_entry_limit(monkeypatch):
    # the limit is checked before the exponents are cast or a product exists:
    # refusing 3 points on a 2**23-row basis allocates nothing of its size
    dim = 2**23
    huge = hardy.IsotypeBasis(
        ws=TRANSVERSAL, nu_G=(0,), nu_T=(1,), k=12,
        J_matrix=np.broadcast_to(np.zeros(4, dtype=np.int64), (dim, 4)),
        log_c=np.broadcast_to(0.0, (dim,)),
    )
    Z = np.full((3, 4), 0.5, dtype=complex)
    monkeypatch.setattr(hardy, "MAX_SECTION_ENTRIES", 3 * dim - 1)
    tracemalloc.start()
    try:
        for fn in (log_moduli, log_sections):
            with pytest.raises(AssumptionViolation, match=f"3 points on a basis of {dim} rows"):
                fn(huge, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # at the limit the batch passes
    b = build_basis(TRANSVERSAL, [0], [1], 12)
    monkeypatch.setattr(hardy, "MAX_SECTION_ENTRIES", 3 * b.dim)
    assert log_moduli(b, Z).shape == log_sections(b, Z)[1].shape == (3, b.dim)
    with pytest.raises(AssumptionViolation):
        log_moduli(b, np.full((4, 4), 0.5, dtype=complex))


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
    # here only the last step's cross products overflow: residuals stay
    # within N = 2**42 + 1 and R_r b_p within N 2**20 < 2**63, but
    # R_1 b_0 - R_0 b_1 = -2 N 2**20 = -(2**63 + 2**21)
    N = 2**42 + 1
    ws = WeightSystem(n=2, W_G=[[0, 1, 2**20], [0, 2, 2**20]], W_T=[[1, 1, 1]])
    for count in (enumerate_isotype, dim_isotype):
        with pytest.raises(AssumptionViolation):
            count(ws, [N, -N], [1], 0)


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


def _pair_step(c0, c1, residual, caps):
    """The sweep's last step on one prefix row with the given residual: the
    (a, b) rows it lists and the number it counts."""
    a, b = np.array(c0, dtype=np.int64), np.array(c1, dtype=np.int64)
    span = b * caps[1]  # b's range over [0, caps[1]]: the window of a's values
    levels = [(a, caps[0], np.minimum(span, 0).tolist(), np.maximum(span, 0).tolist(), 1),
              (b, caps[1], [0] * len(c0), [0] * len(c0), 1)]
    R, B = np.array([residual], dtype=np.int64), np.array([caps[0]], dtype=np.int64)
    blocks = [np.zeros((0, 2), dtype=np.int64)]
    listed = hardy._sweep(np.zeros((1, 0), dtype=np.int64), R, B, levels, blocks)
    rows = np.concatenate(blocks)
    assert rows.dtype == np.int64 and listed == rows.shape[0]
    return rows.tolist(), hardy._sweep(None, R, B, levels, None)


def test_tail_solver_vectorized_path_matches_loop():
    # the last step's progressions must list and count what the elementary
    # double loop finds, with the last two columns parallel (then many values
    # share one residual direction) and independent
    import random

    def loop_tail(c0, c1, residual, caps):
        return [
            [a, b]
            for a in range(caps[0] + 1)
            for b in range(caps[1] + 1)
            if all(a * w0 + b * w1 == r for w0, w1, r in zip(c0, c1, residual))
        ]

    def check(c0, c1, residual, caps):
        expected = loop_tail(c0, c1, residual, caps)
        assert _pair_step(c0, c1, residual, caps) == (expected, len(expected))
        return len(expected)

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
        check(c0, c1, residual, caps)
        checked += 1
    solved = checked = 0
    while checked < 200:
        d = random.randint(2, 3)
        c0 = tuple(random.randint(-3, 4) for _ in range(d))
        c1 = tuple(random.randint(-3, 4) for _ in range(d))
        if all(x * c1[i] == y * c0[i] for x, y in zip(c0, c1) for i in range(d)):
            continue  # parallel or zero: covered above
        caps = [random.randint(0, 15), random.randint(0, 15)]
        if random.randint(0, 3):  # the residual of one (a, b), in the caps or not
            a, b = random.randint(0, caps[0] + 1), random.randint(0, caps[1] + 1)
            residual = tuple(a * x + b * y for x, y in zip(c0, c1))
        else:
            residual = tuple(random.randint(-10, 20) for _ in range(d))
        solved += check(c0, c1, residual, caps)
        checked += 1
    assert solved > 80  # the solutions of most built residuals lie in the caps


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
# weighted (1, 2, 3, 5): the last step's progressions step by m = 5
@example((WEIGHTED, [], [1], 37))
# (2, 4, 6): gcd(a_p, b_p) = 2 on the last two columns, m = 3
@example((t_only_weight_system(2, [2, 4, 6]), [], [1], 36))
# p2: independent last two columns, one solution
@example((WS2, [1, 1], [1], 28))
def test_dim_isotype_counts_the_enumerated_rows(case):
    ws, nu_G, nu_T, k = case
    dim = dim_isotype(ws, nu_G, nu_T, k)
    assert type(dim) is int
    assert dim == enumerate_isotype(ws, nu_G, nu_T, k).shape[0]


def test_dim_isotype_lists_no_rows():
    # level n = 2 at k = 1400 has 982,101 entries; listing them peaks near
    # 47 MB, counting them (1,401 progressions) near 0.1 MB
    tracemalloc.start()
    try:
        dim = dim_isotype(level_weight_system(2), [], [1], 1400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == math.comb(1402, 2)
    assert peak < 0.5 * 2**20


def test_listing_is_refused_past_the_row_limit(monkeypatch):
    # the running total is checked before each last step lists its rows
    monkeypatch.setattr(hardy, "MAX_BASIS_ROWS", 3721)
    assert enumerate_isotype(TRANSVERSAL, [0], [1], 120).shape[0] == 3721
    monkeypatch.setattr(hardy, "MAX_BASIS_ROWS", 3720)
    with pytest.raises(AssumptionViolation, match="more than 3720 rows"):
        build_basis(TRANSVERSAL, [0], [1], 120)
    assert dim_isotype(TRANSVERSAL, [0], [1], 120) == 3721  # counting is not limited


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
        # caps (k, k, k): (0, 0, k) reaches the cap of the last coordinate
        (level_weight_system(2), [], [1], [0, 7]),
        # caps (k, k // 2, k // 3, k // 5): k = 15 reaches the last two
        (WEIGHTED, [], [1], [0, 15]),
    ],
    ids=["transversal", "p2", "cap-boundary", "half-functional", "fractional-functional",
         "large-weights", "large-coprime-weights", "level", "weighted"],
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


@st.composite
def positive_weight_rows(draw):
    """T-weight rows with a planted positive functional f: each column w has
    f . w > 0, flipped or shifted by f where it was not."""
    d_T, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entry = st.integers(-6, 6)
    f = np.array(draw(st.lists(st.integers(-3, 3), min_size=d_T, max_size=d_T)))
    assume(f.any())
    cols = []
    for _ in range(m):
        w = np.array(draw(st.lists(entry, min_size=d_T, max_size=d_T)))
        cols.append(w + f if f @ w == 0 else np.sign(f @ w) * w)
    return np.array(cols).T.tolist()


@settings(max_examples=200, deadline=None)
@given(W_T=positive_weight_rows())
@example(W_T=[[3000, 3001]])
@example(W_T=[[2003, -1, 1000], [-1, 2011, 1000]])
def test_integer_functional_is_the_primitive_multiple_of_phi(W_T):
    # psi is an integer multiple of the exact LP functional phi, so every
    # pairing psi . w_i is a positive integer, with no rounding to defend
    ws = WeightSystem(n=len(W_T[0]) - 1, W_G=np.zeros((0, len(W_T[0])), dtype=int), W_T=W_T)
    psi, phi = ws.integer_functional, actions._positive_functional(ws.W_T)
    assert all(type(p) is int for p in psi) and math.gcd(*psi) == 1
    i = next(i for i, v in enumerate(phi) if v)
    scale = psi[i] / phi[i]
    assert scale > 0 and [scale * v for v in phi] == list(psi)
    assert all(sum(p * w for p, w in zip(psi, col)) >= 1 for col in ws.W_T.T.tolist())


def test_sweep_reaches_the_last_coordinate_only_near_solutions(monkeypatch):
    # the last two coordinates are listed from progressions of solutions
    # only: the rows materialised at the last step are the output exactly.
    # Expanding the second-to-last coordinate and filtering sent 1,824,812
    # rows for weighted's 370,403 (and the unpruned sweep 302,621 rows for
    # transversal's 3,721)
    progression, chunks = hardy._progression, hardy._chunks
    counts, listed = [], []

    def counting_progression(*args):
        out = progression(*args)
        counts.append(out[2])
        return out

    def counting_chunks(first, reps, step):
        last_step = any(reps is c for c in counts)
        for rows, v in chunks(first, reps, step):
            listed.append(len(v) if last_step else 0)
            yield rows, v

    monkeypatch.setattr(hardy, "_progression", counting_progression)
    monkeypatch.setattr(hardy, "_chunks", counting_chunks)
    for ws, nu_G, k, dim in [(TRANSVERSAL, [0], 120, 3721), (WEIGHTED, [], 400, 370_403)]:
        counts.clear()
        listed.clear()
        assert enumerate_isotype(ws, nu_G, [1], k).shape[0] == dim
        assert sum(listed) == dim


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
