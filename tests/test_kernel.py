from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiszego.actions import WeightSystem, act, locus_center
from equiszego.geometry import (
    SpherePoint,
    TangentVectorX,
    frame_at,
)
from equiszego.hardy import build_basis, log_moduli, log_sections
from equiszego.kernel import log_szego_diag, szego_diag, szego_eval
from equiszego.oracle import (
    exact_diag_rational,
    hp_kernel,
    level_kernel_closed,
    mc_sphere_integral,
)
from equiszego.presets import p1_weight_system
from support import level_weight_system, rescaled_kernel, t_only_weight_system
from test_hardy import small_isotypes

WS1 = p1_weight_system()
X1 = SpherePoint(np.array([1.0, 1.0]) / np.sqrt(2))


def _sections(b, Z):
    logmag, phase = log_sections(b, Z)
    return np.exp(logmag + 1j * phase)


def random_unit(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return SpherePoint(z / np.linalg.norm(z))


def test_eval_published_closed_form():
    b = build_basis(WS1, [1], [1], 7)  # single monomial (3, 2)
    rng = np.random.default_rng(0)
    for seed in range(5):
        x, y = random_unit(1, seed), random_unit(1, seed + 50)
        expected = (
            60.0
            / np.pi
            * (x.z[0] * np.conj(y.z[0])) ** 3
            * (x.z[1] * np.conj(y.z[1])) ** 2
        )
        got = szego_eval(b, x, y)
        assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))


def test_empty_basis_evaluates_to_zero():
    b = build_basis(WS1, [1], [1], 8)
    assert b.dim == 0
    assert szego_eval(b, X1, X1) == 0.0
    assert szego_diag(b, X1) == 0.0
    assert log_szego_diag(b, X1) == -np.inf


def test_hermitian_symmetry_random_pairs():
    ws = t_only_weight_system(2, [1, 1, 1])
    b = build_basis(ws, [], [1], 6)
    for seed in range(100):
        x, y = random_unit(2, seed), random_unit(2, seed + 1000)
        lhs = szego_eval(b, x, y)
        rhs = np.conj(szego_eval(b, y, x))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_diag_exact_values():
    b = build_basis(WS1, [1], [1], 7)
    assert abs(szego_diag(b, X1) - 60.0 / (32.0 * np.pi)) < 1e-14
    frac = exact_diag_rational(b, ["1/2", "1/2"])
    assert abs(szego_diag(b, X1) - float(frac) / np.pi) < 1e-14
    # regression against the lgamma closed form at b = 400
    b400 = build_basis(WS1, [1], [1], 1201)
    assert abs(szego_diag(b400, X1) - 7.1902169477851885) < 1e-9


def test_diag_zero_coordinate():
    b = build_basis(WS1, [1], [1], 7)
    assert szego_diag(b, SpherePoint(np.array([1.0, 0.0]))) == 0.0


def test_diag_equals_sum_of_squares():
    ws = level_weight_system(1)
    b = build_basis(ws, [], [1], 6)
    x = random_unit(1, seed=2)
    direct = float(np.sum(np.abs(_sections(b, x)) ** 2))
    assert abs(szego_diag(b, x) - direct) < 1e-12 * direct


def test_rescaled_center_recovers_diagonal():
    b = build_basis(WS1, [1], [1], 301)
    f = frame_at(X1)
    zero = TangentVectorX(0.0, np.zeros(1))
    assert abs(rescaled_kernel(b, f, zero, zero, 301) - szego_diag(b, X1)) < 1e-12


def test_rescaled_fiber_phase_matches_monomials():
    k = 301
    b = build_basis(WS1, [1], [1], k)
    f = frame_at(X1)
    J = b.J_matrix[0].tolist()
    theta = 0.37
    u1 = TangentVectorX(theta, np.zeros(1))
    u2 = TangentVectorX(0.0, np.zeros(1))
    got = rescaled_kernel(b, f, u1, u2, k)
    # e^{i theta} x scales each monomial by e^{i |J| theta}
    expected = np.exp(1j * sum(J) * theta / np.sqrt(k)) * szego_diag(b, X1)
    assert abs(got - expected) < 1e-10 * abs(expected)


def test_rescaled_transversal_decay():
    k = 301
    b = build_basis(WS1, [1], [1], k)
    f = frame_at(X1)
    zero = TangentVectorX(0.0, np.zeros(1))
    # the transversal direction at the equal-moduli point is the real axis
    u = TangentVectorX(0.0, np.array([1.0 + 0.0j]))
    assert abs(rescaled_kernel(b, f, u, u, k)) < szego_diag(b, X1)


def test_level_kernel_closed_basics():
    x = SpherePoint(np.array([1.0, 0.0]))
    y = SpherePoint(np.array([0.0, 1.0]))
    assert level_kernel_closed(1, 3, x, y) == 0.0
    assert abs(level_kernel_closed(1, 1, x, x) - 2.0 / np.pi) < 1e-15


def test_level_kernel_multinomial_collapse():
    # general pairs: error measured against the Cauchy-Schwarz scale
    # sqrt(K(x,x) K(y,y)), the conditioning limit of the monomial sum
    for n in (1, 2):
        ws = level_weight_system(n)
        for k in (1, 7, 40):
            b = build_basis(ws, [], [1], k)
            for seed in range(3):
                x, y = random_unit(n, seed + 10 * k), random_unit(n, seed + 999)
                lhs = szego_eval(b, x, y)
                rhs = level_kernel_closed(n, k, x, y)
                scale = np.sqrt(
                    level_kernel_closed(n, k, x, x).real
                    * level_kernel_closed(n, k, y, y).real
                )
                assert abs(lhs - rhs) <= 1e-10 * scale


def test_level_kernel_collapse_relative_when_well_conditioned():
    # strict 1e-10 relative agreement holds away from near-orthogonal pairs
    rng = np.random.default_rng(6)
    for n in (1, 2):
        ws = level_weight_system(n)
        b = build_basis(ws, [], [1], 40)
        found = 0
        seed = 0
        while found < 3:
            x, y = random_unit(n, seed), random_unit(n, seed + 3000)
            seed += 1
            if abs(np.sum(x.z * np.conj(y.z))) < 0.75:
                continue
            found += 1
            lhs = szego_eval(b, x, y)
            rhs = level_kernel_closed(n, 40, x, y)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        # moduli-only pairs are cancellation-free at any overlap
        r = rng.dirichlet(np.ones(n + 1), size=2)
        x = SpherePoint.from_moduli(r[0])
        y = SpherePoint.from_moduli(r[1])
        lhs = szego_eval(b, x, y)
        rhs = level_kernel_closed(n, 40, x, y)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_action_invariance_and_twisted_equivariance():
    b = build_basis(WS1, [1], [1], 13)
    k = 13
    rng = np.random.default_rng(5)
    for seed in range(10):
        x, y = random_unit(1, seed), random_unit(1, seed + 77)
        base = szego_eval(b, x, y)
        p = rng.uniform(0, 2 * np.pi, size=2)
        both = szego_eval(b, act(WS1, p, x), act(WS1, p, y))
        assert abs(both - base) <= 1e-10 * max(abs(base), 1e-6)
        one = szego_eval(b, act(WS1, p, x), y)
        weight = np.array([1.0, float(k)])
        phase = np.exp(-1j * (weight @ p))
        assert abs(one - phase * base) <= 1e-10 * max(abs(base), 1e-6)


def test_batch_matches_scalar():
    ws = t_only_weight_system(1, [1, 2])
    b = build_basis(ws, [], [1], 9)
    x = random_unit(1, seed=8)
    W = np.array([random_unit(1, seed=s).z for s in range(6)])
    batch = szego_eval(b, x, W)
    for i in range(6):
        assert abs(batch[i] - szego_eval(b, x, SpherePoint(W[i]))) < 1e-12 * max(
            1.0, abs(batch[i])
        )


def test_reproducing_property_monte_carlo():
    ws = level_weight_system(1)
    b = build_basis(ws, [], [1], 4)
    x = random_unit(1, seed=4)
    for idx in (0, 2):

        def g(Z, idx=idx):
            return szego_eval(b, x, Z) * _sections(b, Z)[:, idx]

        est, err = mc_sphere_integral(g, 1, samples=40000, seed=1234 + idx)
        target = _sections(b, x)[idx]
        assert abs(complex(est) - target) <= 3.0 * err + 1e-3


def test_large_degree_diag_stable():
    b = build_basis(WS1, [1], [1], 9001)
    val = log_szego_diag(b, X1)
    assert np.isfinite(val)
    # off the locus the value underflows gracefully through the log route
    y = SpherePoint.from_moduli([0.9, 0.1])
    assert log_szego_diag(b, y) < -400
    assert szego_diag(b, y) == 0.0


@pytest.mark.parametrize("ws, nu_G, k, vanishing", [
    (WS1, [1], 301, 3),
    (level_weight_system(2), [], 40, 0),
    (WeightSystem(n=3, W_G=[[1, -1, 0, 0]], W_T=[[1, 1, 1, 1]]), [0], 60, 1),
    (t_only_weight_system(3, [1, 2, 3, 5]), [], 100, 0),
], ids=["p1", "level", "transversal", "weighted"])
def test_diagonal_from_moduli_matches_the_section_sum(ws, nu_G, k, vanishing):
    # the phase-free diagonal against the log-sum-exp of 2 logmag, with
    # logmag built row by row from the exponents, at the locus center,
    # displaced points and points with a zero coordinate, where sections
    # vanish exactly (at `vanishing` of the points, all of them do)
    b = build_basis(ws, nu_G, [1], k)
    m = ws.n + 1
    rng = np.random.default_rng(7)
    center = locus_center(ws, [1]).z
    pts = [center, center * np.exp(0.3j * np.arange(m))]
    pts += [center + 0.05 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            for _ in range(3)]
    pts += [np.eye(m)[0], np.eye(m)[-1], np.where(np.arange(m) == 1, 0.0, center)]
    zeros = 0
    for z in pts:
        x = SpherePoint.from_coords(z)
        mods = np.abs(x.z)
        with np.errstate(divide="ignore"):
            logmag = 0.5 * b.log_c + b.J_matrix @ np.log(np.where(mods == 0, 1.0, mods))
        logmag[(b.J_matrix[:, mods == 0] > 0).any(axis=1)] = -np.inf
        assert np.array_equal(log_sections(b, x)[0], log_moduli(b, x))
        assert np.allclose(log_moduli(b, x), logmag, rtol=1e-14, atol=1e-12)
        assert np.array_equal(log_moduli(b, x) == -np.inf, logmag == -np.inf)
        two = 2.0 * logmag
        top = np.max(two)
        got, val = log_szego_diag(b, x), szego_diag(b, x)
        if top == -np.inf:
            zeros += 1
            assert got == -np.inf and val == 0.0
            continue
        ref = top + np.log(np.sum(np.exp(two - top)))
        assert abs(got - ref) <= 1e-13 * abs(ref)
        assert abs(val - np.exp(ref)) <= 1e-13 * np.exp(ref) and val > 0.0
    assert zeros == vanishing


def _rational_point(data, m):
    """Moduli-squared r (rational, some exactly 0) and phases (rational
    fractions of a turn), with the SpherePoint they describe."""
    w = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    r = [Fraction(v, sum(w)) for v in w]
    ph = [Fraction(v, 12) for v in data.draw(st.lists(st.integers(0, 11), min_size=m, max_size=m))]
    x = SpherePoint.from_moduli([float(v) for v in r], [2 * np.pi * float(p) for p in ph])
    return r, ph, x


@settings(max_examples=200, deadline=None)
@given(small_isotypes(), st.data())
def test_log_sections_kernel_matches_high_precision_oracle(case, data):
    ws, nu_G, nu_T, k = case
    m = ws.n + 1
    if data.draw(st.booleans()):
        # most drawn characters have empty isotypes: use one holding k J0
        J0 = np.array(data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
        k = data.draw(st.integers(1, 3))
        nu_G, nu_T = (k * ws.W_G @ J0).tolist(), (ws.W_T @ J0).tolist()
    b = build_basis(ws, nu_G, nu_T, k)
    rx, phx, x = _rational_point(data, m)
    ry, phy, y = _rational_point(data, m)
    ref = hp_kernel(b, rx, phx, ry, phy)
    kxx = hp_kernel(b, rx, phx, rx, phx).real
    kyy = hp_kernel(b, ry, phy, ry, phy).real
    got = szego_eval(b, x, y)
    if ref == 0:
        assert got == 0.0
    else:
        assert abs(got - ref) <= 1e-10 * np.sqrt(kxx * kyy)
    assert abs(szego_diag(b, x) - kxx) <= 1e-10 * kxx
    # sections vanish exactly where a zero coordinate meets a positive exponent
    for r, pt in ((rx, x), (ry, y)):
        hit = np.array([any(j > 0 and v == 0 for j, v in zip(J, r)) for J in b.J_matrix.tolist()],
                       dtype=bool)
        values = np.exp(log_sections(b, pt)[0])
        assert np.all(values[hit] == 0.0) and np.all(values[~hit] > 0.0)
