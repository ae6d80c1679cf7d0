import math

import numpy as np
import pytest

from equiszego.actions import (
    WeightSystem,
    act,
    locus_center,
    locus_sample,
    moment,
    moment_kernel_basis,
    stabilizer,
)
from equiszego.asymptotics import (
    _leading_scale,
    diag_k_exponent,
    diagonal_leading,
    fit_exponent,
    h_exponent_at,
    locus_data,
    monodromy_matrix,
    near_diagonal_leading,
    stabilizer_character_sum,
)
from equiszego.errors import DomainError
from equiszego.geometry import (
    SpherePoint,
    TangentVectorX,
    frame_at,
)
from equiszego.hardy import build_basis, dim_isotype
from equiszego.kernel import szego_diag, szego_eval
from equiszego.presets import p1_weight_system, p2_weight_system
from equiszego.toeplitz import RadialPolynomial, trace_prediction
from support import chart_point, level_weight_system, rescaled_kernel, t_only_weight_system

WS1 = p1_weight_system()
WS2 = p2_weight_system()
X1 = SpherePoint(np.array([1.0, 1.0]) / np.sqrt(2))
X2 = SpherePoint(np.ones(3) / np.sqrt(3))

# a fixed-block-free system with a two-dimensional scaled torus, nontrivial
# splitting (d_P = 2 on n = 2) and trivial stabilizer; its locus moduli
# polytope is the segment r_1 = 1/3
WS_TT = WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int),
                     W_T=np.array([[1, 2, 1], [1, 1, 1]]))
NU_TT = [4, 3]
X_TT = SpherePoint(np.ones(3) / np.sqrt(3))


def tangent(theta, v):
    return TangentVectorX(float(theta), np.asarray(v, dtype=complex))


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def test_lambda_published_values():
    assert abs(locus_data(WS1, frame_at(X1), [1]).lam - 2.0 / 3.0) < 1e-14
    assert abs(locus_data(WS2, frame_at(X2), [1]).lam - 0.5) < 1e-14


def test_lambda_homogeneity():
    base = locus_data(WS1, frame_at(X1), [1]).lam
    assert abs(locus_data(WS1, frame_at(X1), [5]).lam - 5 * base) < 1e-13


# ---------------------------------------------------------------------------
# the quadratic exponent
# ---------------------------------------------------------------------------

def test_h_vanishes_at_origin():
    zero = tangent(0.0, np.zeros(1))
    assert h_exponent_at(locus_data(WS1, frame_at(X1), [1]), zero, zero) == 0


def test_h_transversal_gaussian():
    ld = locus_data(WS1, frame_at(X1), [1])
    t_dir = 1j * ld.Q[:, 0]
    for t in (0.3, 1.0, 1.7):
        u = tangent(0.0, t * t_dir)
        val = h_exponent_at(ld, u, u)
        assert abs(val - (-2.0 * ld.lam * t * t)) < 1e-12


@pytest.mark.parametrize("system", ["transversal", "two-torus"])
def test_h_homogeneous_quadratic(system):
    # H(t u1, t u2) = t^2 H(u1, u2), fiber angles included
    if system == "transversal":
        ws = WeightSystem(n=3, W_G=[[1, -1, 0, 0]], W_T=[[1, 1, 1, 1]])
        nu_T, x = [1], locus_center(ws, [1])
    else:
        ws, nu_T, x = WS_TT, NU_TT, X_TT
    ld = locus_data(ws, frame_at(x), nu_T)
    rng = np.random.default_rng(5)
    n = ws.n
    for _ in range(50):
        u1, u2 = (tangent(rng.standard_normal(), rng.standard_normal(n) + 1j * rng.standard_normal(n))
                  for _ in range(2))
        h = h_exponent_at(ld, u1, u2)
        for t in (0.1, 0.7, 2.5):
            ht = h_exponent_at(ld, tangent(t * u1.theta, t * u1.v), tangent(t * u2.theta, t * u2.v))
            assert abs(ht - t * t * h) <= 1e-12 * max(1.0, abs(t * t * h))


def test_h_swap_conjugation():
    ld = locus_data(WS2, frame_at(X2), [1])
    rng = np.random.default_rng(0)
    for _ in range(20):
        u1 = tangent(rng.standard_normal(), rng.standard_normal(2) + 1j * rng.standard_normal(2))
        u2 = tangent(rng.standard_normal(), rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert abs(h_exponent_at(ld, u2, u1) - np.conj(h_exponent_at(ld, u1, u2))) < 1e-12


def test_h_real_part_nonpositive():
    ld = locus_data(WS2, frame_at(X2), [1])
    rng = np.random.default_rng(1)
    for _ in range(1000):
        u1 = tangent(rng.standard_normal(), rng.standard_normal(2) + 1j * rng.standard_normal(2))
        u2 = tangent(rng.standard_normal(), rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert h_exponent_at(ld, u1, u2).real <= 1e-12
    # equality exactly when transversal parts and the horizontal drift vanish
    v_dir = ld.Q[:, 0]
    u = tangent(0.0, 0.8 * v_dir)
    assert abs(h_exponent_at(ld, u, u).real) < 1e-13


def test_locus_data_refuses_a_non_integral_character():
    # the stabilizer's characters are exact integer pairings: nu_T = 1.9 once
    # gave lambda from 1.9 and the characters of nu_T = 1
    f = frame_at(X1)
    ref = locus_data(WS1, f, [1])
    lam = 1.0 / float(np.linalg.norm(moment(WS1, X1).phi_T))  # ||nu_T|| / ||Phi_T||
    assert locus_data(WS1, f, [1.0]).lam == ref.lam == lam
    for nu in ([1.5], [1.9]):
        with pytest.raises(DomainError):
            locus_data(WS1, f, nu)


def test_locus_data_evaluates_the_moment_map_once(monkeypatch):
    import equiszego.actions as actions
    import equiszego.asymptotics as asymptotics

    calls = []
    for module, name in ((actions, "moment"), (asymptotics, "moment"),
                         (actions, "moment_kernel_basis")):
        original = getattr(module, name)

        def counted(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    ld = locus_data(WS2, frame_at(X2), [1])
    assert sorted(calls) == ["moment", "moment_kernel_basis"]
    assert abs(ld.D - 1.0 / np.sqrt(3)) < 1e-12


def test_h_off_locus_is_domain_error():
    x = SpherePoint.from_moduli([0.7, 0.3])
    with pytest.raises(DomainError):
        h_exponent_at(locus_data(WS1, frame_at(x), [1]), tangent(0, [0]), tangent(0, [0]))


# ---------------------------------------------------------------------------
# diagonal law
# ---------------------------------------------------------------------------

def test_diagonal_leading_exponents():
    # k and 4k in one admissible class: the law scales by 4^exponent
    ld1 = locus_data(WS1, frame_at(X1), [1])
    assert diag_k_exponent(WS1.n, WS1.d_P) == 0.5
    assert abs(diagonal_leading(ld1, [1], 28) / diagonal_leading(ld1, [1], 7) - 2.0) < 1e-12
    ld2 = locus_data(WS2, frame_at(X2), [1])
    assert diag_k_exponent(WS2.n, WS2.d_P) == 1.0
    assert abs(diagonal_leading(ld2, [1, 1], 64) / diagonal_leading(ld2, [1, 1], 16) - 4.0) < 1e-12


def test_stabilizer_sum_roots_of_unity():
    ld = locus_data(WS1, frame_at(X1), [1])
    for k in range(1, 40):
        s = stabilizer_character_sum(ld, [1], k)
        assert s == (3.0 if k % 3 == 1 else 0.0)


def test_diagonal_prediction_real_nonnegative():
    ld = locus_data(WS1, frame_at(X1), [1])
    for k in (7, 10, 13):
        val = diagonal_leading(ld, [1], k)
        assert abs(val.imag) == 0.0
        assert val.real >= 0.0


def test_vanishing_coherence_with_enumeration():
    ld = locus_data(WS2, frame_at(X2), [1])
    for k in range(1, 120):
        empty = dim_isotype(WS2, [1, 1], [1], k) == 0
        s = stabilizer_character_sum(ld, [1, 1], k)
        assert (s == 0.0) == empty


def test_vanishing_coherence_partial_support_point():
    # at an axis point the kernel vanishes exactly when every monomial
    # carries the dead coordinate; the character sum agrees
    ws = t_only_weight_system(1, [1, 2])
    x = SpherePoint(np.array([0.0, 1.0]))
    ld = locus_data(ws, frame_at(x), [1])
    assert len(ld.stab) == 2
    for k in range(2, 14):
        b = build_basis(ws, [], [1], k)
        s = stabilizer_character_sum(ld, [], k)
        if k % 2 == 0:
            assert s == 2.0 and szego_diag(b, x) > 0
        else:
            assert s == 0.0 and szego_diag(b, x) == 0.0


def test_amplitude_diagnostic_is_stable_worked_examples():
    # the exact/predicted amplitude ratio is k-stable and sits at
    # (2 pi)^(-d_G) on both worked examples (the named diagnostic)
    f1 = frame_at(X1)
    ld1 = locus_data(WS1, f1, [1])
    ratios = []
    for b in (200, 400, 800):
        k = 3 * b + 1
        basis = build_basis(WS1, [1], [1], k)
        ratios.append(szego_diag(basis, X1) / abs(diagonal_leading(ld1, [1], k)))
    assert abs(ratios[-1] * 2 * np.pi - 1.0) < 5e-3
    assert max(ratios) / min(ratios) < 1.005

    f2 = frame_at(X2)
    ld2 = locus_data(WS2, f2, [1])
    c = 150
    k = 6 * c + 4
    basis = build_basis(WS2, [1, 1], [1], k)
    ratio = szego_diag(basis, X2) / abs(diagonal_leading(ld2, [1, 1], k))
    assert abs(ratio * (2 * np.pi) ** 2 - 1.0) < 5e-3


# ---------------------------------------------------------------------------
# near-diagonal law
# ---------------------------------------------------------------------------

def test_near_diagonal_reduces_to_diagonal():
    ld = locus_data(WS1, frame_at(X1), [1])
    zero = tangent(0.0, np.zeros(1))
    for k in (7, 13):
        dval = diagonal_leading(ld, [1], k)
        nval = near_diagonal_leading(ld, [1], k, zero, zero)
        assert abs(nval - dval) < 1e-12 * max(1.0, abs(dval))


def test_monodromy_identity_on_full_support():
    f = frame_at(X1)
    for el in stabilizer(WS1, X1):
        M = monodromy_matrix(WS1, f, el.sigma)
        assert np.max(np.abs(M - np.eye(WS1.n))) < 1e-9


def test_monodromy_nontrivial_at_axis_point():
    ws = t_only_weight_system(1, [1, 2])
    x = SpherePoint(np.array([0.0, 1.0]))
    f = frame_at(x)
    els = stabilizer(ws, x)
    nontrivial = [el for el in els if np.max(np.abs(el.sigma)) > 1e-12]
    assert len(nontrivial) == 1
    M = monodromy_matrix(ws, f, nontrivial[0].sigma)
    assert np.max(np.abs(M + np.eye(1))) < 1e-9  # rotation by pi


def _fd_monodromy(ws, f, sigma, v, step=1e-5):
    """Independent reference for `monodromy_matrix` applied to v: central
    differences of the chart coordinates of sigma acting on the chart points
    of h v, Richardson-extrapolated."""
    x = f.x

    def curve(h):
        y = act(ws, sigma, chart_point(f, 0.0, h * v))
        return (f.e.conj() @ y.z) / np.vdot(x.z, y.z)

    d1 = (curve(step) - curve(-step)) / (2 * step)
    d2 = (curve(2 * step) - curve(-2 * step)) / (4 * step)
    return (4.0 * d1 - d2) / 3.0


MONODROMY_CASES = {
    "t-only (1,2) axis": (t_only_weight_system(1, [1, 2]), SpherePoint(np.array([0.0, 1.0]))),
    "p1": (WS1, X1),
    "p2": (WS2, X2),
    "t-only (2,2,4)": (t_only_weight_system(2, [2, 2, 4]), SpherePoint(np.array([0.6, 0.0, 0.8]))),
    "t-only (1,2,3) axis": (t_only_weight_system(2, [1, 2, 3]), SpherePoint(np.array([0.0, 0.0, 1.0]))),
    "t-only (1,2,4)": (t_only_weight_system(2, [1, 2, 4]), SpherePoint(np.array([0.0, 0.6, 0.8]))),
}


@pytest.mark.parametrize("case", sorted(MONODROMY_CASES))
def test_monodromy_matches_finite_differences(case):
    ws, x = MONODROMY_CASES[case]
    f = frame_at(x)
    # every real frame direction: e_j and i e_j
    directions = np.vstack([np.eye(ws.n), 1j * np.eye(ws.n)])
    for el in stabilizer(ws, x):
        M = monodromy_matrix(ws, f, el.sigma)
        for v in directions:
            assert np.max(np.abs(M @ v - _fd_monodromy(ws, f, el.sigma, v))) < 1e-9


@pytest.mark.parametrize("case", ["p2", "t-only (1,2,3) axis", "t-only (1,2,4)"])
def test_monodromy_is_a_unitary_representation(case):
    # sigma -> M(sigma) is a homomorphism into the unitary matrices
    ws, x = MONODROMY_CASES[case]
    f = frame_at(x)
    els = stabilizer(ws, x)
    n = ws.n
    for a in els:
        Ma = monodromy_matrix(ws, f, a.sigma)
        assert np.max(np.abs(Ma.conj().T @ Ma - np.eye(n))) < 1e-12
        for b in els:
            Mab = monodromy_matrix(ws, f, a.sigma + b.sigma)
            assert np.max(np.abs(Ma @ monodromy_matrix(ws, f, b.sigma) - Mab)) < 1e-12
    if case != "p2":  # full support: every element acts trivially on the chart
        assert any(np.max(np.abs(monodromy_matrix(ws, f, el.sigma) - np.eye(n))) > 0.5
                   for el in els)


def test_monodromy_rejects_non_stabilizing_element():
    ws = t_only_weight_system(1, [1, 2])
    f = frame_at(SpherePoint(np.array([0.0, 1.0])))
    with pytest.raises(DomainError):
        monodromy_matrix(ws, f, [0.3])


def test_near_diagonal_character_exact_at_large_k():
    # at k ~ 1e6 the pairing k nu.sigma is ~1e7 radians; the characters are
    # still exact roots of unity, so the central value carries the exact
    # character sum of the diagonal law
    f = frame_at(X2)
    ld = locus_data(WS2, f, [1])
    zero = tangent(0.0, np.zeros(2))
    k = 10**6 + 1
    sums = set()
    for nu_G in ([1, 1], [0, 0], [2, -1], [1, 0]):
        want = diagonal_leading(ld, nu_G, k)
        got = near_diagonal_leading(ld, nu_G, k, zero, zero)
        assert abs(got - want) <= 1e-12 * _leading_scale(ld, k)
        sums.add(stabilizer_character_sum(ld, nu_G, k))
    assert sums == {0.0, 6.0}


def test_near_diagonal_absolute_classical_case():
    # no fixed block, scaled circle with unit weights: the prediction must
    # match the exact closed-form kernel with constant 1 (lambda = 1 case)
    ws = level_weight_system(1)
    x = SpherePoint(np.array([0.6, 0.8]) / 1.0)
    f = frame_at(x)
    ld = locus_data(ws, f, [1])
    assert abs(ld.lam - 1.0) < 1e-14
    k = 2000
    b = build_basis(ws, [], [1], k)
    u1 = tangent(0.25, [0.6 - 0.2j])
    u2 = tangent(-0.1, [0.1 + 0.4j])
    exact = rescaled_kernel(b, f, u1, u2, k)
    pred = near_diagonal_leading(ld, [], k, u1, u2)
    assert abs(exact / pred - 1.0) < 0.05
    exact2 = rescaled_kernel(b, f, u1, u2, 4 * k)
    b2 = build_basis(ws, [], [1], 4 * k)
    exact2 = rescaled_kernel(b2, f, u1, u2, 4 * k)
    pred2 = near_diagonal_leading(ld, [], 4 * k, u1, u2)
    assert abs(exact2 / pred2 - 1.0) < abs(exact / pred - 1.0)


def test_near_diagonal_absolute_axis_point_with_stabilizer():
    # order-two stabilizer with genuine monodromy, no fixed block: the
    # leading value k/(2 pi) at the axis point is reproduced absolutely
    ws = t_only_weight_system(1, [1, 2])
    x = SpherePoint(np.array([0.0, 1.0]))
    f = frame_at(x)
    ld = locus_data(ws, f, [1])
    zero = tangent(0.0, np.zeros(1))
    for k in (800, 1600):
        pred = near_diagonal_leading(ld, [], k, zero, zero)
        assert abs(pred.real - k / (2 * np.pi)) < 0.02 * k / (2 * np.pi)
        b = build_basis(ws, [], [1], k)
        exact = szego_diag(b, x)
        assert abs(exact / pred - 1.0) < 3.0 / k * 5


def test_near_diagonal_vs_exact_with_monodromy_displacement():
    ws = t_only_weight_system(1, [1, 2])
    x = SpherePoint(np.array([0.0, 1.0]))
    f = frame_at(x)
    u1 = tangent(0.0, [0.5 + 0.3j])
    u2 = tangent(0.0, [0.2 - 0.4j])
    ld = locus_data(ws, f, [1])
    errs = []
    for k in (1000, 4000):
        b = build_basis(ws, [], [1], k)
        exact = rescaled_kernel(b, f, u1, u2, k)
        pred = near_diagonal_leading(ld, [], k, u1, u2)
        errs.append(abs(exact / pred - 1.0))
    assert errs[0] < 0.08 and errs[1] < errs[0]


def test_near_diagonal_worked_example_phase_and_ratio():
    # with a fixed block the modulus ratio sits at the (2 pi)^{-d_G}
    # diagnostic while the phase agrees with the exact kernel
    f = frame_at(X1)
    ld = locus_data(WS1, f, [1])
    u1 = tangent(0.3, [0.4 + 0.2j])
    u2 = tangent(-0.2, [-0.1 + 0.5j])
    devs = []
    for b_par in (400, 1600):
        k = 3 * b_par + 1
        basis = build_basis(WS1, [1], [1], k)
        exact = rescaled_kernel(basis, f, u1, u2, k)
        pred = near_diagonal_leading(ld, [1], k, u1, u2)
        ratio = exact / pred
        devs.append((abs(abs(ratio) * 2 * np.pi - 1.0), abs(np.angle(ratio))))
    assert devs[0][0] < 0.05 and devs[0][1] < 0.05
    assert devs[1][0] < devs[0][0] and devs[1][1] <= devs[0][1] + 1e-3


def test_near_diagonal_swap_is_conjugate():
    # swapping the two displacements conjugates the prediction, mirroring
    # the Hermitian symmetry of the kernel itself
    cases = [
        (WS1, X1, [1], [1]),
        (t_only_weight_system(1, [1, 2]), SpherePoint(np.array([0.0, 1.0])), [], [1]),
    ]
    rng = np.random.default_rng(9)
    zero = tangent(0.0, np.zeros(1))
    for ws, x, nu_G, nu_T in cases:
        f = frame_at(x)
        ld = locus_data(ws, f, nu_T)
        # scale reference: the central value on an admissible class (on an
        # empty class the sum cancels and only float noise at this scale
        # remains, for the prediction exactly as for the kernel itself)
        scale = max(
            abs(near_diagonal_leading(ld, nu_G, k0, zero, zero))
            for k0 in (31, 32, 33)
        )
        for k in (31, 32):
            u1 = tangent(rng.standard_normal(),
                         rng.standard_normal(ws.n) + 1j * rng.standard_normal(ws.n))
            u2 = tangent(rng.standard_normal(),
                         rng.standard_normal(ws.n) + 1j * rng.standard_normal(ws.n))
            a = near_diagonal_leading(ld, nu_G, k, u1, u2)
            b = near_diagonal_leading(ld, nu_G, k, u2, u1)
            assert abs(a - np.conj(b)) < 1e-10 * scale


def test_full_moment_data_bundle():
    ld = locus_data(WS2, frame_at(X2), [1])
    md = ld.moment
    ker_basis = moment_kernel_basis(WS2, X2.z[None, :])[0]
    assert ker_basis.shape == (2, 3)
    assert np.max(np.abs(ker_basis @ md.phi_P)) < 1e-10
    assert abs(ld.eta @ md.phi_P - np.linalg.norm(md.phi_T)) < 1e-10
    assert abs(ld.D - 1.0 / np.sqrt(3)) < 1e-10


def test_near_diagonal_group_translation_consistency():
    f = frame_at(X1)
    ld = locus_data(WS1, f, [1])
    u1 = tangent(0.0, [0.3 + 0.1j])
    u2 = tangent(0.0, [0.2 - 0.2j])
    k = 1201
    p0 = np.array([0.7, -0.4])
    base = near_diagonal_leading(ld, [1], k, u1, u2)
    moved = near_diagonal_leading(ld, [1], k, u1, u2, p0=p0)
    weight = np.array([1.0, float(k)])
    assert abs(moved - np.exp(1j * weight @ p0) * base) < 1e-10 * abs(base)
    # and the exact kernel obeys the same twist
    basis = build_basis(WS1, [1], [1], k)
    sk = np.sqrt(float(k))
    y1 = chart_point(f, u1.theta / sk, u1.v / sk)
    y2 = chart_point(f, u2.theta / sk, u2.v / sk)
    lhs = szego_eval(basis, y1, act(WS1, p0, y2))
    rhs = np.exp(1j * weight @ p0) * szego_eval(basis, y1, y2)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_near_diagonal_absolute_with_fiber_drift():
    # a single weighted circle on the plane has no pure-fiber combination,
    # so eta has a genuine horizontal part: this exercises the b0 drift and
    # fiber-phase terms of the exponent against the exact kernel, with
    # absolute constants (no fixed block)
    ws = t_only_weight_system(2, [1, 2, 3])
    x = SpherePoint.from_moduli([0.5, 0.3, 0.2], phases=[0.4, -0.2, 1.1])
    f = frame_at(x)
    ld = locus_data(ws, f, [1])
    assert len(ld.stab) == 1
    assert np.linalg.norm(ld.eta_M_h) > 0.5
    assert np.linalg.norm(ld.eta_M_v) < 1e-12
    u1 = tangent(0.45, [0.5 - 0.2j, 0.3 + 0.1j])
    u2 = tangent(-0.3, [-0.2 + 0.4j, 0.1 - 0.3j])
    devs = []
    for k in (600, 2400):
        b = build_basis(ws, [], [1], k)
        exact = rescaled_kernel(b, f, u1, u2, k)
        pred = near_diagonal_leading(ld, [], k, u1, u2)
        ratio = exact / pred
        devs.append((abs(abs(ratio) - 1.0), abs(np.angle(ratio))))
    assert devs[0][0] < 0.02 and devs[0][1] < 0.04
    assert devs[1][0] < devs[0][0] and devs[1][1] < devs[0][1]


def test_two_circle_reduction_formula():
    # no fixed block, two scaled circles: at zero fiber angles and purely
    # horizontal displacements the general law collapses to the product
    # form (1/(sqrt2 pi))^{d_T-1} (||nu|| k/pi)^{d_M+(1-d_T)/2}
    #   e^{lam(-i w(v1,v2) - ||v1-v2||^2/2)} / (D ||Phi||^{d_M+1+(1-d_T)/2})
    x = X_TT
    f = frame_at(x)
    ld = locus_data(WS_TT, f, NU_TT)
    assert len(ld.stab) == 1
    assert abs(ld.lam - 3.0) < 1e-12
    rng = np.random.default_rng(3)
    n = WS_TT.n
    h1, h2 = (ld.split(r[:n] + 1j * r[n:])[0] for r in rng.standard_normal((2, 2 * n)))
    u1 = tangent(0.0, h1)
    u2 = tangent(0.0, h2)
    k = 50
    got = near_diagonal_leading(ld, [], k, u1, u2)
    d_M, d_T = 2, 2
    nu_norm = 5.0
    phi_norm = ld.phi_T_norm
    om = np.vdot(h1, h2).imag
    dd = h1 - h2
    expo = ld.lam * (-1j * om - 0.5 * np.vdot(dd, dd).real)
    hand = (
        (1.0 / (np.sqrt(2) * np.pi))
        * (nu_norm * k / np.pi) ** (d_M + (1 - d_T) / 2)
        * np.exp(expo)
        / (ld.D * phi_norm ** (d_M + 1 + (1 - d_T) / 2))
    )
    assert abs(got - hand) < 1e-12 * abs(hand)


# ---------------------------------------------------------------------------
# dimension constant: the Toeplitz trace prediction with f = 1
# ---------------------------------------------------------------------------

def dim_prediction(ws, quad):
    one = RadialPolynomial.constant(1.0, ws.n)
    return trace_prediction(ws, one, quad)[0]


def test_dim_prediction_exponents():
    assert WS1.n - WS1.d_P + 1 == 0
    assert WS2.n - WS2.d_P + 1 == 0
    ws = level_weight_system(2)
    assert ws.n - ws.d_P + 1 == ws.n


def test_dim_prediction_worked_examples_analytic():
    quad = locus_sample(WS1, [1], 8, seed=0)
    C1 = dim_prediction(WS1, quad)
    assert abs(C1 - 2.0 * np.pi / 3.0) < 1e-9
    quad2 = locus_sample(WS2, [1], 16, seed=0)
    C2 = dim_prediction(WS2, quad2)
    assert abs(C2 - 2.0 * np.pi**2 / 3.0) < 1e-9


def test_dim_prediction_classical_volume():
    # trivial-action circle: the constant is the manifold volume pi^n / n!
    for n in (1, 2):
        ws = level_weight_system(n)
        quad = locus_sample(ws, [1], 3000, seed=5)
        C = dim_prediction(ws, quad)
        target = np.pi**n / math.factorial(n)
        assert abs(C - target) < 0.03 * target


def test_dim_cesaro_means_match_constants():
    # fixed-block examples oscillate; their Cesaro means recover the
    # quadrature constant times the (2 pi)^{-d_G} diagnostic exactly
    quad = locus_sample(WS1, [1], 8, seed=0)
    C1 = dim_prediction(WS1, quad)
    dims = [dim_isotype(WS1, [1], [1], k) for k in range(1, 601)]
    cesaro = np.mean(dims)
    assert abs(cesaro - C1 / (2 * np.pi)) < 2e-3
    # no fixed block: the plain limit itself matches the constant
    dimsTT = [dim_isotype(WS_TT, [], NU_TT, k) for k in (100, 200)]
    assert dimsTT == [201, 401]
    quadTT = locus_sample(WS_TT, NU_TT, 4000, seed=7)
    CTT = dim_prediction(WS_TT, quadTT)
    k = 200
    ratio = dimsTT[1] / (5.0 * k / np.pi)
    assert abs(CTT - ratio) < 0.03 * ratio


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------

def test_fit_exponent_exact_power_law():
    series = [(k, 3.0 * k**1.7) for k in (10, 20, 40, 80, 160)]
    slope, icpt, resid = fit_exponent(series)
    assert abs(slope - 1.7) < 1e-12
    assert abs(icpt - np.log(3.0)) < 1e-12
    assert resid < 1e-13


def test_fit_exponent_with_correction_term():
    series = [(k, k**0.5 * (1 + 1.0 / k)) for k in range(100, 1000, 50)]
    slope, _, _ = fit_exponent(series)
    assert abs(slope - 0.5) < 0.01


def test_fit_exponent_constant_series():
    series = [(k, 2.5) for k in (1, 2, 4, 8)]
    slope, _, _ = fit_exponent(series)
    assert abs(slope) < 1e-12


def test_fit_exponent_guards():
    with pytest.raises(ValueError):
        fit_exponent([(1, 1.0), (2, 2.0), (3, 3.0)])
    with pytest.raises(ValueError):
        fit_exponent([(1, 1.0), (2, 0.0), (3, 3.0), (4, 4.0)])
