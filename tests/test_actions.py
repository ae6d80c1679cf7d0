import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equiszego import actions
from equiszego.actions import (
    WeightSystem,
    infinitesimal_action,
    locus_center,
    locus_distance,
    locus_sample,
    moment,
    moment_kernel_basis,
    script_D_rows,
    stabilizer,
)
from equiszego.asymptotics import locus_data
from equiszego.errors import (
    AssumptionViolation,
    DomainError,
    InfeasibleLocusError,
    TransversalityError,
)
from equiszego.geometry import SpherePoint, frame_at
from equiszego.presets import p1_weight_system, p2_weight_system
from equiszego.toeplitz import RadialPolynomial
from support import act, angles, level_weight_system, t_only_weight_system

WS1 = p1_weight_system()
WS2 = p2_weight_system()
X1 = SpherePoint(np.array([1.0, 1.0]) / np.sqrt(2))
X2 = SpherePoint(np.ones(3) / np.sqrt(3))


def random_unit(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return SpherePoint(z / np.linalg.norm(z))


# ---------------------------------------------------------------------------
# weight systems
# ---------------------------------------------------------------------------

def test_positivity_check_rejects_mixed_hull():
    with pytest.raises(AssumptionViolation):
        WeightSystem(n=1, W_G=np.zeros((0, 2), dtype=int), W_T=np.array([[1, -1]]))


def test_product_weight_matrix_is_stacked_once_and_read_only():
    ws = WeightSystem(n=3, W_G=[[1, -1, 0, 0]], W_T=[[1, 1, 1, 1]])
    assert ws.W_P is ws.W_P and ws.W_P.dtype == np.int64
    assert np.array_equal(ws.W_P, np.vstack([ws.W_G, ws.W_T]))
    with pytest.raises(ValueError):
        ws.W_P[0, 0] = 2
    free = WeightSystem(n=1, W_G=np.zeros((0, 2), dtype=int), W_T=[[1, 2]])
    assert np.array_equal(free.W_P, [[1, 2]])


def test_positive_functional_certificate():
    phi = actions._positive_functional(WS1.W_T)
    assert all(sum(p * w for p, w in zip(phi, col)) >= 1 for col in WS1.W_T.T.tolist())


# W_T -> the exact LP functional phi and its primitive integer multiple psi
_EXACT_FUNCTIONALS = [
    ([[1, 2]], ["1"], (1,)),
    ([[1, 1, 1]], ["1"], (1,)),
    ([[1, 2, 3, 5]], ["1"], (1,)),
    ([[1, 2, 1], [1, 1, 1]], ["0", "1"], (0, 1)),
    ([[3000, 3001]], ["1/3000"], (1,)),
    ([[2003, -1, 1000], [-1, 2011, 1000]], ["1011/2012000", "1001/2012000"], (1011, 1001)),
    ([[2, -3, -3], [-3, 1, 1]], ["-4/7", "-5/7"], (-4, -5)),
    ([[1, 1000, 0], [0, 1, 1000]], ["1", "1/1000"], (1000, 1)),
    ([[3, 2, -2], [0, 2, 1]], ["1/3", "5/3"], (1, 5)),
    ([[1, 5], [5, 1]], ["1/6", "1/6"], (1, 1)),
    ([[-2, -4]], ["-1/2"], (-1,)),
]


@pytest.mark.parametrize("W_T, phi, psi", _EXACT_FUNCTIONALS)
def test_positive_functional_is_the_exact_lp_solution(W_T, phi, psi):
    ws = WeightSystem(n=len(W_T[0]) - 1, W_G=np.zeros((0, len(W_T[0])), dtype=int), W_T=W_T)
    exact = [Fraction(v) for v in phi]
    assert actions._positive_functional(ws.W_T) == exact
    assert ws.integer_functional == psi


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def test_act_identity_and_unitarity():
    x = random_unit(1, seed=0)
    assert np.allclose(act(WS1, np.zeros(2), x).z, x.z)
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = rng.uniform(0, 2 * np.pi, size=2)
        assert abs(np.linalg.norm(act(WS1, p, x).z) - 1.0) < 1e-12


def test_act_matches_published_convention():
    # (w, s) = (e^{i gamma}, e^{i theta}) acts as ((ws)^{-1} z0, w s^{-2} z1);
    # the compensated elements with s^3 = 1, w = 1/s fix the equal-moduli point.
    for j in range(3):
        theta = 2 * np.pi * j / 3
        gamma = -theta
        y = act(WS1, np.array([gamma, theta]), X1)
        assert np.max(np.abs(y.z - X1.z)) < 1e-12


# ---------------------------------------------------------------------------
# moment map
# ---------------------------------------------------------------------------

def test_moment_published_values():
    md = moment(WS1, X1)
    assert np.allclose(md.phi_G, [0.0]) and np.allclose(md.phi_T, [1.5])
    md = moment(WS1, SpherePoint(np.array([1.0, 0.0])))
    assert np.allclose(md.phi_G, [1.0]) and np.allclose(md.phi_T, [1.0])
    md = moment(WS2, X2)
    assert np.allclose(md.phi_G, [0.0, 0.0]) and np.allclose(md.phi_T, [2.0])


def test_moment_invariance_under_action():
    rng = np.random.default_rng(2)
    x = random_unit(2, seed=3)
    for _ in range(10):
        p = rng.uniform(0, 2 * np.pi, size=3)
        md0 = moment(WS2, x)
        md1 = moment(WS2, act(WS2, p, x))
        assert np.max(np.abs(md0.phi_P - md1.phi_P)) < 1e-12


def test_moment_inside_column_hull():
    for seed in range(5):
        x = random_unit(1, seed=seed)
        md = moment(WS1, x)
        cols = WS1.W_P
        lo, hi = cols.min(axis=1), cols.max(axis=1)
        assert np.all(md.phi_P >= lo - 1e-12) and np.all(md.phi_P <= hi + 1e-12)


# ---------------------------------------------------------------------------
# infinitesimal action
# ---------------------------------------------------------------------------

def _fd_infinitesimal(ws, xi, f, h=1e-4):
    """Central-difference oracle through the affine chart."""
    x = f.x

    def chart(t):
        y = act(ws, t * np.asarray(xi, dtype=float), x)
        return (f.e.conj() @ y.z) / np.vdot(x.z, y.z)

    return (chart(h) - chart(-h)) / (2 * h)


def test_infinitesimal_fiber_only_direction():
    # all weights equal on the support: the action only rotates the fiber
    ws = level_weight_system(2)
    f = frame_at(random_unit(2, seed=4))
    v = infinitesimal_action(ws, np.array([1.0]), f)
    assert np.max(np.abs(v)) < 1e-12


def test_infinitesimal_matches_finite_differences():
    f = frame_at(X1)
    v = infinitesimal_action(WS1, np.array([1.0, 0.0]), f)
    assert np.linalg.norm(v) > 0.5
    fd = _fd_infinitesimal(WS1, np.array([1.0, 0.0]), f)
    assert np.max(np.abs(v - fd)) < 1e-6
    f2 = frame_at(random_unit(2, seed=5))
    for xi in np.eye(3):
        fd = _fd_infinitesimal(WS2, xi, f2)
        assert np.max(np.abs(infinitesimal_action(WS2, xi, f2) - fd)) < 1e-6


def test_infinitesimal_linearity():
    f = frame_at(random_unit(2, seed=6))
    xi, zeta = np.array([1.0, 2.0, -1.0]), np.array([0.5, -1.0, 3.0])
    lhs = infinitesimal_action(WS2, 2.0 * xi + 0.3 * zeta, f)
    rhs = 2.0 * infinitesimal_action(WS2, xi, f) + 0.3 * infinitesimal_action(WS2, zeta, f)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# ---------------------------------------------------------------------------
# kernel basis, Gram invariant, eta
# ---------------------------------------------------------------------------

def test_kernel_basis_on_locus_is_fixed_block():
    B = moment_kernel_basis(WS1, X1.z[None, :])[0]
    assert B.shape == (1, 2)
    assert np.allclose(np.abs(B[0]), [1.0, 0.0])
    B2 = moment_kernel_basis(WS2, X2.z[None, :])[0]
    assert B2.shape == (2, 3)
    assert np.max(np.abs(B2[:, 2])) < 1e-12


def test_kernel_basis_annihilates_phi():
    for seed in range(5):
        x = random_unit(2, seed=seed)
        md = moment(WS2, x)
        B = moment_kernel_basis(WS2, x.z[None, :])[0]
        assert np.max(np.abs(B @ md.phi_P)) < 1e-10


def test_script_D_empty_kernel_convention():
    ws = t_only_weight_system(1, [1, 2])
    assert script_D_rows(ws, random_unit(1, seed=7).z[None, :])[0] == 1.0


def test_script_D_frozen_values():
    # finite-difference-derived regression constants for the worked examples
    assert abs(locus_data(WS1, frame_at(X1), [1]).D - 1.0) < 1e-10
    assert abs(locus_data(WS2, frame_at(X2), [1]).D - 1.0 / np.sqrt(3)) < 1e-10


def test_script_D_basis_rotation_invariance():
    f = frame_at(X2)
    B = moment_kernel_basis(WS2, X2.z[None, :])[0]
    rng = np.random.default_rng(8)
    A = rng.standard_normal((2, 2))
    Q, _ = np.linalg.qr(A)
    vals = np.array([infinitesimal_action(WS2, b, f) for b in B])
    rvals = np.array([infinitesimal_action(WS2, b, f) for b in Q @ B])
    d1 = np.sqrt(np.linalg.det(_real_gram(vals)))
    d2 = np.sqrt(np.linalg.det(_real_gram(rvals)))
    assert abs(d1 - d2) < 1e-10


def _real_gram(vals):
    """Gram matrix g(v_a, v_b) = Re<v_a, v_b> of the rows of vals."""
    return (vals.conj() @ vals.T).real


def _frame_script_D(ws, x):
    """script_D through an adapted frame: the Gram determinant of the frame
    coordinates of the moment-kernel directions' infinitesimal actions."""
    f = frame_at(x)
    vals = np.array([infinitesimal_action(ws, d, f) for d in moment_kernel_basis(ws, x.z[None, :])[0]])
    return float(np.sqrt(np.linalg.det(_real_gram(vals))))


@pytest.mark.parametrize("system", ["transversal", "two-torus"])
def test_script_D_rows_match_frames_on_locus_nodes(system):
    if system == "transversal":
        ws, nu_T = WeightSystem(n=3, W_G=[[1, -1, 0, 0]], W_T=[[1, 1, 1, 1]]), [1]
    else:
        ws, nu_T = WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int), W_T=[[1, 2, 1], [1, 1, 1]]), [4, 3]
    # the nodes have zero phases: script_D is checked at general ones
    Z = locus_sample(ws, nu_T, 64, seed=3)[0]
    pts = [SpherePoint(z) for z in Z * np.exp(2j * np.pi * np.random.default_rng(5).random(Z.shape))]
    assert len(pts) >= 20
    batched = script_D_rows(ws, np.array([pt.z for pt in pts]))
    for pt, got in zip(pts, batched):
        want = _frame_script_D(ws, pt)
        assert abs(got - want) <= 1e-12 * want
        assert script_D_rows(ws, pt.z[None, :])[0] == got


@pytest.mark.parametrize("system", ["p2", "transversal"])
def test_splitting_evaluation_vectors_carry_script_D(system):
    # the evaluation vectors behind the splitting bases and behind script_D
    # come from one projected-action formula: their Gram determinant is
    # script_D^2, they span the vertical space, and the product of their
    # singular values, returned with the splitting, is script_D
    if system == "p2":
        ws, x = WS2, X2
    else:
        ws = WeightSystem(n=3, W_G=[[1, -1, 0, 0]], W_T=[[1, 1, 1, 1]])
        x = locus_center(ws, [1])
    f = frame_at(x)
    B = moment_kernel_basis(ws, x.z[None, :])[0]
    vals = actions._projected_actions(ws, x.z[None, :], B)[0] @ f.e.conj().T
    one_by_one = np.array([infinitesimal_action(ws, d, f) for d in B])
    assert np.max(np.abs(vals - one_by_one)) < 1e-15
    D_rows = script_D_rows(ws, x.z[None, :])[0]
    assert abs(np.linalg.det(_real_gram(vals)) - D_rows ** 2) < 1e-12
    Q, D = actions.orbit_splitting_bases(ws, f)
    assert Q.shape[1] == len(B)
    assert abs(D - D_rows) <= 1e-12 * D
    # each row lies in V, the real span of the columns of Q
    assert np.max(np.abs(vals.T - Q @ (Q.conj().T @ vals.T).real)) < 1e-12


def test_script_D_rows_empty_kernel_and_failure():
    ws = t_only_weight_system(1, [1, 2])
    Z = np.array([random_unit(1, seed=s).z for s in range(3)])
    assert script_D_rows(ws, Z).tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(TransversalityError):
        script_D_rows(WS1, np.array([X1.z, [1.0, 0.0]]))


def test_script_D_transversality_failure():
    # at the axis point the fixed-block direction evaluates to zero
    with pytest.raises(TransversalityError):
        actions.orbit_splitting_bases(WS1, frame_at(SpherePoint(np.array([1.0, 0.0]))))


def test_eta_published_values():
    eta = locus_data(WS1, frame_at(X1), [1]).eta
    assert np.allclose(eta, [0.0, 1.0], atol=1e-12)
    eta2 = locus_data(WS2, frame_at(X2), [1]).eta
    assert np.allclose(eta2, [0.0, 0.0, 1.0], atol=1e-12)


def test_eta_pairing_identity():
    eta = locus_data(WS1, frame_at(X1), [1]).eta
    md = moment(WS1, X1)
    assert abs(eta @ md.phi_P - np.linalg.norm(md.phi_T)) < 1e-10
    assert abs(np.linalg.norm(eta) - 1.0) < 1e-10


def test_eta_off_locus_is_domain_error():
    x = SpherePoint.from_moduli([0.7, 0.3])
    with pytest.raises(DomainError):
        locus_data(WS1, frame_at(x), [1])


# ---------------------------------------------------------------------------
# stabilizers
# ---------------------------------------------------------------------------

def test_stabilizer_orders_on_worked_examples():
    els1 = stabilizer(WS1, X1)
    assert len(els1) == 3
    els2 = stabilizer(WS2, X2)
    assert len(els2) == 6  # all sixth roots, including the omitted middle one


def test_stabilizer_elements_fix_point():
    # each element's turns pair with every weight on the support to an
    # integer, exactly; at weight 2000 the float phases of the same turns
    # move the locus center by ~2e-12, so only the small systems also take
    # the float action
    ws_2000 = WeightSystem(n=1, W_G=np.array([[1, -1]]), W_T=np.array([[1, 2000]]))
    x_2000 = locus_center(ws_2000, [1])
    for ws, x, order in ((WS1, X1, 3), (WS2, X2, 6), (ws_2000, x_2000, 2001)):
        els = stabilizer(ws, x)
        assert len({el.turns for el in els}) == len(els) == order
        for el in els:
            for w in ws.W_P.T[np.abs(x.z) > 1e-12].tolist():
                assert sum(Fraction(a) * t for a, t in zip(w, el.turns)).denominator == 1
            if ws is not ws_2000:
                assert np.max(np.abs(act(ws, angles(el), x).z - x.z)) < 1e-12


def test_stabilizer_is_a_group():
    els = stabilizer(WS2, X2)
    turns = {el.turns for el in els}
    for a in els:
        for b in els:
            comp = tuple((ta + tb) % 1 for ta, tb in zip(a.turns, b.turns))
            assert comp in turns


def test_stabilizer_against_grid_oracle():
    # generic full-rank weights: solutions have denominator dividing |det S|,
    # so a q x q grid scan is an exhaustive independent oracle
    ws = WeightSystem(n=1, W_G=np.array([[2, 1]]), W_T=np.array([[1, 3]]))
    x = random_unit(1, seed=9)
    els = stabilizer(ws, x)
    S = ws.W_P.T
    q = abs(int(round(np.linalg.det(S))))
    found = 0
    for a in range(q):
        for b in range(q):
            v = S @ np.array([a / q, b / q])
            if np.max(np.abs(v - np.round(v))) < 1e-9:
                found += 1
    assert len(els) == found == q


def test_stabilizer_not_locally_free():
    # at an axis point of the first example only one weight constrains two angles
    with pytest.raises(AssumptionViolation, match=r"locally free at this point: .*rank 1 < 2; "
                       r"on the support \[0\] .* coefficients \(-1, 1\)"):
        stabilizer(WS1, SpherePoint(np.array([1.0, 0.0])))


def test_stabilizer_fiber_phase_matches_monomial_action():
    # the recorded character data reproduces the phase picked up by any
    # section of matching weight, read off a monomial evaluation
    from equiszego.hardy import build_basis, log_sections

    els = stabilizer(WS1, X1)
    k = 7
    b = build_basis(WS1, [1], [1], k)
    y = random_unit(1, seed=10)

    def section(x):
        logmag, phase = log_sections(b, x)
        return np.exp(logmag[0] + 1j * phase[0])

    for el in els:
        lhs = section(act(WS1, angles(el), y))
        rhs = el.section_phase([1], [1], k) * section(y)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def _turns_group(diag, V):
    """{V (t / d) mod 1 : 0 <= t_i < |d_i|} as a set of tuples of fractions."""
    out = set()
    for idx in itertools.product(*[range(abs(d)) for d in diag]):
        y = [Fraction(t, abs(d)) for t, d in zip(idx, diag)]
        out.add(tuple(sum(Fraction(int(w)) * yi for w, yi in zip(row, y)) % 1 for row in V))
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c), min_size=1, max_size=5
        )
    )
)
def test_diagonalize_matches_smith_form(rows):
    # sympy is the reference only: the package itself never imports it
    from sympy import Matrix, ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import smith_normal_decomp

    S = np.array(rows, dtype=np.int64)
    diag, V = actions._diagonalize(S)
    D, _, V_ref = smith_normal_decomp(DomainMatrix.from_Matrix(Matrix(rows)).convert_to(ZZ))
    D = D.to_Matrix()
    diag_ref = [int(D[i, i]) for i in range(min(S.shape)) if D[i, i] != 0]
    assert len(diag) == len(diag_ref)
    assert abs(np.prod(diag)) == abs(np.prod(diag_ref))
    assert abs(round(np.linalg.det(np.array(V, dtype=float)))) == 1
    order = abs(int(np.prod(diag)))
    if len(diag) == S.shape[1] and order <= 2000:
        V_ref = [[int(v) for v in row] for row in V_ref.to_Matrix().tolist()]
        group = _turns_group(diag, V)
        assert len(group) == order
        assert group == _turns_group(diag_ref, V_ref)


# ---------------------------------------------------------------------------
# locus distance and sampling
# ---------------------------------------------------------------------------

def test_locus_distance_zero_on_locus():
    assert locus_distance(WS1, X1, [1]) < 1e-9
    assert locus_distance(WS2, X2, [1]) < 1e-9
    # the hull rows N W_T of a large coprime nu_T cancel entries past 1e6:
    # the membership test scales with them, so its locus nodes read 0
    ws = WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int),
                      W_T=[[2003, -1, 1000], [-1, 2011, 1000]])
    Z = locus_sample(ws, [3002, 3010], 16, seed=0)[0]
    assert len(Z) > 1
    assert [locus_distance(ws, SpherePoint(z), [3002, 3010]) for z in Z] == [0.0] * len(Z)


def test_locus_distance_positive_off_locus():
    x = SpherePoint.from_moduli([0.6, 0.4])
    assert locus_distance(WS1, x, [1]) > 1e-2


def test_locus_distance_monotone_along_ray():
    ds = []
    for s in np.linspace(0.0, 0.2, 6):
        x = SpherePoint.from_moduli([0.5 + s, 0.5 - s])
        ds.append(locus_distance(WS1, x, [1]))
    assert all(ds[i] < ds[i + 1] + 1e-12 for i in range(len(ds) - 1))


def test_locus_distance_action_invariance():
    x = SpherePoint.from_moduli([0.62, 0.38], phases=[0.3, -1.1])
    d0 = locus_distance(WS1, x, [1])
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = rng.uniform(0, 2 * np.pi, 2)
        assert abs(locus_distance(WS1, act(WS1, p, x), [1]) - d0) < 1e-8


def _brute_locus_distance(ws, x, nu_T, steps):
    """arccos of the grid maximum of sum_i sqrt(r_i s_i) over the moduli s of
    the locus polytope: the distance from x to the nearest locus point, the
    phases of that point matched to those of x."""
    r = np.abs(x.z) ** 2
    grid = np.zeros((1, 0), dtype=int)  # compositions of `steps`, one coordinate at a time
    for _ in range(ws.n):
        grid = np.array([[*g, i] for g in grid for i in range(steps - sum(g) + 1)])
    grid = np.column_stack([grid, steps - grid.sum(axis=1)]) / steps
    phi = grid @ ws.W_T.T
    nu = np.asarray(nu_T, dtype=float)
    on = (np.all(grid @ ws.W_G.T == 0, axis=1)
          & np.all(np.abs(phi - np.outer(phi @ nu / (nu @ nu), nu)) < 1e-12, axis=1)
          & (phi @ nu > 0))
    return float(np.arccos(min(1.0, np.sqrt(grid[on] * r).sum(axis=1).max())))


def _segment_distance(r, a, b):
    """arccos of the maximum of sum_i sqrt(r_i s_i) over the s on the segment
    from a to b, along which the sum is concave: golden-section search."""
    f = lambda t: np.sqrt(np.asarray(r) * ((1.0 - t) * np.asarray(a) + t * np.asarray(b))).sum()
    lo, hi, g = 0.0, 1.0, (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        x, y = hi - g * (hi - lo), lo + g * (hi - lo)
        lo, hi = (x, hi) if f(x) < f(y) else (lo, y)
    return float(np.arccos(min(1.0, f((lo + hi) / 2.0))))


_TRANSVERSAL = WeightSystem(n=3, W_G=[[1, -1, 0, 0]], W_T=[[1, 1, 1, 1]])


# W_G r = 0 forces r_2 = r_3 = 0, so the G-row vanishes on every support: the
# torus acts locally freely nowhere on this locus, and its record refuses it
_FORCED_ZERO = WeightSystem(n=3, W_G=[[0, 0, 1, 1]], W_T=[[1, 1, 1, 2]])
_NOWHERE_FREE = r"not locally free anywhere on the locus: .*rank 1 < 2; .* coefficients \(1, 0\)"


@pytest.mark.parametrize("ws, nu_T, r, want, grid_gap", [
    (_TRANSVERSAL, [1], [0.5, 0.1, 0.2, 0.2], 0.280039076, 2e-7),
    (_TRANSVERSAL, [1], [0.7, 0.0, 0.3, 0.0], 0.633051836, None),
    (_FORCED_ZERO, [1], [0.1, 0.2, 0.3, 0.4], None, None),
    (WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int), W_T=[[1, 2, 1], [1, 1, 1]]), [4, 3],
     [0.2, 0.5, 0.3], 0.169918455, 2e-7),
    # W_T s parallel to nu_T is 3016016 s_0 - 3020016 s_1 + 4000 s_2 = 0: the
    # polytope is the segment (q = 1) between the two ends given here, and its
    # hull rows have entries near 3e6, so only a certificate relative to the
    # size of each row's terms is reachable in float64
    (WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int), W_T=[[2003, -1, 1000], [-1, 2011, 1000]]),
     [3002, 3010], [0.2, 0.5, 0.3],
     _segment_distance([0.2, 0.5, 0.3], np.array([3020016, 3016016, 0]) / 6036032,
                       np.array([0, 4000, 3020016]) / 3024016), None),
], ids=["transversal", "transversal-zero-moduli", "forced-zero", "two-torus", "large-coprime"])
def test_locus_distance_is_the_distance_to_the_locus(ws, nu_T, r, want, grid_gap):
    # every grid point is a locus point, so the grid distance bounds the
    # exact one from above; where the maximizer sits near a grid point the
    # two agree closely
    x = SpherePoint.from_moduli(r, phases=[0.3 * i for i in range(len(r))])
    if want is None:
        with pytest.raises(AssumptionViolation, match=_NOWHERE_FREE):
            locus_distance(ws, x, nu_T)
        return
    got = locus_distance(ws, x, nu_T)
    brute = _brute_locus_distance(ws, x, nu_T, 60)
    assert abs(got - want) < 1e-9
    assert got <= brute + 1e-12
    if grid_gap is not None:
        assert brute - got < grid_gap


def test_locus_distance_on_a_single_point_polytope_is_its_closed_form():
    # the p2 polytope is the one point r = (1, 1, 1)/3
    got = locus_distance(WS2, SpherePoint.from_moduli([0.5, 0.2, 0.3]), [1])
    want = np.arccos((np.sqrt(0.5) + np.sqrt(0.2) + np.sqrt(0.3)) / np.sqrt(3))
    assert abs(want - 0.18641519485922275) < 1e-15
    assert abs(got - want) < 1e-12
    for ws, r in ((WS1, [0.6, 0.4]), (WS2, [0.5, 0.2, 0.3])):
        x = SpherePoint.from_moduli(r, phases=[0.3 * i for i in range(len(r))])
        assert abs(locus_distance(ws, x, [1]) - _brute_locus_distance(ws, x, [1], 60)) < 1e-9


@st.composite
def locus_points(draw):
    """A weight system with positive T-weights, d_G <= 2 and d_T <= 2, its
    nu_T, and moduli r with some coordinates exactly zero."""
    n, d_G, d_T = draw(st.integers(1, 4)), draw(st.integers(0, 2)), draw(st.integers(1, 2))

    def rows(count, lo, hi):
        return draw(st.lists(st.lists(st.integers(lo, hi), min_size=n + 1, max_size=n + 1),
                             min_size=count, max_size=count))
    W_G, W_T = rows(d_G, -2, 2), rows(d_T, 1, 3)
    nu_T = draw(st.lists(st.integers(1, 3), min_size=d_T, max_size=d_T))
    r = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n + 1,
                      max_size=n + 1))
    return (np.array(W_G, dtype=int).reshape(d_G, n + 1), np.array(W_T),
            np.array(nu_T, dtype=float), np.array(r))


def _basic_feasible_solutions(ws, nu_T):
    """The vertices of the moduli polytope, as tuples of Fractions, by
    brute force: each support whose columns of (r, t) in sum r = 1,
    W_G r = 0, W_T r = t nu_T are independent, with a positive solution."""
    m = ws.n + 1
    A = sympy.Matrix(np.hstack([np.vstack([np.ones(m, dtype=int), ws.W_P]),
                                np.r_[0, np.zeros(ws.d_G, dtype=int), -nu_T.astype(int)][:, None]]))
    b = sympy.Matrix([1] + [0] * ws.d_P)
    vertices = []
    for size in range(1, m + 1):
        for supp in itertools.combinations(range(m), size):
            cols = list(supp) + [m]
            if A[:, cols].rank() < len(cols):
                continue
            try:
                z = A[:, cols].gauss_jordan_solve(b)[0]
            except ValueError:  # no solution on these columns
                continue
            if all(x > 0 for x in z):
                v = [Fraction(0)] * m
                for i, x in zip(supp, z):
                    v[i] = Fraction(int(x.p), int(x.q))
                vertices.append(tuple(v))
    return vertices


@settings(max_examples=500, deadline=None)
@given(locus_points())
def test_nearest_moduli_certifies_itself_on_random_systems(case):
    # the solve returns only a certified maximizer: a locus point, at least
    # as near as the polytope's interior point, each of its vertices and
    # their midpoints with the interior point
    W_G, W_T, nu_T, r = case
    assume(r.sum() > 0)
    ws = WeightSystem(n=len(r) - 1, W_G=W_G, W_T=W_T)
    try:
        poly = actions._locus(ws, nu_T)
    except (InfeasibleLocusError, AssumptionViolation):
        assume(False)
    r = r / r.sum()
    s = actions._nearest_moduli(poly, r)
    # a locus point: s >= 0, sum s = 1, W_G s = 0, W_T s along nu_T
    assert s.min() >= 0.0 and abs(s.sum() - 1.0) <= 1e-12
    phi = W_T @ s
    assert phi @ nu_T > 0
    assert np.max(np.abs(W_G @ s), initial=0.0) <= 1e-12
    assert np.max(np.abs(phi - (phi @ nu_T) / (nu_T @ nu_T) * nu_T)) <= 1e-12
    best = np.sqrt(r * s).sum()
    for v in np.array(_basic_feasible_solutions(ws, nu_T), dtype=float):
        for t in (1.0, 0.5):  # the certified gap is at most 1e-12, plus rounding
            assert np.sqrt(r * (t * v + (1 - t) * poly.r)).sum() <= best + 2e-12


@settings(max_examples=200, deadline=None)
@given(locus_points())
def test_locus_record_matches_the_basic_feasible_solutions(case):
    # the polytope is the hull of its vertices, found by brute force: each
    # solves sum r = 1, W_G r = 0, W_T r = t nu_T exactly with t > 0.  The
    # record refuses exactly where some coordinate is zero at every vertex or
    # W_P has deficient rank; a forced zero costs W_P its rank on the union
    # of the supports (Farkas).  An accepted record has H v = e0 for its
    # integer hull rows H, q the rank of the vertex differences, and the box
    # the extent of U^T (v - r_int) over them
    W_G, W_T, nu_T, _ = case
    ws = WeightSystem(n=W_T.shape[1] - 1, W_G=W_G, W_T=W_T)
    try:
        poly = actions._locus(ws, nu_T)
    except InfeasibleLocusError:
        assume(False)
    except AssumptionViolation as exc:
        poly = exc
    vertices = _basic_feasible_solutions(ws, nu_T)
    m = ws.n + 1
    assert vertices
    for v in vertices:
        v = np.array(v)
        t = (nu_T.astype(int) @ (W_T @ v)) / int(nu_T @ nu_T)
        assert t > 0 and all(W_T @ v == t * nu_T.astype(int)) and not any(W_G @ v)
    union = [i for i in range(m) if any(v[i] for v in vertices)]
    if len(union) < m:
        assert sympy.Matrix(ws.W_P[:, union]).rank() < ws.d_P
    refused = len(union) < m or sympy.Matrix(ws.W_P).rank() < ws.d_P
    assert isinstance(poly, AssumptionViolation) == refused
    if refused:
        assert "not locally free anywhere on the locus" in str(poly)
        return
    for v in vertices:
        assert (poly.H @ np.array(v)).tolist() == np.eye(len(poly.H), dtype=int)[0].tolist()
    diffs = sympy.Matrix([[a - c for a, c in zip(v, vertices[0])] for v in vertices])
    assert diffs.rank() == poly.U.shape[1]
    at = (np.array(vertices, dtype=float) - poly.r) @ poly.U
    lo, hi = poly.box
    assert np.allclose(lo, at.min(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(hi, at.max(axis=0), rtol=0, atol=1e-12)


def test_locus_distance_infeasible():
    # the fixed block can never vanish: weights strictly positive
    ws = WeightSystem(n=1, W_G=np.array([[1, 1]]), W_T=np.array([[1, 2]]))
    with pytest.raises(InfeasibleLocusError):
        locus_distance(ws, X1, [1])


def test_locus_sample_total_masses():
    w1 = locus_sample(WS1, [1], 16, seed=0)[1].sum()
    assert abs(w1 - np.pi) < 1e-10 * np.pi
    w2 = locus_sample(WS2, [1], 64, seed=0)[1].sum()
    assert abs(w2 - 4 * np.pi**2 / (3 * np.sqrt(3))) < 1e-9
    # positive-dimensional moduli polytope: classical full-simplex case
    ws = level_weight_system(1)
    w3 = locus_sample(ws, [1], 4000, seed=1)[1].sum()
    assert abs(w3 - np.pi) < 1e-3 * np.pi


def test_locus_sample_single_point_polytope_is_one_node():
    # a single-point polytope with 14 phases is one zero-phase node, its
    # weight the density times the phase-torus volume (2 pi)^14, whatever
    # the count
    ws, nu_T = _level_14()
    nodes = [locus_sample(ws, nu_T, count, seed=0) for count in (1, 2, 64, 2**14)]
    for Z, w in nodes:
        assert Z.shape == (1, ws.n + 1) and w.tolist() == nodes[0][1].tolist()
        assert np.array_equal(Z, nodes[0][0]) and not np.any(Z.imag)
    assert len(locus_sample(WS1, [1], 64, seed=0)[1]) == 1
    assert len(locus_sample(WS2, [1], 64, seed=0)[1]) == 1


def test_locus_sample_nodes_on_locus():
    for z in locus_sample(WS2, [1], 9, seed=2)[0]:
        assert locus_distance(WS2, SpherePoint(z), [1]) < 1e-9


_LOCUS_SYSTEMS = {
    "p1": (WS1, [1]),
    "p2": (WS2, [1]),
    "level": (level_weight_system(2), [1]),
    "transversal": (WeightSystem(n=3, W_G=[[1, -1, 0, 0]], W_T=[[1, 1, 1, 1]]), [1]),
    "two-torus": (WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int),
                               W_T=[[1, 2, 1], [1, 1, 1]]), [4, 3]),
    "weighted": (t_only_weight_system(3, [1, 2, 3, 5]), [1]),
    "forced-zero": (_FORCED_ZERO, [1]),  # refused
}


def _node_density(r, U, phases):
    """The locus density at one node, one tangent at a time: the reference
    for the closed-form `_moduli_density`.  The phase of the largest
    modulus is gauged away; any choice gives the same density, and this one
    keeps the phase block well conditioned near a facet."""
    supp = np.where(r > 1e-13)[0]
    z = np.sqrt(r) * np.exp(1j * phases)
    tangents = []
    for a in range(U.shape[1]):
        t = np.zeros_like(z)
        t[supp] = U[supp, a] / (2.0 * np.sqrt(r[supp])) * np.exp(1j * phases[supp])
        tangents.append(t)
    for i in np.delete(supp, np.argmax(r[supp])):
        t = np.zeros_like(z)
        t[i] = 1j * z[i]
        tangents.append(t)
    if not tangents:
        return 1.0
    T = np.array(tangents)
    T = T - (T @ z.conj())[:, None] * z[None, :]
    G = (T @ T.conj().T).real
    return float(np.sqrt(max(float(np.linalg.det(G)), 0.0)))


def _level_14():
    """The n = 14 system W_G = rows e_0 - e_i, W_T = [[1] * 15] and its
    nu_T: a single-point moduli polytope with 14 phases."""
    n = 14
    W_G = np.zeros((n, n + 1), dtype=int)
    W_G[:, 0] = 1
    W_G[np.arange(n), np.arange(1, n + 1)] = -1
    return WeightSystem(n=n, W_G=W_G, W_T=np.ones((1, n + 1), dtype=int)), [1]


_FREE_SYSTEMS = {
    **_LOCUS_SYSTEMS,
    "level-1": (level_weight_system(1), [1]),
    "single point, 14 phases": _level_14(),
    "(3000, 3001)": (t_only_weight_system(1, [3000, 3001]), [1]),
    "large coprime": (WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int),
                                   W_T=[[2003, -1, 1000], [-1, 2011, 1000]]), [3002, 3010]),
}


def _qr_rows(ws, nu_T):
    """Float rows E r = e0 of the moduli polytope's affine hull: sum r = 1,
    W_G r = 0, and W_T r orthogonal to a QR completion of nu_T."""
    q, _ = np.linalg.qr(np.column_stack([nu_T / np.linalg.norm(nu_T), np.eye(ws.d_T)]))
    E = np.vstack([np.ones(ws.n + 1), ws.W_G, q[:, 1:ws.d_T].T @ ws.W_T])
    return E, np.eye(len(E))[0]


@pytest.mark.parametrize("system", list(_FREE_SYSTEMS))
def test_free_coordinates_and_hull_dimension_match_the_threshold_rules(system):
    # the record's acceptance and hull dimension agree with the float rules
    # they replaced: a coordinate is free where a float-constraint LP (solved
    # by HiGHS) reaches 1e-10, an accepted record has every coordinate free
    # and a positive interior point, the refused forced-zero locus has two
    # that are not, and the hull dimension counts the singular values of the
    # float rows E above 1e-10 relative
    from scipy.optimize import linprog

    ws, nu_T = _FREE_SYSTEMS[system]
    nu_T = np.asarray(nu_T, dtype=float)
    E, rhs = _qr_rows(ws, nu_T)

    def grows(i):
        res = linprog(-np.eye(ws.n + 1)[i], A_eq=E, b_eq=rhs, method="highs")
        return not res.success or -res.fun >= 1e-10

    free = [i for i in range(ws.n + 1) if grows(i)]
    if system == "forced-zero":
        assert free == [0, 1]
        with pytest.raises(AssumptionViolation, match=_NOWHERE_FREE):
            actions._locus(ws, nu_T)
        return
    poly = actions._locus(ws, nu_T)
    sv = np.linalg.svd(E, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * max(1.0, sv[0])))
    assert free == list(range(ws.n + 1)) and poly.r.min() > 0
    assert poly.U.shape == (ws.n + 1, ws.n + 1 - rank)


@pytest.mark.parametrize("system", list(_LOCUS_SYSTEMS))
def test_moduli_density_matches_node_density_at_random_phases(system):
    # the closed form at zero phase is the stacked tangent Gram determinant
    # at any phases: the density depends on the moduli alone
    ws, nu_T = _LOCUS_SYSTEMS[system]
    if system == "forced-zero":
        with pytest.raises(AssumptionViolation, match=_NOWHERE_FREE):
            locus_sample(ws, nu_T, 64, seed=2)
        return
    poly = actions._locus(ws, nu_T)
    R = actions.moduli(locus_sample(ws, nu_T, 64, seed=2)[0])
    phases = 2.0 * np.pi * np.random.default_rng(4).random(R.shape)
    want = np.array([_node_density(r, poly.U, p) for r, p in zip(R, phases)])
    got = actions._moduli_density(R, poly.U)
    assert np.all(want > 0)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("system", ["transversal", "two-torus"])
def test_locus_integrand_is_phase_free(system):
    # f, ||Phi_T|| and script_D do not move under diagonal phases, so the
    # phase torus integrates out to its volume
    ws, nu_T = _LOCUS_SYSTEMS[system]
    Z = locus_sample(ws, nu_T, 64, seed=1)[0]
    Zp = Z * np.exp(2j * np.pi * np.random.default_rng(6).random(Z.shape))
    f = RadialPolynomial(((1.0, (1, 1) + (0,) * (ws.n - 1)), (0.5, (0,) * ws.n + (1,))))
    for g in (f, lambda Z: np.linalg.norm(actions.moduli(Z) @ ws.W_T.T, axis=1),
              lambda Z: script_D_rows(ws, Z)):
        assert np.all(np.abs(g(Zp) - g(Z)) <= 1e-12 * np.abs(g(Z)))


def _per_node_sample(ws, nu_T, count, seed, rounds=64):
    """The locus quadrature one node at a time, drawing in the same order
    as `locus_sample`: a list of (moduli, density, weight).  A round of
    `count` draws takes a block of count (q + n + 1) uniforms, and one in
    which no draw lands is followed by another, up to `rounds`.  It keeps the
    test t > 0 that the sampler does without: on the hull, R >= 0 implies it."""
    nu_T = np.asarray(nu_T, dtype=float)
    poly = actions._locus(ws, nu_T)
    r_int, U = poly.r, poly.U
    q, n_phase = U.shape[1], ws.n
    zero = np.zeros(ws.n + 1)
    if q == 0:
        r_star = np.clip(r_int, 0.0, None)
        r_star /= r_star.sum()
        dens = _node_density(r_star, U, zero)
        return [(r_star, dens, dens * (2.0 * np.pi) ** n_phase)]
    lo, hi = np.zeros(q), np.zeros(q)
    for a in range(q):
        for sign, out in ((1.0, lo), (-1.0, hi)):
            _, x, _ = actions._simplex(sign * U[:, a], None, None, poly.H.tolist(),
                                       np.eye(len(poly.H))[0])
            out[a] = float(U[:, a] @ np.array(x, dtype=float) - U[:, a] @ r_int)
    nu_hat = nu_T / np.linalg.norm(nu_T)
    rng = np.random.default_rng(seed)
    nodes, made = [], 0
    while not nodes and made < rounds * count:
        for _ in range(count):
            s = lo + (hi - lo) * rng.random(q)
            r = r_int + U @ s
            if np.any(r < -1e-12) or float(nu_hat @ (ws.W_T @ r)) <= 1e-12:
                continue
            rng.random(ws.n + 1)  # an accepted draw's phases: drawn, not used
            r = np.clip(r, 0.0, None)
            nodes.append((r, _node_density(r, U, zero)))
        made += count
        if not nodes:
            rng.random(count * (ws.n + 1))  # the rest of the round's block
    scale = float(np.prod(hi - lo)) * (2.0 * np.pi) ** n_phase / made
    return [(r, d, d * scale) for r, d in nodes]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("system", ["p1", "p2", "level", "transversal", "two-torus"])
def test_locus_sample_matches_per_node_loop(system, seed):
    ws, nu_T = _LOCUS_SYSTEMS[system]
    Z, w = locus_sample(ws, nu_T, 64, seed=seed)
    ref = _per_node_sample(ws, nu_T, 64, seed)
    poly = actions._locus(ws, nu_T)
    assert len(Z) == len(w) == len(ref)
    assert len(ref) >= 20 if poly.U.shape[1] else len(ref) == 1
    rows = np.array([SpherePoint.from_moduli(r).z for r, _, _ in ref])
    assert np.max(np.abs(Z - rows)) <= 1e-12  # unit rows: absolute is relative
    R, ref_dens, ref_w = (np.array([node[i] for node in ref]) for i in range(3))
    dens = actions._moduli_density(R, poly.U)
    assert np.all(np.abs(dens - ref_dens) <= 1e-12 * ref_dens)
    assert np.all(np.abs(w - ref_w) <= 1e-12 * ref_w)


def test_locus_sample_draws_another_round_when_none_lands():
    # none of the first 8 draws lands in the (1, 2, 3, 5) polytope at seed 0:
    # the nodes come from the next round, and the weights count both rounds
    ws, nu_T = _LOCUS_SYSTEMS["weighted"]
    assert _per_node_sample(ws, nu_T, 8, 0, rounds=1) == []
    Z, w = locus_sample(ws, nu_T, 8, seed=0)
    ref = _per_node_sample(ws, nu_T, 8, 0)
    assert len(Z) == len(w) == len(ref) > 0
    rows = np.array([SpherePoint.from_moduli(r).z for r, _, _ in ref])
    assert np.max(np.abs(Z - rows)) <= 1e-12
    ref_w = np.array([weight for _, _, weight in ref])
    assert np.all(np.abs(w - ref_w) <= 1e-12 * ref_w)


# ---------------------------------------------------------------------------
# tangent splitting
# ---------------------------------------------------------------------------

def test_tangent_split_reproduces_vertical():
    f = frame_at(X1)
    V = infinitesimal_action(WS1, np.array([1.0, 0.0]), f)
    Vh, Vv, Vt = locus_data(WS1, f, [1]).split(V)
    assert np.max(np.abs(Vv - V)) < 1e-10
    assert np.max(np.abs(Vh)) < 1e-10 and np.max(np.abs(Vt)) < 1e-10


def test_tangent_split_transversal_is_J_of_vertical():
    f = frame_at(X1)
    V = infinitesimal_action(WS1, np.array([1.0, 0.0]), f)
    W = 1j * V
    Wh, Wv, Wt = locus_data(WS1, f, [1]).split(W)
    assert np.max(np.abs(Wt - W)) < 1e-10


def test_tangent_split_pythagoras():
    # the three parts sum to v, are pairwise g-orthogonal, and so split
    # ||v||^2
    ld = locus_data(WS2, frame_at(X2), [1])
    rng = np.random.default_rng(12)
    for _ in range(10):
        r = rng.standard_normal(4)
        v = r[:2] + 1j * r[2:]
        parts = ld.split(v)
        assert np.max(np.abs(sum(parts) - v)) < 1e-10
        for a, b in itertools.combinations(parts, 2):
            assert abs(np.vdot(a, b).real) < 1e-12
        total = sum(np.vdot(p, p).real for p in parts)
        assert abs(total - np.vdot(v, v).real) < 1e-10


@pytest.mark.parametrize("system", ["p1", "p2", "transversal", "t-only (1,2,4)", "two-torus"])
def test_splitting_basis_is_hermitian_orthonormal(system):
    # the real-orthonormal SVD basis of the isotropic V is Hermitian-
    # orthonormal as complex columns, so 1j * Q spans N = J(V), which is
    # g-orthogonal to V
    ws, x = {
        "p1": (WS1, X1),
        "p2": (WS2, X2),
        "transversal": (WeightSystem(n=3, W_G=[[1, -1, 0, 0]], W_T=[[1, 1, 1, 1]]), None),
        "t-only (1,2,4)": (t_only_weight_system(2, [1, 2, 4]), SpherePoint(np.array([0.0, 0.6, 0.8]))),
        "two-torus": (WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int), W_T=[[1, 2, 1], [1, 1, 1]]), X2),
    }[system]
    if x is None:
        x = locus_center(ws, [1])
    Q, _ = actions.orbit_splitting_bases(ws, frame_at(x))
    assert Q.shape == (ws.n, ws.d_P - 1)
    gram = Q.conj().T @ Q
    assert np.max(np.abs(gram - np.eye(Q.shape[1])), initial=0.0) < 1e-12
    assert np.max(np.abs(gram.imag), initial=0.0) <= 1e-12


def test_locus_center_is_on_locus():
    x = locus_center(WS1, [1])
    assert locus_distance(WS1, x, [1]) < 1e-9
    assert np.allclose(np.abs(x.z) ** 2, [0.5, 0.5], atol=1e-9)


def test_lp_memo_solves_each_distinct_lp_once(monkeypatch):
    solves = []
    real = actions._simplex

    def counting(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(actions, "_simplex", counting)
    actions._locus_record.cache_clear()
    actions._functionals.cache_clear()
    W_T = np.array([[1, 2, 3, 5]])
    a = WeightSystem(n=3, W_G=np.zeros((0, 4)), W_T=W_T)
    b = WeightSystem(n=3, W_G=np.zeros((0, 4)), W_T=W_T.copy())
    assert len(solves) == 1
    assert a.integer_functional == b.integer_functional == (1,)
    # a cold record solves its interior point alone, once; the box waits for
    # its first reader, who pays 2 q LPs, once
    for ws, nu_T, q in ((WS2, [1], 0), (level_weight_system(2), [1], 2)):
        solves.clear()
        x1 = locus_center(ws, nu_T)
        x2 = locus_center(ws, nu_T)
        assert len(solves) == 1
        assert np.array_equal(x1.z, x2.z)
        locus = actions._locus(ws, nu_T)
        assert locus.U.shape[1] == q
        for _ in range(2):
            locus.box
        assert len(solves) == 1 + 2 * q
    # a failed solve is cached too, and still refuses every time
    solves.clear()
    for _ in range(2):
        with pytest.raises(AssumptionViolation):
            WeightSystem(n=1, W_G=np.zeros((0, 2)), W_T=np.array([[1, -1]]))
    assert len(solves) == 1


def _tt_locus_lps():
    """The locus LPs over the integer hull rows H of the d_T = 2 locus
    r_1 = 1/3 (W_T = [[1, 2, 1], [1, 1, 1]], nu_T = (4, 3)) in standard
    form: the largest modulus of each coordinate, and the extent of the
    hull direction."""
    ws = WeightSystem(n=2, W_G=np.zeros((0, 3), dtype=int),
                      W_T=np.array([[1, 2, 1], [1, 1, 1]]))
    H = actions._locus(ws, [4, 3]).H.astype(float)
    hull = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    return [(c, None, None, H, np.eye(len(H))[0], [(0, None)] * 3)
            for c in [*-np.eye(3), hull, -hull]]


# the positivity LP of W_T = [[1, -1]], its free phi split into two columns
_INFEASIBLE_POSITIVITY = (np.zeros(2), -np.array([[1.0, -1.0], [-1.0, 1.0]]), -np.ones(2),
                          None, None, [(0, None)] * 2)


@st.composite
def small_lps(draw):
    nv = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)

    def matrix(rows):
        if rows == 0:
            return None, None
        A = draw(st.lists(st.lists(entry, min_size=nv, max_size=nv),
                          min_size=rows, max_size=rows))
        b = draw(st.lists(entry, min_size=rows, max_size=rows))
        return np.array(A, dtype=float), np.array(b, dtype=float)

    c = np.array(draw(st.lists(entry, min_size=nv, max_size=nv)), dtype=float)
    A_ub, b_ub = matrix(draw(st.integers(0, 4)))
    A_eq, b_eq = matrix(draw(st.integers(0, 3)))
    bounds = draw(st.lists(st.sampled_from([(None, None), (0, None)]),
                           min_size=nv, max_size=nv))
    return c, A_ub, b_ub, A_eq, b_eq, bounds


def _lp_examples(test):
    for lp in [_INFEASIBLE_POSITIVITY] + _tt_locus_lps():
        test = example(lp=lp)(test)
    return test


def _standard_form(c, A_ub, A_eq, bounds):
    """The LP over x >= 0 with each free variable split into two columns
    x_j = y+ - y-, and the map from its solution y back to x."""
    cols = []
    for j, (lo, _) in enumerate(bounds):
        cols += [(j, 1)] if lo == 0 else [(j, 1), (j, -1)]
    S = np.zeros((len(c), len(cols)))
    for k, (j, sign) in enumerate(cols):
        S[j, k] = sign

    def back(y):
        return [sum((sign * v for (i, sign), v in zip(cols, y) if i == j), Fraction(0))
                for j in range(len(c))]
    return (c @ S, None if A_ub is None else A_ub @ S, None if A_eq is None else A_eq @ S,
            back)


@_lp_examples
@settings(max_examples=300, deadline=None)
@given(lp=small_lps())
def test_lp_matches_highs(lp):
    from scipy.optimize import linprog

    c, A_ub, b_ub, A_eq, b_eq, bounds = lp
    c_y, A_ub_y, A_eq_y, back = _standard_form(c, A_ub, A_eq, bounds)
    ok, y, fun = actions._simplex(c_y, A_ub_y, b_ub, A_eq_y, b_eq)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    assert ok == res.success
    if not ok:
        return
    assert abs(float(fun) - res.fun) <= 1e-9 * (1 + abs(res.fun))
    assert all(v >= 0 for v in y)
    x = back(y)

    def dot(row):
        return sum(Fraction(a) * v for a, v in zip(row, x))

    # the exact optimum satisfies every constraint exactly
    assert fun == dot(c)
    for row, b in zip(A_ub if A_ub is not None else [], b_ub if b_ub is not None else []):
        assert dot(row) <= Fraction(b)
    for row, b in zip(A_eq if A_eq is not None else [], b_eq if b_eq is not None else []):
        assert dot(row) == Fraction(b)
    assert all(lo is None or v >= lo for v, (lo, _) in zip(x, bounds))
