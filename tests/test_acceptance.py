"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`).

Criteria 1, 2 and 4 check the two worked examples against references in the
package's own normalization: coefficient (|J|+n)!/(pi^n J!), bundle volume
pi^n/n! (the Euclidean sphere measure over 2 pi).  Their published constants
are in other normalizations or come with a biased estimator; each criterion
converts them as derived here, and asserts and prints the published form's
discrepancy so that it stays visible.

1. First example, b = (k - 1)/3.  The isotype is the one monomial
   J = (b+1, b); at x = (1,1)/sqrt 2, |x^J|^2 = 2^-(2b+1), so

       K(x, x) = (2b+2)! / (pi (b+1)! b! 2^(2b+1))  ->  (2/pi) sqrt(b/pi).

   The published 2 sqrt(b/pi) is the limit of pi K(x, x): the kernel of the
   unit-mass sphere measure, which is what `exact_diag_rational` returns.
   Dividing it by the bundle volume pi^n/n! (= pi at n = 1) gives the
   package's limit; the published form overshoots by a factor pi.

2. Second example, c = (k - 4)/6.  The isotype is J = (c+2, c+1, c) and
   `stirling_p2` is (9 sqrt(3) c / 2 pi^3) prod_d [(3c+s)/(c+d)]^(c+d), with
   s = nu1 + 2 nu2 and d over {nu1+nu2, nu2, 0}.  Multiplied by
   |x^J|^2 = 3^-(3c+s) at x = (1,1,1)/sqrt 3 the product tends to
   e^(s - sum d) = 1, so the limit is 9 sqrt(3) c / 2 pi^3 and the published
   factor 3^-(nu1+2 nu2) cancels.

4. Off-locus decay at moduli (0.6, 0.4) on the first example.  With the
   Stirling form `stirling_p1`,

       log K = c0 + 0.5 log b - log(25/24) b + O(1/b),

   since 0.6 * 0.4 * 4 = 24/25.  A plain linear fit over b in [100, 400]
   absorbs the 0.5 log b term into its slope (5.3% off); the criterion
   removes that fixed, known term before the same linear fit.
"""

import math
from fractions import Fraction

import numpy as np

from equiszego.actions import locus_sample, moment
from equiszego.asymptotics import (
    diagonal_leading,
    fit_exponent,
    locus_data,
    stabilizer_character_sum,
)
from equiszego.geometry import (
    SpherePoint,
    TangentVectorX,
    frame_at,
)
from equiszego.hardy import build_basis, dim_isotype, log_sections
from equiszego.kernel import log_szego_diag, szego_diag, szego_eval
from equiszego.oracle import (
    brute_dim_range,
    exact_diag_rational,
    level_kernel_closed,
    mc_gram,
    required_scan_bound,
    stirling_p1_limit,
    stirling_p2_limit,
    stirling_p2_limit_nu_free,
)
from equiszego.presets import p1_weight_system, p2_weight_system
from equiszego.toeplitz import (
    RadialPolynomial,
    parse_f_spec,
    toeplitz_matrix,
    toeplitz_trace,
    trace_prediction,
)
from support import act, chart_point, level_weight_system, rescaled_kernel

WS1 = p1_weight_system()
WS2 = p2_weight_system()
X1 = SpherePoint(np.array([1.0, 1.0]) / np.sqrt(2))
X2 = SpherePoint(np.ones(3) / np.sqrt(3))
R1 = [Fraction(1, 2)] * 2  # moduli-squared of X1
R2 = [Fraction(1, 3)] * 3  # moduli-squared of X2


def _sections(b, Z):
    logmag, phase = log_sections(b, Z)
    return np.exp(logmag + 1j * phase)


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} - {detail}"
    print(line)
    return line


def _p1_diag(b_par, nu_G=1):
    k = 3 * b_par + nu_G
    basis = build_basis(WS1, [nu_G], [1], k)
    return szego_diag(basis, X1)


def _p2_diag(c_par, nu=(1, 1)):
    k = 6 * c_par + nu[0] + 3 * nu[1]
    basis = build_basis(WS2, list(nu), [1], k)
    return szego_diag(basis, X2)


def _bundle_volume(n):
    """pi^n / n!: the Euclidean measure of S^{2n+1} divided by 2 pi."""
    return math.pi**n / math.factorial(n)


def _oracle_anchor(ws, nu_G, k, x, r):
    """Relative gap between pi^n K(x, x) and the exact rational oracle."""
    basis = build_basis(ws, list(nu_G), [1], k)
    exact = float(exact_diag_rational(basis, r))
    return abs(math.pi**ws.n * szego_diag(basis, x) / exact - 1.0)


# ---------------------------------------------------------------------------
# 1. first worked example, published closed-form growth
# ---------------------------------------------------------------------------

def test_criterion_1_p1_closed_form():
    """Diagonal growth against the published 2 sqrt(b/pi), converted from
    the unit-mass normalization by the bundle volume (module docstring, 1)."""
    anchor = max(_oracle_anchor(WS1, [1], 3 * b + 1, X1, R1) for b in (5, 19, 29))
    bs = [25, 50, 100, 200, 400]
    vol = _bundle_volume(WS1.n)
    ratios = {b: _p1_diag(b) / (stirling_p1_limit(b) / vol) for b in bs}
    errs = [(b, abs(ratios[b] - 1.0)) for b in bs]
    slope, _, _ = fit_exponent([(b, e) for b, e in errs])
    published = _p1_diag(400) / stirling_p1_limit(400)
    ok = (
        anchor <= 1e-12
        and abs(ratios[400] - 1.0) <= 0.01
        and -1.3 <= slope <= -0.7
        and abs(published * math.pi - 1.0) <= 0.01
    )
    line = _report(
        1,
        ok,
        f"ratio(b=400)={ratios[400]:.6f} (need within 1% of 1), "
        f"log-log error slope={slope:.3f} (need -1 +/- 0.3); "
        f"exact-rational anchor {anchor:.1e} (need <= 1e-12); "
        f"published-form ratio {published:.6f} (need within 1% of 1/pi)",
    )
    assert ok, line


def test_criterion_1_diagnostic_pi_corrected_form():
    # the same sequence against (2/pi) sqrt(b/pi): ratio -> 1 with the
    # expected first-order error decay; this is what exact evaluation gives
    bs = [25, 50, 100, 200, 400]
    ratios = {b: _p1_diag(b) / (stirling_p1_limit(b) / math.pi) for b in bs}
    errs = [(b, abs(ratios[b] - 1.0)) for b in bs]
    slope, _, _ = fit_exponent(errs)
    assert abs(ratios[400] - 1.0) <= 0.01
    assert -1.3 <= slope <= -0.7
    print(
        f"  diagnostic 1: pi-corrected ratio(b=400)={ratios[400]:.6f}, "
        f"error slope={slope:.3f}"
    )


# ---------------------------------------------------------------------------
# 2. second worked example, published closed-form limit
# ---------------------------------------------------------------------------

def test_criterion_2_p2_closed_form():
    """Diagonal limit against the character-free 9 sqrt(3) c / 2 pi^3
    (module docstring, 2).

    The published form carries an extra 3^-(nu1+2 nu2), which the factorial
    shifts cancel.  PAPER.md holds only the paper's title and abstract, which
    cannot settle whether that factor is a misprint or belongs to another
    normalization; the criterion checks the exact limit and asserts the
    published form's offset, 3^3 at nu = (1, 1).
    """
    anchor = max(_oracle_anchor(WS2, [1, 1], 6 * c + 4, X2, R2) for c in (5, 19))
    cs = [25, 50, 100, 200]
    ratios = {c: _p2_diag(c) / stirling_p2_limit_nu_free(c) for c in cs}
    published = _p2_diag(200) / stirling_p2_limit(200, 1, 1)
    ok = (
        anchor <= 1e-12
        and abs(ratios[200] - 1.0) <= 0.02
        and abs(published / 27.0 - 1.0) <= 0.02
    )
    line = _report(
        2,
        ok,
        f"ratio(c=200)={ratios[200]:.4f} (need within 2% of 1); "
        f"exact-rational anchor {anchor:.1e} (need <= 1e-12); "
        f"published-form ratio {published:.4f} (need within 2% of 27)",
    )
    assert ok, line


def test_criterion_2_diagnostic_character_free_form():
    # the character-independent limit form: ratio -> 1 within 2% at c = 200
    cs = [25, 50, 100, 200]
    ratios = {c: _p2_diag(c) / stirling_p2_limit_nu_free(c) for c in cs}
    assert abs(ratios[200] - 1.0) <= 0.02
    drift = [abs(ratios[c] - 1.0) for c in cs]
    assert drift == sorted(drift, reverse=True)
    print(f"  diagnostic 2: character-free ratio(c=200)={ratios[200]:.6f}")


# ---------------------------------------------------------------------------
# 3. dimension dichotomy against the exhaustive oracle
# ---------------------------------------------------------------------------

def test_criterion_3_dimension_dichotomy():
    k1, k2 = 2000, 500
    bound1 = required_scan_bound(WS1, [1], k1)
    oracle1 = brute_dim_range(WS1, [1], [1], k1, bound1)
    dims1 = np.array([dim_isotype(WS1, [1], [1], k) for k in range(k1 + 1)])
    match1 = bool(np.array_equal(dims1, oracle1))
    classes1 = {k % 3 for k in range(1, k1 + 1) if dims1[k] > 0}

    bound2 = required_scan_bound(WS2, [1], k2)
    oracle2 = brute_dim_range(WS2, [1, 1], [1], k2, bound2)
    dims2 = np.array([dim_isotype(WS2, [1, 1], [1], k) for k in range(k2 + 1)])
    match2 = bool(np.array_equal(dims2, oracle2))
    classes2 = {k % 6 for k in range(1, k2 + 1) if dims2[k] > 0}

    ok = match1 and match2 and classes1 == {1} and classes2 == {4}
    line = _report(
        3,
        ok,
        f"oracle match (k<=2000, k<=500): {match1}, {match2}; "
        f"nonzero classes mod 3: {sorted(classes1)}, mod 6: {sorted(classes2)}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 4. off-locus exponential decay rate
# ---------------------------------------------------------------------------

def _p1_offlocus_logdiag(b_par, r0=0.6, nu_G=1):
    x = SpherePoint.from_moduli([r0, 1.0 - r0])
    k = 3 * b_par + nu_G
    basis = build_basis(WS1, [nu_G], [1], k)
    return log_szego_diag(basis, x)


def test_criterion_4_offlocus_decay_rate():
    """Decay rate -log(25/24) from a linear fit after removing the known
    0.5 log b of the sqrt(b) prefactor (module docstring, 4); the prefactor
    is fixed here, not fitted as in diagnostic 4."""
    bs = np.arange(100, 401)
    ys = np.array([_p1_offlocus_logdiag(b) for b in bs])
    A = np.vstack([bs.astype(float), np.ones_like(ys)]).T
    slope = float(np.linalg.lstsq(A, ys - 0.5 * np.log(bs), rcond=None)[0][0])
    target = -math.log(25.0 / 24.0)
    rel = abs(slope - target) / abs(target)
    ok = rel <= 0.05
    line = _report(
        4,
        ok,
        f"slope of log(diag) - 0.5 log b vs b = {slope:.6f}, target {target:.6f}, "
        f"deviation {100 * rel:.3f}% (need <= 5%)",
    )
    assert ok, line


def test_criterion_4_diagnostic_prefactor_aware_rate():
    # the same data fitted with the known sqrt(b) prefactor freed:
    # log diag = c0 + c1 b + c2 log b recovers the rate to better than 1%
    bs = np.arange(100, 401)
    ys = np.array([_p1_offlocus_logdiag(b) for b in bs])
    A = np.vstack([bs.astype(float), np.log(bs.astype(float)), np.ones_like(ys)]).T
    coef = np.linalg.lstsq(A, ys, rcond=None)[0]
    target = -math.log(25.0 / 24.0)
    rel = abs(coef[0] - target) / abs(target)
    assert rel <= 0.01
    print(f"  diagnostic 4: prefactor-aware rate={coef[0]:.6f} ({100*rel:.2f}% off)")


# ---------------------------------------------------------------------------
# 5. diagonal exponent and amplitude stability
# ---------------------------------------------------------------------------

def test_criterion_5_diagonal_exponent_and_amplitude():
    # first example
    ld1 = locus_data(WS1, frame_at(X1), [1])
    bs = [50, 100, 200, 400, 800, 1600]
    series1 = [(3 * b + 1, _p1_diag(b)) for b in bs]
    slope1, _, _ = fit_exponent(series1)
    ratios1 = []
    for b in (800, 1100, 1600):  # top octave of k
        k = 3 * b + 1
        ratios1.append(_p1_diag(b) / abs(diagonal_leading(ld1, [1], k)))
    stable1 = max(ratios1) / min(ratios1) - 1.0

    # second example
    ld2 = locus_data(WS2, frame_at(X2), [1])
    cs = [25, 50, 100, 200, 400]
    series2 = [(6 * c + 4, _p2_diag(c)) for c in cs]
    slope2, _, _ = fit_exponent(series2)
    ratios2 = []
    for c in (200, 300, 400):
        k = 6 * c + 4
        ratios2.append(_p2_diag(c) / abs(diagonal_leading(ld2, [1, 1], k)))
    stable2 = max(ratios2) / min(ratios2) - 1.0

    ok = (
        abs(slope1 - 0.5) <= 0.005
        and abs(slope2 - 1.0) <= 0.01
        and stable1 <= 0.02
        and stable2 <= 0.02
    )
    line = _report(
        5,
        ok,
        f"exponents {slope1:.4f} (target 0.5), {slope2:.4f} (target 1.0); "
        f"amplitude ratio drift {100 * stable1:.3f}%, {100 * stable2:.3f}% "
        f"(need <= 2%); normalization diagnostics "
        f"{ratios1[-1]:.6f} ~ 1/(2 pi), {ratios2[-1]:.6f} ~ 1/(4 pi^2)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 6. transversal Gaussian profile
# ---------------------------------------------------------------------------

def test_criterion_6_gaussian_profile():
    # k = 1200 admissible for the character-0 class; lambda = 2/3
    k = 1200
    lam = 2.0 / 3.0
    basis = build_basis(WS1, [0], [1], k)
    assert basis.dim == 1
    f = frame_at(X1)
    ld = locus_data(WS1, f, [1])
    t_dir = 1j * ld.Q[:, 0]
    base = szego_diag(basis, X1)
    worst = 0.0
    for t in np.linspace(0.0, 1.5, 7):
        u = TangentVectorX(0.0, t * t_dir)
        val = abs(rescaled_kernel(basis, f, u, u, k))
        pred = math.exp(-2.0 * lam * t * t)
        worst = max(worst, abs(val / base - pred) / pred)
    ok = worst <= 0.03
    line = _report(
        6, ok, f"max pointwise profile deviation {100 * worst:.3f}% (need <= 3%)"
    )
    assert ok, line


def test_criterion_6_note_first_order_character_factor():
    # with the fixed character nu_G = 1 the first-order correction
    # (2 r0)^{nu_G} ~ e^{2 t/sqrt(k)} is visible at this k; removing it
    # brings the profile back under the tolerance
    k = 1201
    lam = 2.0 / 3.0
    basis = build_basis(WS1, [1], [1], k)
    f = frame_at(X1)
    ld = locus_data(WS1, f, [1])
    t_dir = 1j * ld.Q[:, 0]
    base = szego_diag(basis, X1)
    raw, corrected = 0.0, 0.0
    sk = math.sqrt(k)
    for t in np.linspace(0.0, 1.5, 7):
        u = TangentVectorX(0.0, t * t_dir)
        val = abs(rescaled_kernel(basis, f, u, u, k))
        pred = math.exp(-2.0 * lam * t * t)
        y = chart_point(f, 0.0, u.v / sk)
        r0 = float(np.abs(y.z[0]) ** 2)  # modulus the character couples to
        raw = max(raw, abs(val / base - pred) / pred)
        corrected = max(corrected, abs(val / base / (2 * r0) - pred) / pred)
    assert raw > 0.03
    assert corrected <= 0.005
    print(
        f"  note 6: nu_G=1 raw deviation {100 * raw:.2f}%, "
        f"after removing the known first-order factor {100 * corrected:.3f}%"
    )


# ---------------------------------------------------------------------------
# 7. stabilizer / vanishing coherence
# ---------------------------------------------------------------------------

def test_criterion_7_stabilizer_vanishing_coherence():
    ld1 = locus_data(WS1, frame_at(X1), [1])
    ld2 = locus_data(WS2, frame_at(X2), [1])
    ok = True
    for k in range(1, 501):
        s1 = stabilizer_character_sum(ld1, [1], k)
        empty1 = dim_isotype(WS1, [1], [1], k) == 0
        ok &= (s1 == 0.0) == empty1 and (s1 in (0.0, 3.0))
        s2 = stabilizer_character_sum(ld2, [1, 1], k)
        empty2 = dim_isotype(WS2, [1, 1], [1], k) == 0
        ok &= (s2 == 0.0) == empty2 and (s2 in (0.0, 6.0))
    line = _report(
        7, ok, "roots-of-unity factor vanishes exactly on the empty classes, k <= 500"
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 8. kernel algebra properties
# ---------------------------------------------------------------------------

def test_criterion_8_kernel_algebra():
    rng = np.random.default_rng(2024)

    def rand_pt(n):
        z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        return SpherePoint(z / np.linalg.norm(z))

    # Hermitian symmetry and invariance on 100 random pairs
    b = build_basis(WS1, [1], [1], 31)
    herm_ok = inv_ok = True
    for _ in range(100):
        x, y = rand_pt(1), rand_pt(1)
        v = szego_eval(b, x, y)
        herm_ok &= abs(v - np.conj(szego_eval(b, y, x))) <= 1e-10 * max(abs(v), 1e-8)
        p = rng.uniform(0, 2 * np.pi, 2)
        w = szego_eval(b, act(WS1, p, x), act(WS1, p, y))
        inv_ok &= abs(w - v) <= 1e-10 * max(abs(v), 1e-8)

    # multinomial collapse for n <= 2, k <= 40, at the conditioning scale
    coll_ok = True
    for n in (1, 2):
        ws = level_weight_system(n)
        for k in (5, 20, 40):
            bb = build_basis(ws, [], [1], k)
            for _ in range(5):
                x, y = rand_pt(n), rand_pt(n)
                lhs = szego_eval(bb, x, y)
                rhs = level_kernel_closed(n, k, x, y)
                scale = math.sqrt(
                    level_kernel_closed(n, k, x, x).real
                    * level_kernel_closed(n, k, y, y).real
                )
                coll_ok &= abs(lhs - rhs) <= 1e-10 * scale

    # Monte Carlo Gram of a 6-element basis within 3 sigma of the identity
    ws = level_weight_system(1)
    bb = build_basis(ws, [], [1], 5)
    M, err = mc_gram(lambda Z: _sections(bb, Z), RadialPolynomial.constant(1.0, 1), 1, 10**6, 7)
    gram_ok = bool(np.all(np.abs(M - np.eye(bb.dim)) <= 3.0 * err + 1e-12))

    ok = herm_ok and inv_ok and coll_ok and gram_ok
    line = _report(
        8,
        ok,
        f"hermitian={herm_ok}, invariance={inv_ok}, multinomial collapse={coll_ok}, "
        f"MC Gram within 3 sigma={gram_ok}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 9. Toeplitz operators
# ---------------------------------------------------------------------------

def test_criterion_9_toeplitz():
    # f == 1: Monte Carlo matrix is the identity within 3 sigma, and the
    # closed-form route gives trace == dim exactly
    ws = level_weight_system(1)
    bb = build_basis(ws, [], [1], 5)
    one = RadialPolynomial.constant(1.0, 1)
    M_mc, err = mc_gram(lambda Z: _sections(bb, Z), one, 1, 10**6, 11)
    ident_ok = bool(np.all(np.abs(M_mc - np.eye(bb.dim)) <= 3.0 * err + 1e-12))
    M_ex, _ = toeplitz_matrix(bb, one)
    trace_ok = toeplitz_trace(M_ex) == float(bb.dim)

    # f = r0 r1 on the first example: trace convergence along the
    # admissible classes near k ~ 600
    f = parse_f_spec({"radial": [[1.0, [1, 1]]]}, 1)
    traces = {}
    for b_par in (180, 199, 200):
        basis = build_basis(WS1, [1], [1], 3 * b_par + 1)
        M, _ = toeplitz_matrix(basis, f)
        traces[b_par] = toeplitz_trace(M)
    conv = abs(traces[200] - traces[199]) / traces[200]
    conv_ok = conv < 0.01

    # near-diagonal Gaussian shape of the exact operator kernel (class 0)
    k = 600
    lam = 2.0 / 3.0
    basis0 = build_basis(WS1, [0], [1], k)
    M0, _ = toeplitz_matrix(basis0, f)
    diag0 = np.diag(M0).real
    fr = frame_at(X1)
    ld = locus_data(WS1, fr, [1])
    t_dir = 1j * ld.Q[:, 0]
    base = float(np.sum(diag0 * np.exp(2.0 * log_sections(basis0, X1)[0])))
    shape_worst = 0.0
    for t in np.linspace(0.0, 1.5, 7):
        y = chart_point(fr, 0.0, t * t_dir / math.sqrt(k))
        val = float(np.sum(diag0 * np.exp(2.0 * log_sections(basis0, y)[0])))
        pred = math.exp(-2.0 * lam * t * t)
        shape_worst = max(shape_worst, abs(val / base - pred) / pred)
    shape_ok = shape_worst <= 0.03

    quad = locus_sample(WS1, [1], 8, seed=0)
    pred_val, pred_err = trace_prediction(WS1, f, quad)

    ok = ident_ok and trace_ok and conv_ok and shape_ok
    line = _report(
        9,
        ok,
        f"unit f identity={ident_ok}, trace==dim={trace_ok}, "
        f"trace conv {100 * conv:.4f}% (<1%), shape dev {100 * shape_worst:.2f}% "
        f"(<=3%); trace limit {traces[200]:.6f}, prediction {pred_val:.6f} "
        f"+/- {pred_err:.1e} (ratio {traces[200] / pred_val:.4f})",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 10. geometry and action oracles
# ---------------------------------------------------------------------------

def test_criterion_10_geometry_oracles():
    md1 = moment(WS1, X1)
    md2 = moment(WS2, X2)
    phi_ok = float(md1.phi_T[0]) == 1.5 and float(md2.phi_T[0]) == 2.0

    # infinitesimal action against central differences
    from equiszego.actions import infinitesimal_action

    fd_ok = True
    for ws, x in ((WS1, X1), (WS2, X2)):
        f = frame_at(x)

        def chart(t, xi, ws=ws, f=f, x=x):
            y = act(ws, t * xi, x)
            return (f.e.conj() @ y.z) / np.vdot(x.z, y.z)

        for xi in np.eye(ws.d_P):
            h = 1e-4
            fd = (chart(h, xi) - chart(-h, xi)) / (2 * h)
            fd_ok &= bool(
                np.max(np.abs(infinitesimal_action(ws, xi, f) - fd)) <= 1e-6
            )

    # chart adaptedness: loop-phase probe converges at first order in eps
    rng = np.random.default_rng(5)
    f = frame_at(X2)
    a, b = (r[:2] + 1j * r[2:] for r in rng.standard_normal((2, 4)))
    om = np.vdot(a, b).imag

    def probe(eps):
        c0 = f.x.z
        c1 = chart_point(f, 0.0, eps * a).z
        c2 = chart_point(f, 0.0, eps * b).z
        prod = np.vdot(c0, c1) * np.vdot(c1, c2) * np.vdot(c2, c0)
        return np.angle(prod) / eps**2

    e1 = abs(probe(1e-2) - om)
    e2 = abs(probe(1e-3) - om)
    scale = max(1.0, abs(om))
    chart_ok = e1 <= 5e-2 * scale and e2 <= 5e-3 * scale and e2 < e1

    ok = phi_ok and fd_ok and chart_ok
    line = _report(
        10,
        ok,
        f"moment values exact={phi_ok}, finite-difference agreement={fd_ok}, "
        f"chart second-order agreement={chart_ok} (errors {e1:.2e} -> {e2:.2e})",
    )
    assert ok, line
