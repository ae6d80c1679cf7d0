import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import equiszego
from equiszego.actions import WeightSystem, locus_sample, moment
from equiszego.asymptotics import locus_data, near_diagonal_leading
from equiszego.errors import AssumptionViolation, ConfigError
from equiszego.geometry import SpherePoint, TangentVectorX, frame_at
from equiszego.hardy import IsotypeBasis, build_basis, log_sections
from equiszego.kernel import szego_eval
from equiszego.oracle import mc_gram, mc_sphere_integral
from equiszego.presets import p1_weight_system
from equiszego.toeplitz import (
    RadialPolynomial,
    _dirichlet_diagonal,
    parse_f_spec,
    toeplitz_kernel,
    toeplitz_matrix,
    toeplitz_near_diagonal_leading,
    toeplitz_trace,
    trace_prediction,
)
from support import chart_point, level_weight_system, t_only_weight_system

WS1 = p1_weight_system()
WS_TRANSVERSAL = WeightSystem(n=3, W_G=np.array([[1, -1, 0, 0]]), W_T=np.array([[1, 1, 1, 1]]))
X1 = SpherePoint(np.array([1.0, 1.0]) / np.sqrt(2))
MC_SAMPLES, MC_SEED = 200_000, 42


def _sections(b, Z):
    logmag, phase = log_sections(b, Z)
    return np.exp(logmag + 1j * phase)


def random_unit(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return SpherePoint(z / np.linalg.norm(z))


def test_parse_f_spec_forms():
    f = parse_f_spec({"constant": 2.5}, 1)
    assert f.value_at(X1) == 2.5
    g = parse_f_spec({"radial": [[1.0, [1, 1]]]}, 1)
    assert abs(g.value_at(X1) - 0.25) < 1e-15
    with pytest.raises(ConfigError):
        parse_f_spec({"radial": [[1.0, [1]]]}, 1)
    with pytest.raises(ConfigError):
        parse_f_spec({"weird": 1}, 1)


def test_identity_observable_gives_identity_matrix():
    ws = level_weight_system(1)
    b = build_basis(ws, [], [1], 3)
    one = RadialPolynomial.constant(1.0, 1)
    M, err = toeplitz_matrix(b, one)  # closed-form route
    assert np.max(np.abs(M - np.eye(b.dim))) == 0.0
    M2, err2 = mc_gram(lambda Z: _sections(b, Z), one, 1, MC_SAMPLES, MC_SEED)
    dev = np.abs(M2 - np.eye(b.dim))
    assert np.all(dev <= 3.0 * err2 + 1e-12)


def test_single_entry_dirichlet_value():
    b = build_basis(WS1, [1], [1], 7)  # basis {(3, 2)}
    f = parse_f_spec({"radial": [[1.0, [1, 0]]]}, 1)  # f = r_0
    M, _ = toeplitz_matrix(b, f)
    assert abs(M[0, 0] - 4.0 / 7.0) < 1e-14  # 60/pi * moment ratio
    M2, err2 = mc_gram(lambda Z: _sections(b, Z), f, 1, MC_SAMPLES, MC_SEED)
    assert abs(M2[0, 0] - 4.0 / 7.0) <= 3.0 * err2[0, 0]


def test_dirichlet_diagonal_matches_entrywise_loop():
    # the vector route against an entry-by-entry loop over the closed form
    ws = WeightSystem(n=3, W_G=np.array([[1, -1, 0, 0]]), W_T=np.array([[1, 1, 1, 1]]))
    b = build_basis(ws, [0], [1], 30)
    terms = [[1.0, [1, 1, 0, 0]], [0.5, [0, 0, 1, 0]], [-2.0, [0, 3, 0, 2]]]
    f = parse_f_spec({"radial": terms}, 3)

    def entry(J, alpha):
        logv = sum(math.lgamma(j + a + 1) - math.lgamma(j + 1) for j, a in zip(J, alpha))
        total = sum(J)
        logv += math.lgamma(total + b.n + 1) - math.lgamma(total + sum(alpha) + b.n + 1)
        return math.exp(logv)

    M, err = toeplitz_matrix(b, f)
    assert M.dtype == complex and M.shape == (b.dim, b.dim) and not err.any()
    expected = [sum(c * entry(J, alpha) for c, alpha in f.terms) for J in b.J_matrix.tolist()]
    assert np.allclose(np.diag(M).real, expected, rtol=1e-13, atol=0)
    assert np.array_equal(M, np.diag(np.diag(M)))


@pytest.mark.parametrize("a", [1, 100, 10**4, 5 * 10**4, 10**5, 10**9, 10**18])
def test_large_exponent_diagonal_is_accurate_or_refused(a):
    # <r_0^a s_J, s_J> = c_J / c_{J + a e_0} is exactly the product over
    # m = 1 .. |J| + n - J_0 of (J_0 + m) / (J_0 + a + m); past a ~ 1e5 the
    # log-factorial difference cancels below 1e-9 and is refused
    b = build_basis(WS_TRANSVERSAL, [0], [1], 12)
    f = RadialPolynomial(terms=((1.0, (a, 0, 0, 0)),))
    if a >= 10**5:
        with pytest.raises(AssumptionViolation, match="1e-9 relative accuracy"):
            _dirichlet_diagonal(b, f)
        return
    diag = _dirichlet_diagonal(b, f)
    for J, d in zip(b.J_matrix.tolist(), diag):
        steps = range(1, sum(J) + b.n - J[0] + 1)
        exact = math.prod(Fraction(J[0] + m, J[0] + a + m) for m in steps)
        assert abs(d / float(exact) - 1.0) < 1e-9


def test_matrix_contract():
    b = build_basis(WS_TRANSVERSAL, [0], [1], 30)
    f = parse_f_spec({"radial": [[1.0, [1, 1, 0, 0]], [0.5, [0, 0, 1, 0]]]}, 3)
    M, err = toeplitz_matrix(b, f)
    assert np.array_equal(M, np.diag(_dirichlet_diagonal(b, f)))
    assert M.flags.writeable and M.flags.c_contiguous and M.dtype == np.complex128
    assert M.shape == (b.dim, b.dim) and M.nbytes == 16 * b.dim**2
    assert err.shape == M.shape and err.dtype == np.float64 and not err.any()
    empty = build_basis(WS_TRANSVERSAL, [1], [1], 0)
    assert empty.dim == 0
    M0, _ = toeplitz_matrix(empty, f)
    assert M0.shape == (0, 0) and M0.dtype == np.complex128


def test_matrix_rss_is_diagonal_only():
    # the dense transversal k = 120 matrix (dim 3721, 221 MB) keeps only its
    # diagonal's pages resident: ~15 MB, not the whole matrix, faulted in one
    # page a row as private anonymous memory (a shared mapping would be shmem)
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(equiszego.__file__)))
    code = (
        "import resource, sys\n"
        "import numpy as np\n"
        "from equiszego.actions import WeightSystem\n"
        "from equiszego.hardy import build_basis\n"
        "from equiszego.toeplitz import RadialPolynomial, toeplitz_matrix\n"
        "def shmem_kb():\n"
        "    if not sys.platform.startswith('linux'):\n"
        "        return 0\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('RssShmem:'))\n"
        "ws = WeightSystem(n=3, W_G=np.array([[1, -1, 0, 0]]), W_T=np.array([[1, 1, 1, 1]]))\n"
        "b = build_basis(ws, [0], [1], 120)\n"
        "f = RadialPolynomial.constant(1.0, 3)\n"
        "toeplitz_matrix(build_basis(ws, [0], [1], 2), f)  # imports mmap\n"
        "shmem, before = shmem_kb(), resource.getrusage(resource.RUSAGE_SELF)\n"
        "M, _ = toeplitz_matrix(b, f)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF)\n"
        "print(b.dim, after.ru_maxrss - before.ru_maxrss, shmem_kb() - shmem,\n"
        "      after.ru_minflt - before.ru_minflt)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    dim, rise, shmem_rise, faults = map(int, out.stdout.split())
    assert dim == 3721
    # ru_maxrss is in KB on Linux, in bytes on macOS
    assert rise * (1 if sys.platform == "darwin" else 1024) < 64 * 2**20
    assert shmem_rise < 1024
    assert faults <= dim + 64


def test_unallocatable_matrix_is_an_assumption_violation():
    # 2**23 rows of zeros at no memory cost; the matrix would need ~1.1 PB
    dim = 2**23
    b = IsotypeBasis(
        ws=WS_TRANSVERSAL, nu_G=(0,), nu_T=(1,), k=0,
        J_matrix=np.broadcast_to(np.zeros(4, dtype=np.int64), (dim, 4)),
        log_c=np.broadcast_to(0.0, (dim,)),
    )
    with pytest.raises(AssumptionViolation, match=r"dim 8388608 .*1,125,899,906,842,624 bytes"):
        toeplitz_matrix(b, RadialPolynomial.constant(1.0, 3))


def test_matrix_hermitian_by_construction():
    ws = level_weight_system(1)
    b = build_basis(ws, [], [1], 4)

    def f(Z):
        return np.abs(Z[:, 0]) ** 2 + 0.3 * np.abs(Z[:, 1]) ** 4

    M, _ = mc_gram(lambda Z: _sections(b, Z), f, 1, 20_000, 1)
    assert np.array_equal(M, M.conj().T)


def test_invariant_f_matrix_is_diagonal():
    ws = level_weight_system(1)
    b = build_basis(ws, [], [1], 4)
    f = parse_f_spec({"radial": [[1.0, [1, 1]]]}, 1)
    M, err = mc_gram(lambda Z: _sections(b, Z), f, 1, MC_SAMPLES, MC_SEED)
    off = np.abs(M - np.diag(np.diag(M)))
    assert np.all(off <= 3.0 * err + 1e-12)


def test_matrix_and_kernel_take_only_radial_polynomials():
    b = build_basis(level_weight_system(1), [], [1], 4)

    def f(Z):
        return np.abs(Z[:, 0]) ** 2

    with pytest.raises(TypeError):
        toeplitz_matrix(b, f)
    with pytest.raises(TypeError):
        toeplitz_kernel(b, 1.0, X1, X1)


def test_positivity_and_norm_bound():
    ws = level_weight_system(1)
    b = build_basis(ws, [], [1], 5)
    f = parse_f_spec({"radial": [[1.0, [2, 0]], [0.5, [0, 1]]]}, 1)
    M, _ = toeplitz_matrix(b, f)
    eig = np.linalg.eigvalsh(M)
    assert eig.min() >= -1e-10 * np.linalg.norm(M)
    # sup over the simplex of r_0^2 + 0.5 r_1 = 1 at the first vertex
    assert eig.max() <= 1.0 + 1e-12


def test_kernel_routes_agree():
    ws = level_weight_system(1)
    b = build_basis(ws, [], [1], 4)
    f = parse_f_spec({"radial": [[1.0, [1, 0]]]}, 1)
    for seed in range(3):
        x, y = random_unit(1, seed), random_unit(1, seed + 10)
        km = toeplitz_kernel(b, f, x, y)
        # K(x, w) f(w) K(w, y), with K(w, y) the conjugate of K(y, w)
        ki, _ = mc_sphere_integral(
            lambda Z: szego_eval(b, x, Z) * f(Z) * szego_eval(b, y, Z).conj(),
            1, MC_SAMPLES, MC_SEED,
        )
        scale = max(abs(km), 1e-3)
        assert abs(km - ki) <= 0.05 * scale  # Monte Carlo route tolerance


def test_unit_observable_kernel_is_projector_kernel():
    ws = level_weight_system(1)
    b = build_basis(ws, [], [1], 6)
    one = RadialPolynomial.constant(1.0, 1)
    for seed in range(5):
        x, y = random_unit(1, seed), random_unit(1, seed + 21)
        lhs = toeplitz_kernel(b, one, x, y)
        rhs = szego_eval(b, x, y)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_trace_equals_dim_for_unit_observable():
    ws = level_weight_system(2)
    b = build_basis(ws, [], [1], 3)
    one = RadialPolynomial.constant(1.0, 2)
    M, _ = toeplitz_matrix(b, one)
    assert toeplitz_trace(M) == float(b.dim)


def test_prediction_linear_in_constant():
    quad = locus_sample(WS1, [1], 8, seed=0)
    one = RadialPolynomial.constant(1.0, 1)
    three = RadialPolynomial.constant(3.0, 1)
    p1v, _ = trace_prediction(WS1, one, quad)
    p3v, _ = trace_prediction(WS1, three, quad)
    assert abs(p3v - 3.0 * p1v) < 1e-12


def test_trace_sequence_and_prediction_worked_example():
    f = parse_f_spec({"radial": [[1.0, [1, 1]]]}, 1)
    traces = {}
    for b_par in (100, 150, 199, 200):
        k = 3 * b_par + 1
        basis = build_basis(WS1, [1], [1], k)
        M, _ = toeplitz_matrix(basis, f)
        traces[b_par] = toeplitz_trace(M)
        # exact closed form (b+1) / (2 (2b+3))
        expected = (b_par + 1) / (2.0 * (2 * b_par + 3))
        assert abs(traces[b_par] - expected) < 1e-13
    assert abs(traces[200] - traces[199]) < 0.01 * traces[200]
    quad = locus_sample(WS1, [1], 8, seed=0)
    pred, err = trace_prediction(WS1, f, quad)
    assert abs(pred - np.pi / 6.0) < 1e-9  # (1/4) * (2/3) * pi
    assert err < 1e-12
    # admissible-class limit 1/4; Cesaro over classes 1/12 = pred/(2 pi)
    assert abs(traces[200] / 3.0 - pred / (2 * np.pi)) < 2e-3


@pytest.mark.parametrize("system", ["transversal", "level", "p1"])
def test_trace_prediction_matches_per_node_loop(system):
    ws, nu_T, f = {
        "transversal": (WS_TRANSVERSAL, [1],
                        parse_f_spec({"radial": [[1, [1, 1, 0, 0]], [0.5, [0, 0, 1, 0]]]}, 3)),
        "level": (level_weight_system(2), [1], RadialPolynomial.constant(1.0, 2)),
        "p1": (WS1, [1], parse_f_spec({"radial": [[1.0, [1, 1]]]}, 1)),
    }[system]
    quad = locus_sample(ws, nu_T, 64, seed=1)
    vals, wts = [], []
    for z, w in zip(*quad):  # the integrand one node at a time, through frames
        pt = SpherePoint(z)
        phi = float(np.linalg.norm(moment(ws, pt).phi_T))
        D = locus_data(ws, frame_at(pt), nu_T).D
        vals.append(f.value_at(pt) * phi ** (-(ws.n + 2 - ws.d_P)) / D)
        wts.append(w)
    vals, wts = np.asarray(vals), np.asarray(wts)
    pref = 1.0 / (2.0 * np.pi) ** (ws.d_T - 1)
    est = pref * float(wts @ vals)
    err = pref * float(np.std(vals, ddof=1) / np.sqrt(len(vals)) * wts.sum()) if len(vals) > 1 else 0.0
    got, got_err = trace_prediction(ws, f, quad)
    assert abs(got - est) <= 1e-12 * abs(est)
    assert abs(got_err - err) <= 1e-12 * abs(est)  # roundoff-sized where vals are constant


def test_near_diagonal_leading_shape():
    ld = locus_data(WS1, frame_at(X1), [1])
    lam = ld.lam
    obs = parse_f_spec({"radial": [[1.0, [1, 1]]]}, 1)
    k = 601
    t_dir = 1j * ld.Q[:, 0]
    with pytest.warns(UserWarning):  # stabilizer here is nontrivial
        v0 = toeplitz_near_diagonal_leading(ld, obs, k, 0.0 * t_dir)
    half = np.sqrt(np.log(2.0) / (2.0 * lam))
    with pytest.warns(UserWarning):
        vh = toeplitz_near_diagonal_leading(ld, obs, k, half * t_dir)
    assert abs(vh / v0 - 0.5) < 1e-12
    # f == 1 at zero displacement reproduces the projector leading value
    one = RadialPolynomial.constant(1.0, 1)
    with pytest.warns(UserWarning):
        tv = toeplitz_near_diagonal_leading(ld, one, k, 0.0 * t_dir)
    zero = TangentVectorX(0.0, np.zeros(1))
    nd = near_diagonal_leading(ld, [1], k, zero, zero)
    # same prefactor; the projector value carries the stabilizer sum
    s = abs(nd) / tv
    assert abs(s - 3.0) < 1e-9 or abs(s) < 1e-9


def test_near_diagonal_leading_no_warning_when_trivial():
    import warnings as _w

    ws = t_only_weight_system(2, [1, 2, 1])
    x = SpherePoint.from_moduli([0.25, 0.5, 0.25])
    # Phi_T = 0.25 + 1.0 + 0.25 = 1.5; locus of nu_T = 1 is all of M here
    ld = locus_data(ws, frame_at(x), [1])
    one = RadialPolynomial.constant(1.0, 2)
    with _w.catch_warnings():
        _w.simplefilter("error")
        toeplitz_near_diagonal_leading(ld, one, 100, np.zeros(2))


def test_gaussian_profile_of_exact_operator_kernel():
    # the exact operator diagonal around a locus point follows the
    # predicted transversal Gaussian with lambda = 2/3 (character class 0)
    f = parse_f_spec({"radial": [[1.0, [1, 1]]]}, 1)
    fr = frame_at(X1)
    ld = locus_data(WS1, fr, [1])
    k = 600
    basis = build_basis(WS1, [0], [1], k)
    M, _ = toeplitz_matrix(basis, f)
    diag = np.diag(M).real
    base = float(np.sum(diag * np.exp(2.0 * log_sections(basis, X1)[0])))
    t_dir = 1j * ld.Q[:, 0]
    sk = np.sqrt(float(k))
    for t in (0.5, 1.0, 1.5):
        y = chart_point(fr, 0.0, t * t_dir / sk)
        val = float(np.sum(diag * np.exp(2.0 * log_sections(basis, y)[0])))
        pred = np.exp(-2.0 * ld.lam * t * t)
        assert abs(val / base - pred) <= 0.03 * pred
