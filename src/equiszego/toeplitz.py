"""Equivariant Berezin-Toeplitz operators on one isotype.

The operator compresses multiplication by a function f to the isotype: its
matrix in the monomial basis is M[i,j] = <f s_j, s_i> (so that f == 1 gives
the identity).  Observables are polynomials in the moduli-squared
r_i = |z_i|^2, and the matrix is assembled from closed-form monomial sphere
moments: it is exactly diagonal by phase-integral orthogonality.  The Monte
Carlo Gram matrix it is checked against lives in `oracle.mc_gram`.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .actions import WeightSystem, moduli, script_D_rows
from .asymptotics import LocusData, _leading_scale
from .errors import AssumptionViolation, ConfigError, config_integer, config_real
from .geometry import SpherePoint
from .hardy import IsotypeBasis, log_coefficient, log_sections


# ---------------------------------------------------------------------------
# observables: polynomials in the moduli-squared
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialPolynomial:
    """f = sum of c * prod_i r_i^{alpha_i} with integer exponents alpha."""

    terms: tuple  # ((coeff, alpha-tuple), ...)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        r = moduli(np.atleast_2d(z))
        out = np.zeros(r.shape[0])
        for c, alpha in self.terms:
            out += c * np.prod(r ** np.asarray(alpha, dtype=float), axis=1)
        return out

    def value_at(self, x: SpherePoint) -> float:
        return float(self(x.z[None, :])[0])

    @staticmethod
    def constant(c: float, n: int) -> "RadialPolynomial":
        return RadialPolynomial(terms=((float(c), (0,) * (n + 1)),))


def parse_f_spec(spec, n: int) -> RadialPolynomial:
    """Observable from a config entry: {"constant": c} or
    {"radial": [[c, [a_0, ..., a_n]], ...]}."""
    if spec is None:
        return RadialPolynomial.constant(1.0, n)
    if isinstance(spec, (int, float)):
        return RadialPolynomial.constant(config_real(spec, "f"), n)
    if isinstance(spec, dict) and "constant" in spec:
        return RadialPolynomial.constant(config_real(spec["constant"], "f"), n)
    if isinstance(spec, dict) and "radial" in spec:
        try:
            terms = [
                (config_real(c, "f"), tuple(config_integer(a, "f") for a in alpha))
                for c, alpha in spec["radial"]
            ]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed radial observable {spec['radial']!r}: {exc}") from exc
        for _, alpha in terms:
            if len(alpha) != n + 1 or any(a < 0 for a in alpha):
                raise ConfigError(f"bad radial exponent vector {alpha}")
        return RadialPolynomial(terms=tuple(terms))
    raise ConfigError(f"unrecognized observable spec: {spec!r}")


# ---------------------------------------------------------------------------
# matrix, kernel, trace
# ---------------------------------------------------------------------------

def _dirichlet_diagonal(b: IsotypeBasis, f: RadialPolynomial) -> np.ndarray:
    """<f s_J, s_J> for every basis row J: per term c r^alpha, c c_J /
    c_{J+alpha}, since r^alpha |s_J|^2 = (c_J / c_{J+alpha}) |s_{J+alpha}|^2
    and every section has unit norm (c: the squared normalizations)."""
    if not isinstance(f, RadialPolynomial):
        raise TypeError(f"f must be a RadialPolynomial, got {type(f).__name__}")
    diag = np.zeros(b.dim)
    for c, alpha in f.terms:
        diag += c * np.exp(b.log_c - log_coefficient(b.J_matrix + np.asarray(alpha), b.n))
    return diag


def _sparse_resident_zeros(dim: int) -> np.ndarray:
    """Writable C-contiguous (dim, dim) complex zeros on an anonymous
    mapping kept off transparent huge pages, so that only the 4 KB pages
    actually written become resident (numpy's own allocator hints huge
    pages, and one write then zero-fills a whole 2 MB page)."""
    import mmap  # only here: runs that build no Toeplitz matrix never load it

    if dim == 0:
        return np.zeros((0, 0), dtype=complex)
    buf = mmap.mmap(-1, 16 * dim * dim)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        try:
            buf.madvise(mmap.MADV_NOHUGEPAGE)
        except OSError:  # only a hint: kernels built without THP refuse it
            pass
    return np.frombuffer(buf, dtype=complex).reshape(dim, dim)


def toeplitz_matrix(b: IsotypeBasis, f: RadialPolynomial):
    """Matrix of the compressed multiplication operator in the monomial
    basis, from the closed-form sphere moments.  Returns (matrix,
    stderr_matrix); the error matrix is zero, the assembly being exact.
    Of the dense matrix, only the pages its diagonal touches are resident.
    Raises AssumptionViolation when the matrices cannot be allocated."""
    # dense, though diagonal: callers index and trace it as a matrix
    try:
        M = _sparse_resident_zeros(b.dim)
        err = np.zeros((b.dim, b.dim))
    except (MemoryError, OSError) as exc:
        raise AssumptionViolation(
            f"the dim {b.dim} Toeplitz matrix needs {16 * b.dim**2:,} bytes, "
            f"which cannot be allocated ({exc})"
        ) from exc
    np.fill_diagonal(M, _dirichlet_diagonal(b, f))
    return M, err


def toeplitz_kernel(b: IsotypeBasis, f: RadialPolynomial, x: SpherePoint, y: SpherePoint) -> complex:
    """Operator kernel sum_i s_i(x) d_i conj(s_i(y)) at (x, y), with d the
    diagonal of toeplitz_matrix."""
    d = _dirichlet_diagonal(b, f)
    lx, px = log_sections(b, x)
    ly, py = log_sections(b, y)
    return complex(np.vdot(np.exp(ly + 1j * py), d * np.exp(lx + 1j * px)))


def toeplitz_trace(M: np.ndarray) -> float:
    return float(np.trace(M).real)


def trace_prediction(ws: WeightSystem, f: RadialPolynomial, quadrature) -> tuple[float, float]:
    """Limit constant of (pi/(||nu_T|| k))^{d_M-d_P+1} tr T[f]:

        (d_nu^2/(2 pi)^{d_T-1}) *
        integral over the bundle locus of f ||Phi_T||^{-(d_M+2-d_P)} / D.

    For invariant f the bundle-locus integral against the bundle volume
    equals the base-locus integral (unit-length fibers after the 1/(2 pi)
    normalization), so base quadrature nodes are used directly: the
    quadrature is the (Z, w) of `actions.locus_sample`.  With f = 1
    it is the constant C of dim ~ C (||nu_T|| k / pi)^{d_M-d_P+1}.  Returns
    (value, quadrature error bar).
    """
    d_M, d_P, d_T = ws.n, ws.d_P, ws.d_T
    Z, wts = quadrature
    phi = np.linalg.norm(moduli(Z) @ ws.W_T.T, axis=1)
    vals = f(Z) * phi ** (-(d_M + 2 - d_P)) / script_D_rows(ws, Z)
    pref = 1.0 / (2.0 * np.pi) ** (d_T - 1)
    est = pref * float(wts @ vals)
    if len(vals) > 1:
        err = pref * float(np.std(vals, ddof=1) / np.sqrt(len(vals)) * wts.sum())
    else:
        err = 0.0
    return est, err


def toeplitz_near_diagonal_leading(ld: LocusData, f: RadialPolynomial, k: int, n1) -> float:
    """Predicted near-diagonal operator kernel value at displacement n1
    (a C^n vector in frame coordinates, normal to the orbit) from the locus
    point of `ld`:

        pref * (k ||nu||/pi)^{d_M - d_P/2 + 1/2} f(m) e^{-2 lambda ||t1||^2}

    with t1 the transversal part of n1.  The statement assumes a trivial
    stabilizer; a nontrivial one only triggers a warning here.
    """
    if len(ld.stab) > 1:
        warnings.warn(
            f"stabilizer has order {len(ld.stab)} > 1; the near-diagonal "
            "operator law assumes it is trivial",
            stacklevel=2,
        )
    t1 = ld.split(n1)[2]
    gauss = np.exp(-2.0 * ld.lam * float(np.vdot(t1, t1).real))
    return float(_leading_scale(ld, k) * f.value_at(ld.frame.x) * gauss)
