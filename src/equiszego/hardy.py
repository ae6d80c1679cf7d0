"""Monomial bases of the joint isotypes.

A monomial z^J lies in the (nu_G, k nu_T) isotype exactly when the integer
system  W_G J = nu_G,  W_T J = k nu_T,  J >= 0  holds.  The positivity
invariant of the weight system (0 outside the hull of the T-columns) makes
the solution set finite and yields per-coordinate enumeration bounds through
a strictly positive functional.

All constraint arithmetic is exact int64 arithmetic, refused up front where
it could overflow; floating point enters only through the enumeration caps
(with a 1e-9 margin) and the log-domain normalization coefficients.

`log_sections` evaluates every normalized section of a basis in the log
domain; every kernel and section value of the package is contracted from it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .actions import WeightSystem
from .errors import AssumptionViolation


def log_coefficient(J, n: int):
    """log of (|J|+n)! / (pi^n J!), the squared normalization of the
    monomial section z^J on the sphere bundle.

    J is one exponent vector (returns a float) or an (N, n+1) array of them
    (returns an (N,) array).  Raises ValueError on a negative exponent.
    """
    from scipy.special import gammaln

    J = np.asarray(J, dtype=np.int64)
    if J.size and J.min() < 0:
        raise ValueError(f"exponent vectors must be nonnegative, got {J.tolist()}")
    out = (
        gammaln(J.sum(axis=-1) + n + 1)
        - n * math.log(math.pi)
        - gammaln(J + 1).sum(axis=-1)
    )
    return float(out) if out.ndim == 0 else out


def _coordinate_bounds(ws: WeightSystem, target_T) -> list[int]:
    """Rigorous per-coordinate caps: phi^T W_T J = phi . target with
    phi . column_i >= gap_i > 0 forces J_i <= (phi . target) / gap_i."""
    phi = ws.positive_functional
    gaps = phi @ ws.W_T
    budget = float(phi @ np.asarray(target_T, dtype=float))
    if budget < -1e-9:
        return [-1] * (ws.n + 1)  # infeasible
    return [int(math.floor(budget / g + 1e-9)) for g in gaps]


# Bound on the prefix rows one sweep block may hold (leading-coordinate
# values are grouped so that no block can exceed it).  Larger blocks are no
# faster, and their freed temporaries can stay resident in the allocator,
# raising the peak RSS of whatever runs after the enumeration.
_BLOCK_ROWS = 1 << 14


def _append_coordinate(P, R, col, cap, phi, gap, d_G):
    """Extend every prefix row of P by v = 0..cap_row on the next coordinate.

    R holds the residual target of each row; cap_row is the coordinate cap
    tightened by the positivity budget phi . R_T left by the prefix, and
    rows with a negative budget are dropped.  Row order stays lexicographic.
    """
    budget = R[:, d_G:] @ phi
    keep = budget >= -1e-9
    P, R, budget = P[keep], R[keep], budget[keep]
    reps = np.minimum(cap, np.floor(budget / gap + 1e-9)).astype(np.int64) + 1
    rows = np.repeat(np.arange(P.shape[0]), reps)
    v = np.arange(rows.shape[0], dtype=np.int64) - np.repeat(np.cumsum(reps) - reps, reps)
    return np.column_stack([P[rows], v]), R[rows] - v[:, None] * col


def _solve_last(P, R, col, cap):
    """Complete each prefix row by the unique v with v * col == R, if any."""
    p = int(np.flatnonzero(col)[0])  # T-columns are nonzero by positivity
    v = R[:, p] // col[p]
    ok = (v >= 0) & (v <= cap) & np.all(R == v[:, None] * col, axis=1)
    return np.column_stack([P[ok], v[ok]])


def enumerate_isotype(ws: WeightSystem, nu_G, nu_T, k: int) -> np.ndarray:
    """All exponent vectors of the (nu_G, k nu_T) isotype, as an (N, n+1)
    int64 array with rows in lexicographic order.

    Coordinates 0..n-1 are swept as ragged integer ranges, each capped by
    the positivity budget its prefix leaves; the last coordinate is solved
    by exact integer division and checked on every row of W_P.  Raises
    AssumptionViolation when the int64 arithmetic could overflow.
    """
    nu_G = tuple(int(v) for v in np.atleast_1d(nu_G)) if ws.d_G else ()
    nu_T = tuple(int(v) for v in np.atleast_1d(nu_T))
    if len(nu_G) != ws.d_G or len(nu_T) != ws.d_T:
        raise ValueError("character lengths must match the weight system")
    m = ws.n + 1
    target = nu_G + tuple(k * v for v in nu_T)
    caps = _coordinate_bounds(ws, target[ws.d_G:])
    if any(c < 0 for c in caps):
        return np.zeros((0, m), dtype=np.int64)
    W = ws.W_P
    col_max = [int(w) for w in np.abs(W).max(axis=0)]
    reach = max(abs(t) for t in target) + sum(c * w for c, w in zip(caps, col_max))
    if reach * max(col_max) > np.iinfo(np.int64).max:
        raise AssumptionViolation(
            f"isotype at k={k} exceeds int64 enumeration range (|residual| <= {reach})"
        )
    phi = ws.positive_functional
    gaps = phi @ ws.W_T
    P = np.zeros((1, 0), dtype=np.int64)
    R = np.array([target], dtype=np.int64)
    if m > 1:
        P, R = _append_coordinate(P, R, W[:, 0], caps[0], phi, gaps[0], ws.d_G)
    step = max(1, _BLOCK_ROWS // math.prod(c + 1 for c in caps[1:m - 1]))
    blocks = [np.zeros((0, m), dtype=np.int64)]
    for s in range(0, P.shape[0], step):
        Pb, Rb = P[s:s + step], R[s:s + step]
        for i in range(1, m - 1):
            Pb, Rb = _append_coordinate(Pb, Rb, W[:, i], caps[i], phi, gaps[i], ws.d_G)
        blocks.append(_solve_last(Pb, Rb, W[:, m - 1], caps[m - 1]))
    return np.concatenate(blocks)


@dataclass(frozen=True, eq=False)
class IsotypeBasis:
    """Orthonormal monomial basis of one joint isotype.

    J_matrix: read-only (dim, n+1) int64 exponents, rows in lexicographic
    order; log_c: read-only (dim,) log of each row's squared normalization
    (see log_coefficient).
    """

    ws: WeightSystem
    nu_G: tuple
    nu_T: tuple
    k: int
    J_matrix: np.ndarray
    log_c: np.ndarray

    @property
    def dim(self) -> int:
        return self.J_matrix.shape[0]

    @property
    def n(self) -> int:
        return self.ws.n

    @property
    def entries(self) -> tuple:
        """(J tuple, log_c) pairs in row order, built on each access."""
        return tuple(zip(map(tuple, self.J_matrix.tolist()), self.log_c.tolist()))

    def dump_lines(self):
        """One line per entry, 'J... log_c' (the documented dump format)."""
        return [
            " ".join(map(str, J)) + f" {lc:.17g}"
            for J, lc in zip(self.J_matrix.tolist(), self.log_c.tolist())
        ]


def build_basis(ws: WeightSystem, nu_G, nu_T, k: int) -> IsotypeBasis:
    """Enumerate the isotype and attach normalization coefficients."""
    J = enumerate_isotype(ws, nu_G, nu_T, k)
    log_c = log_coefficient(J, ws.n)
    J.setflags(write=False)
    log_c.setflags(write=False)
    return IsotypeBasis(
        ws=ws,
        nu_G=tuple(int(v) for v in np.atleast_1d(nu_G)) if ws.d_G else (),
        nu_T=tuple(int(v) for v in np.atleast_1d(nu_T)),
        k=int(k),
        J_matrix=J,
        log_c=log_c,
    )


def dim_isotype(ws: WeightSystem, nu_G, nu_T, k: int) -> int:
    return enumerate_isotype(ws, nu_G, nu_T, k).shape[0]


def log_sections(b: IsotypeBasis, Z):
    """Log-modulus and phase of every normalized section s_J = sqrt(c_J) z^J.

    Z is one point (a SpherePoint or an (n+1,) vector; returns two (dim,)
    arrays) or an (S, n+1) array of rows (returns two (S, dim) arrays):
    logmag = log_c/2 + J . log|z| and phase = J . arg z, so that
    s_J(z) = exp(logmag + i phase).  logmag is exactly -inf where a zero
    coordinate meets a positive exponent.
    """
    Z = np.asarray(getattr(Z, "z", Z), dtype=complex)
    rows = np.atleast_2d(Z)
    mods = np.abs(rows)
    zero = mods == 0.0
    # log|z| and arg z of every row in one product with the exponents.  A
    # float product casts int64 exponents on every call anyway; casting the
    # row-major matrix is faster than letting matmul cast its transpose.
    L = np.concatenate([np.log(np.where(zero, 1.0, mods)), np.angle(rows)])
    L = L @ b.J_matrix.astype(float).T
    S = rows.shape[0]
    logmag, phase = L[:S], L[S:]
    logmag += 0.5 * b.log_c
    if zero.any():
        logmag[zero @ (b.J_matrix > 0).T] = -np.inf
    return (logmag[0], phase[0]) if Z.ndim == 1 else (logmag, phase)
