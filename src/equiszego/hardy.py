"""Monomial bases of the joint isotypes.

A monomial z^J lies in the (nu_G, k nu_T) isotype exactly when the integer
system  W_G J = nu_G,  W_T J = k nu_T,  J >= 0  holds.  The positivity
invariant of the weight system (0 outside the hull of the T-columns) makes
the solution set finite and yields per-coordinate enumeration bounds through
a strictly positive functional.

All constraint arithmetic, the enumeration caps included, is exact integer
arithmetic, refused up front where int64 could overflow; floating point
enters only through the log-domain normalization coefficients.

`log_sections` evaluates every normalized section of a basis in the log
domain; every kernel and section value of the package is contracted from it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .actions import WeightSystem
from .errors import AssumptionViolation


_LOG_FACTORIAL_CAP = 4096
_LOG_FACTORIAL = np.array([math.lgamma(x + 1) for x in range(_LOG_FACTORIAL_CAP)])


def _log_factorial(x) -> np.ndarray:
    """log(x!) for an integer array x >= 0, as a float64 array of its shape.

    A table below _LOG_FACTORIAL_CAP and the Stirling series above it, whose
    first omitted term, 1/(1260 x^5), is below 1e-21 there: memory does not
    grow with x.  Raises ValueError on a negative argument.
    """
    x = np.asarray(x, dtype=np.int64)
    if x.size == 0 or (x.min() >= 0 and x.max() < _LOG_FACTORIAL_CAP):
        return _LOG_FACTORIAL[x]
    if x.min() < 0:
        raise ValueError("log-factorial of a negative integer")
    flat = x.ravel()
    out = _LOG_FACTORIAL[np.minimum(flat, _LOG_FACTORIAL_CAP - 1)]
    big = flat >= _LOG_FACTORIAL_CAP
    v = flat[big].astype(np.float64)
    r = 1.0 / (v * v)
    out[big] = (v * (np.log(v) - 1.0) + 0.5 * np.log(2.0 * math.pi * v)
                + (1.0 / 12.0 - r / 360.0) / v)
    return out.reshape(x.shape)


def log_coefficient(J, n: int):
    """log of (|J|+n)! / (pi^n J!), the squared normalization of the
    monomial section z^J on the sphere bundle.

    J is one exponent vector (returns a float) or an (N, n+1) array of them
    (returns an (N,) array).  Raises ValueError on a negative exponent.
    """
    J = np.asarray(J, dtype=np.int64)
    if J.size and J.min() < 0:
        raise ValueError(f"exponent vectors must be nonnegative, got {J.tolist()}")
    out = (
        _log_factorial(J.sum(axis=-1) + n)
        - n * math.log(math.pi)
        - _log_factorial(J).sum(axis=-1)
    )
    return float(out) if out.ndim == 0 else out


def _integer_functional(ws: WeightSystem) -> list[int]:
    """Integer psi with psi . w_i >= 1 for every T-column w_i.

    The LP functional phi (phi . w_i >= 1) is scaled by D = 2 max_i |w_i|_1
    and rounded: rounding moves psi . w_i from D phi . w_i >= D by at most
    |w_i|_1 / 2 <= D / 4, so every pairing stays a positive integer and psi
    stays on the scale of the weights.  Raises AssumptionViolation if the
    result is not positive on every column (phi broke its contract).
    """
    cols = ws.W_T.T.tolist()
    scale = 2 * max(sum(map(abs, col)) for col in cols)
    psi = [round(float(x) * scale) for x in ws.positive_functional]
    g = math.gcd(*psi)
    psi = [p // g for p in psi] if g > 1 else psi
    if any(sum(p * w for p, w in zip(psi, col)) < 1 for col in cols):
        raise AssumptionViolation(
            f"no integer positive functional near {ws.positive_functional.tolist()}"
        )
    return psi


# Bound on the rows one sweep chunk may expand to (a chunk is a run of
# consecutive prefix rows; one row whose values alone exceed it is a chunk of
# its own).  Larger chunks are no faster, and their freed temporaries can
# stay resident in the allocator, raising the peak RSS of whatever runs
# after the enumeration.
_BLOCK_ROWS = 1 << 14


def _value_range(R, B, col, cap, lo, hi, gap):
    """First value and number of values v of one coordinate that each prefix
    row can take, for the residuals R and positivity budgets B of the rows.

    v runs over 0 <= v <= cap with v * gap within the row's budget B, such
    that each residual R_r - v col_r still lies in the range [lo_r, hi_r]
    the coordinates after this one can reach.  A value outside that range
    cannot be completed, so the sweep skips it.
    """
    first = np.zeros(R.shape[0], dtype=np.int64)
    last = np.minimum(cap, B // gap)
    for r, c in enumerate(col.tolist()):
        a, b = R[:, r] - hi[r], R[:, r] - lo[r]  # v * c must lie in [a, b]
        if c > 0:
            first = np.maximum(first, -(-a // c))
            last = np.minimum(last, b // c)
        elif c < 0:
            first = np.maximum(first, -(-b // c))
            last = np.minimum(last, a // c)
        else:
            last[(a > 0) | (b < 0)] = -1
    return first, np.maximum(last - first + 1, 0)


def _solve_last(P, R, col, cap):
    """Complete each prefix row by the unique v with v * col == R, if any:
    the completed rows, or their number when P is None."""
    p = int(np.flatnonzero(col)[0])  # T-columns are nonzero by positivity
    v = R[:, p] // col[p]
    ok = (v >= 0) & (v <= cap) & np.all(R == v[:, None] * col, axis=1)
    if P is None:
        return int(np.count_nonzero(ok))
    return np.column_stack([P[ok], v[ok]])


def _sweep(P, R, B, levels, blocks):
    """Extend the prefix rows P, with residual targets R and positivity
    budgets B = psi . R_T, by every value of the next coordinates that can
    still be completed, depth first, and append the completed rows to blocks
    in lexicographic order.  With P None no row is carried: only R and B
    are expanded, and blocks receives the number of completed rows.

    levels holds (col, cap, lo, hi, gap) for each remaining coordinate; the
    last one is solved exactly.  The values of a level are expanded in
    chunks of consecutive prefix rows bounded by _BLOCK_ROWS.
    """
    col, cap, lo, hi, gap = levels[0]
    if len(levels) == 1:
        blocks.append(_solve_last(P, R, col, cap))
        return
    first, reps = _value_range(R, B, col, cap, lo, hi, gap)
    ends = np.cumsum(reps)
    s = 0
    while s < reps.shape[0]:
        base = int(ends[s] - reps[s])
        e = max(int(np.searchsorted(ends, base + _BLOCK_ROWS, side="right")), s + 1)
        r = reps[s:e]
        if ends[e - 1] > base:
            v = np.arange(base, int(ends[e - 1])) - np.repeat(ends[s:e] - r - first[s:e], r)
            _sweep(
                None if P is None else np.column_stack([np.repeat(P[s:e], r, axis=0), v]),
                np.repeat(R[s:e], r, axis=0) - v[:, None] * col,
                np.repeat(B[s:e], r) - v * gap,
                levels[1:],
                blocks,
            )
        s = e


def _enumerate(ws: WeightSystem, nu_G, nu_T, k: int, rows: bool):
    """The isotype's exponent vectors (rows True) or their number (rows
    False), from one interval-pruned sweep; see enumerate_isotype."""
    nu_G = tuple(int(v) for v in np.atleast_1d(nu_G)) if ws.d_G else ()
    nu_T = tuple(int(v) for v in np.atleast_1d(nu_T))
    if len(nu_G) != ws.d_G or len(nu_T) != ws.d_T:
        raise ValueError("character lengths must match the weight system")
    m = ws.n + 1
    target = nu_G + tuple(k * v for v in nu_T)
    # psi^T W_T J = psi . target_T with psi . w_i = gap_i >= 1 caps each J_i
    # at (psi . target_T) // gap_i, exactly, in integers
    psi = _integer_functional(ws)
    gaps = [sum(p * w for p, w in zip(psi, col)) for col in ws.W_T.T.tolist()]
    budget = sum(p * t for p, t in zip(psi, target[ws.d_G:]))
    if budget < 0:
        return np.zeros((0, m), dtype=np.int64) if rows else 0
    caps = [budget // g for g in gaps]
    W = ws.W_P
    col_max = [int(w) for w in np.abs(W).max(axis=0)]
    reach = max(abs(t) for t in target) + sum(c * w for c, w in zip(caps, col_max))
    # residuals and their distances to [lo, hi] stay within 2 reach; a row's
    # budget stays in [0, budget], since v * gap never exceeds what is left
    if max(reach * max(2, *col_max), budget, *gaps) > np.iinfo(np.int64).max:
        raise AssumptionViolation(
            f"isotype at k={k} exceeds int64 enumeration range (|residual| <= {reach})"
        )
    # column i of lo and hi: the least and greatest value of each row of
    # W[:, i+1:] J[i+1:] over 0 <= J_j <= caps_j
    spread = W * np.array(caps, dtype=np.int64)
    lo, hi = (
        np.cumsum(part[:, ::-1], axis=1)[:, ::-1] - part
        for part in (np.minimum(spread, 0), np.maximum(spread, 0))
    )
    levels = list(zip(W.T, caps, lo.T.tolist(), hi.T.tolist(), gaps))
    blocks = [np.zeros((0, m), dtype=np.int64)] if rows else []
    P = np.zeros((1, 0), dtype=np.int64) if rows else None
    R, B = np.array([target], dtype=np.int64), np.array([budget], dtype=np.int64)
    _sweep(P, R, B, levels, blocks)
    return np.concatenate(blocks) if rows else sum(blocks)


def enumerate_isotype(ws: WeightSystem, nu_G, nu_T, k: int) -> np.ndarray:
    """All exponent vectors of the (nu_G, k nu_T) isotype, as an (N, n+1)
    int64 array with rows in lexicographic order.

    Coordinates 0..n-1 are swept, each over the values its prefix can still
    complete: within the coordinate's integer cap, within the positivity
    budget the prefix leaves, and leaving a residual that the later
    coordinates can reach within their caps.  The last coordinate is solved
    by exact integer division and checked on every row of W_P.  Raises
    AssumptionViolation when the int64 arithmetic could overflow.
    """
    return _enumerate(ws, nu_G, nu_T, k, rows=True)


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
    """Dimension of the (nu_G, k nu_T) isotype, counted by the sweep of
    enumerate_isotype without listing rows: only residuals and budgets are
    expanded.  Raises AssumptionViolation where enumerate_isotype does."""
    return _enumerate(ws, nu_G, nu_T, k, rows=False)


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
