"""Monomial bases of the joint isotypes.

A monomial z^J lies in the (nu_G, k nu_T) isotype exactly when the integer
system  W_G J = nu_G,  W_T J = k nu_T,  J >= 0  holds.  The positivity
invariant of the weight system (0 outside the hull of the T-columns) makes
the solution set finite and yields per-coordinate enumeration bounds through
the weight system's integer functional psi, the primitive integer multiple
of the exact LP solution phi, so every psi . w_i is a positive integer by
construction and no rounding is involved.

All constraint arithmetic, the enumeration caps included, is exact integer
arithmetic, refused up front where int64 could overflow; floating point
enters only through the log-domain normalization coefficients.  The last two
coordinates of each prefix form one residue-class progression, so a count
sums progression lengths and a listing holds only solutions.

`log_moduli` gives each normalized section's log-modulus from exponents cast
to float once per basis; `log_sections` adds phases, for off-diagonal kernels.
"""

import functools
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
    top = int(x.view(np.uint64).max(initial=0))  # a negative x reads as >= 2^63
    if top < _LOG_FACTORIAL_CAP:
        return _LOG_FACTORIAL[x]
    if top >= 1 << 63:
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
    # one column at a time: no (N, n+1) float table, the same sum in order
    cols = [J[..., i] for i in range(J.shape[-1])]
    log_J = sum(_log_factorial(col) for col in cols)
    out = _log_factorial(sum(cols) + n) - n * math.log(math.pi) - log_J
    return float(out) if out.ndim == 0 else out


# Bound on the values one sweep chunk expands to: larger chunks are no faster,
# and their freed temporaries can stay resident, raising a later peak RSS.
_BLOCK_ROWS = 1 << 14

# A listed row costs ~80 bytes at n = 3 until its normalization is known (a
# ~0.8 GB peak here), so more are refused before the rows past this exist.
MAX_BASIS_ROWS = 10**7

# Section values of S points on a dim-row basis, ~8 bytes each per array: more
# are refused before any exists, and two points on a listable basis are not.
MAX_SECTION_ENTRIES = 2 * MAX_BASIS_ROWS


def _value_range(R, B, col, cap, lo, hi, gap):
    """First value and number of values v of one coordinate that each prefix
    row can take, for the residuals R and positivity budgets B of the rows.

    v runs over 0 <= v <= cap with v * gap within the row's budget B, such
    that each residual R_r - v col_r still lies in the range [lo_r, hi_r]
    the coordinates after this one can reach.  A value outside that range
    cannot be completed, so the sweep skips it.
    """
    first, last = np.zeros(B.shape, np.int64), np.minimum(B // gap, cap)
    for r, c in enumerate(col.tolist()):
        x = R[:, r]  # v * c must lie in [x - hi_r, x - lo_r]
        if c > 0:  # ceil(y / c) = (y + c - 1) // c
            first = np.maximum(first, (x + (c - 1 - hi[r])) // c)
            last = np.minimum(last, (x - lo[r]) // c)
        elif c < 0:  # ceil(y / c) = (y + c + 1) // c
            first = np.maximum(first, (x + (c + 1 - lo[r])) // c)
            last = np.minimum(last, (x - hi[r]) // c)
        else:
            last[(x > hi[r]) | (x < lo[r])] = -1
    return first, np.maximum(last - first + 1, 0)


def _chunks(first, reps, step):
    """The values v = first + step t, 0 <= t < reps, of all rows in order, in
    runs of at most _BLOCK_ROWS: yields (rows, v), rows indexing v's row."""
    ends = np.cumsum(reps)
    origin = first - step * (ends - reps)  # v = origin[row] + step * (v's place in all values)
    total = int(ends[-1])
    for base in range(0, total, _BLOCK_ROWS):
        top = min(base + _BLOCK_ROWS, total)
        s, e = np.searchsorted(ends, (base, top - 1), side="right").tolist()
        r = np.minimum(ends[s:e + 1], top) - np.maximum(ends[s:e + 1] - reps[s:e + 1], base)
        rows = np.repeat(np.arange(s, e + 1), r)
        yield rows, origin[rows] + step * np.arange(base, top)


def _progression(R, first, reps, a, cap, b):
    """The values v of the second-to-last coordinate (column a, cap cap) in
    each row's window [first, first + reps) that the last one (column b)
    completes, v = first' + step t for t < count, by u = (R_p - v a_p) / b_p:
    returns (p, first', count, step).  With p the first nonzero row of b,
    v a + u b = R iff row p holds and v E = D, for E = a b_p - b a_p and
    D = R b_p - R_p b.  Row p holds on one residue class of v modulo
    |b_p| / gcd(a_p, b_p); E = 0 (a parallel to b) keeps all of it, E != 0
    at most v = D_q / E_q.  The window keeps u within [0, cap_b]."""
    a, b = a.tolist(), b.tolist()
    p = next(i for i, c in enumerate(b) if c)  # T-columns are nonzero by positivity
    g = math.gcd(a[p], b[p])
    step = abs(b[p]) // g
    E = [x * b[p] - y * a[p] for x, y in zip(a, b)]
    last, v, ok = first + reps - 1, 0, R[:, p] % g == 0
    if any(E):  # a value clipped into [0, cap] fails v E = D below
        q = next(i for i, e in enumerate(E) if e)
        v = np.clip((R[:, q] * b[p] - R[:, p] * b[q]) // E[q], 0, cap)
        first, last = np.maximum(first, v), np.minimum(last, v)
    for i, e in enumerate(E):
        if i != p:
            ok &= R[:, i] * b[p] - R[:, p] * b[i] == v * e
    first = first + (R[:, p] // g * pow(a[p] // g, -1, step) - first) % step
    return p, first, np.where(ok, np.maximum((last - first) // step + 1, 0), 0), step


def _sweep(P, R, B, levels, blocks, done=0):
    """Extend the prefix rows P, with residual targets R and positivity
    budgets B = psi . R_T, by every value of the (two or more) coordinates in
    levels, (col, cap, lo, hi, gap) each, that can still be completed, depth
    first; append the completed rows to blocks in lexicographic order and
    return done plus their number.  With P None no row is listed.  The last
    two coordinates are one progression per row (_progression), expanded
    only to list it; a listing past MAX_BASIS_ROWS raises AssumptionViolation.
    """
    col, cap, lo, hi, gap = levels[0]
    first, reps = _value_range(R, B, col, cap, lo, hi, gap)
    if len(levels) > 2:
        for rows, v in _chunks(first, reps, 1):
            done = _sweep(None if P is None else np.column_stack([P[rows], v]),
                          R[rows] - v[:, None] * col, B[rows] - v * gap, levels[1:], blocks, done)
        return done
    b = levels[1][0]
    p, first, count, step = _progression(R, first, reps, col, cap, b)
    done += int(count.sum())
    if P is not None:
        if done > MAX_BASIS_ROWS:
            raise AssumptionViolation(f"the basis has more than {MAX_BASIS_ROWS} rows to list")
        for rows, v in _chunks(first, count, step):
            blocks.append(np.column_stack([P[rows], v, (R[rows, p] - v * col[p]) // b[p]]))
    return done


def _enumerate(ws: WeightSystem, nu_G, nu_T, k: int, rows: bool):
    """The isotype's exponent vectors (rows True) or their number (rows
    False), from one interval-pruned sweep; see enumerate_isotype."""
    nu_G = tuple(map(int, np.atleast_1d(nu_G).tolist())) if ws.d_G else ()
    nu_T = tuple(map(int, np.atleast_1d(nu_T).tolist()))
    if len(nu_G) != ws.d_G or len(nu_T) != ws.d_T:
        raise ValueError("character lengths must match the weight system")
    m = ws.n + 1
    target = nu_G + tuple(k * v for v in nu_T)
    # psi^T W_T J = psi . target_T with psi . w_i = gap_i >= 1 caps each J_i
    # at (psi . target_T) // gap_i, exactly, in integers
    psi = ws.integer_functional
    cols = list(zip(*ws.W_P.tolist()))
    gaps = [sum(p * w for p, w in zip(psi, col[ws.d_G:])) for col in cols]
    budget = sum(p * t for p, t in zip(psi, target[ws.d_G:]))
    if budget < 0:
        return np.zeros((0, m), dtype=np.int64) if rows else 0
    caps = [budget // g for g in gaps]
    col_max = [max(map(abs, col)) for col in cols]
    reach = max(map(abs, target)) + sum(c * w for c, w in zip(caps, col_max))
    # residuals and their distances to [lo, hi] stay within 2 reach + c, the
    # last step's products within 2 c max(c, reach), c = max(col_max), budgets
    # in [0, budget]
    if max(2 * max(col_max) * max(reach, *col_max), budget, *gaps) >= 2**63:
        raise AssumptionViolation(
            f"isotype at k={k} exceeds int64 enumeration range (|residual| <= {reach})"
        )
    lead = int(ws.n == 0)  # the last step pairs a lone coordinate with a 0
    cols, caps, gaps = [(0,) * ws.d_P] * lead + cols, [0] * lead + caps, [1] * lead + gaps
    # lo[i] and hi[i]: the least and greatest value of each row of
    # W[:, i+1:] J[i+1:] over 0 <= J_j <= caps_j
    lo, hi = [[0] * ws.d_P], [[0] * ws.d_P]
    for col, cap in zip(cols[:0:-1], caps[:0:-1]):
        lo.insert(0, [s + min(w * cap, 0) for s, w in zip(lo[0], col)])
        hi.insert(0, [s + max(w * cap, 0) for s, w in zip(hi[0], col)])
    levels = list(zip(np.array(cols, dtype=np.int64), caps, lo, hi, gaps))
    blocks = [np.zeros((0, m + lead), dtype=np.int64)]
    P = np.zeros((1, 0), dtype=np.int64) if rows else None
    R, B = np.array([target], dtype=np.int64), np.array([budget], dtype=np.int64)
    done = _sweep(P, R, B, levels, blocks)
    return np.concatenate([b[:, lead:] for b in blocks]) if rows else done


def enumerate_isotype(ws: WeightSystem, nu_G, nu_T, k: int) -> np.ndarray:
    """All exponent vectors of the (nu_G, k nu_T) isotype, as an (N, n+1)
    int64 array with rows in lexicographic order.

    Coordinates 0..n-2 are swept, each over the values its prefix can still
    complete: within the coordinate's integer cap, within the positivity
    budget the prefix leaves, and leaving a residual that the later
    coordinates can reach within their caps.  The last two coordinates are
    one residue-class progression per prefix, solved in exact integers on
    every row of W_P, and only its solutions are listed.  Raises
    AssumptionViolation when the int64 arithmetic could overflow or the
    basis has more than MAX_BASIS_ROWS rows.
    """
    return _enumerate(ws, nu_G, nu_T, k, rows=True)


@dataclass(frozen=True, eq=False)
class IsotypeBasis:
    """Orthonormal monomial basis of one joint isotype.

    J_matrix: read-only (dim, n+1) int64 exponents, rows in lexicographic
    order (J_float_T: its read-only float transpose, cast once); log_c:
    read-only (dim,) log of each row's squared normalization (log_coefficient).
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

    @functools.cached_property
    def J_float_T(self) -> np.ndarray:
        JT = np.ascontiguousarray(self.J_matrix.T, dtype=float)
        JT.setflags(write=False)
        return JT

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
    enumerate_isotype without listing rows: residuals and budgets are
    expanded to coordinate n-2, and the progression lengths of the last two
    coordinates summed.  Raises AssumptionViolation where enumerate_isotype
    could overflow int64; the count has no row limit."""
    return _enumerate(ws, nu_G, nu_T, k, rows=False)


def log_moduli(b: IsotypeBasis, Z):
    """log|s_J(z)| = log_c/2 + J . log|z| of every normalized section s_J,
    exactly -inf where a zero coordinate meets a positive exponent: a (dim,)
    array at one point Z (a SpherePoint or an (n+1,) vector), (S, dim) at the
    rows of an (S, n+1) array.  Raises AssumptionViolation when S * dim
    passes MAX_SECTION_ENTRIES."""
    Z = np.asarray(getattr(Z, "z", Z), dtype=complex)
    rows = np.atleast_2d(Z)
    if rows.shape[0] * b.dim > MAX_SECTION_ENTRIES:
        raise AssumptionViolation(f"{rows.shape[0]} points on a basis of {b.dim} rows "
                                  f"pass the limit of {MAX_SECTION_ENTRIES} section values")
    mods = np.abs(rows)
    zero = mods == 0.0
    logmag = np.log(np.where(zero, 1.0, mods)) @ b.J_float_T
    logmag += 0.5 * b.log_c
    if zero.any():
        logmag[zero @ (b.J_float_T > 0)] = -np.inf
    return logmag[0] if Z.ndim == 1 else logmag


def log_sections(b: IsotypeBasis, Z):
    """(log_moduli(b, Z), J . arg z): the log-modulus and phase of every
    normalized section, so that s_J(z) = exp(logmag + i phase)."""
    return log_moduli(b, Z), np.angle(getattr(Z, "z", Z)) @ b.J_float_T
