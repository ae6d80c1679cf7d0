"""Torus actions on the sphere bundle from integer weight matrices.

A weight system assigns to each ambient coordinate a column of integer
weights for two commuting torus actions (a "G" block held fixed at a single
character and a "T" block scaled to infinity).  The sign convention is

    z_i  |->  exp(-i <w_i, p>) z_i,

i.e. weight w acts as lambda^{-w}, which makes the moment maps weighted
averages of |z_i|^2 with positive coefficients for positive weights.

This module provides the moment maps, the concentration locus (one
memoized record per weights and nu_T, on integer hull rows) and the exact
distance to it (one certified Newton solve of a convex dual), finite
stabilizers (via an exact integer diagonal form), the Gram invariant of the
kernel evaluation map, the eta direction, and the complex basis of the
vertical/transversal splitting of tangent vectors along the locus.  Every
linear program is one exact simplex solve over Fractions in standard form
(x >= 0), memoized with what it builds (the positivity functional or the
locus record); the box LPs of the locus read its integer hull rows.  Their
rationals are read directly: feasibility, the integer positive functional
and the local freeness of the action on the locus (one exact rank test at
its interior point) are decided without a tolerance.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AssumptionViolation,
    DomainError,
    InfeasibleLocusError,
    TransversalityError,
)
from .geometry import AdaptedFrame, SpherePoint, dist_proj, moduli_rows

MEMBERSHIP_TOL = 1e-9
GRAM_SINGULAR_TOL = 1e-12
_STABILIZER_CAP = 10**6
_SAMPLE_BLOCK = 1 << 14  # locus box points evaluated at once


# ---------------------------------------------------------------------------
# weight systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSystem:
    """Integer weight matrices of the two commuting torus actions; W_P, their
    read-only stack.

    Positivity (0 outside the convex hull of the W_T columns) is one exact
    LP for a functional phi with phi . w_i >= 1 on every T-column;
    integer_functional is the primitive integer multiple psi of the exact
    phi, so that every psi . w_i is a positive integer.
    """

    n: int
    W_G: np.ndarray  # shape (d_G, n+1), d_G may be 0
    W_T: np.ndarray  # shape (d_T, n+1)

    def __post_init__(self):
        W_G = np.atleast_2d(np.asarray(self.W_G, dtype=np.int64))
        W_T = np.atleast_2d(np.asarray(self.W_T, dtype=np.int64))
        if W_G.size == 0:
            W_G = W_G.reshape(0, self.n + 1)
        if W_G.shape[1] != self.n + 1 or W_T.shape[1] != self.n + 1:
            raise ValueError("weight matrices must have n+1 columns")
        if W_T.shape[0] == 0:
            raise ValueError("the T block needs at least one weight row")
        W_P = np.vstack([W_G, W_T])
        W_P.setflags(write=False)
        object.__setattr__(self, "W_G", W_G)
        object.__setattr__(self, "W_T", W_T)
        object.__setattr__(self, "W_P", W_P)
        psi = _functionals(W_T.shape, W_T.tobytes())
        if psi is None:
            raise AssumptionViolation(
                "0 lies in the convex hull of the T-weight columns; "
                "torus isotypes would be infinite-dimensional"
            )
        object.__setattr__(self, "integer_functional", psi)

    @property
    def d_G(self) -> int:
        return self.W_G.shape[0]

    @property
    def d_T(self) -> int:
        return self.W_T.shape[0]

    @property
    def d_P(self) -> int:
        return self.d_G + self.d_T


def _simplex(c, A_ub, b_ub, A_eq, b_eq):
    """Two-phase tableau simplex over Fractions with Bland's rule (smallest
    index enters and, among tied ratios, leaves), so it terminates on
    degenerate problems and decides feasibility and optimality exactly.

    Solves min c.x subject to A_ub x <= b_ub, A_eq x = b_eq and x >= 0, with
    one slack column per A_ub row; the float64 data is read exactly with
    Fraction(float).  Returns (success, x, fun), x a tuple of Fractions;
    success is False when the LP is infeasible or unbounded.
    """
    F = Fraction
    n_x, n_ub = len(c), 0 if A_ub is None else len(A_ub)
    rows = [([F(v) for v in A_ub[i]] + [F(int(i == j)) for j in range(n_ub)], F(b_ub[i]))
            for i in range(n_ub)]  # A x + s = b, one slack per row
    for a, b in zip(A_eq if A_eq is not None else (), b_eq if b_eq is not None else ()):
        rows.append(([F(v) for v in a] + [F(0)] * n_ub, F(b)))
    N, m = n_x + n_ub, len(rows)

    # phase 1: one artificial per row (rhs made >= 0), minimize their sum
    T = []
    for i, (row, rhs) in enumerate(rows):
        if rhs < 0:
            row, rhs = [-v for v in row], -rhs
        T.append(row + [F(int(i == j)) for j in range(m)] + [rhs])
    basis = list(range(N, N + m))
    T.append([-sum((row[j] for row in T), F(0)) for j in range(N)] + [F(0)] * m
             + [-sum((row[-1] for row in T), F(0))])
    _bland(T, basis, N)
    if T[-1][-1] != 0:
        return False, None, None
    # pivot the remaining (zero-valued) artificials out; drop redundant rows
    for i in reversed(range(m)):
        if basis[i] >= N:
            j = next((j for j in range(N) if T[i][j] != 0), None)
            if j is None:
                del T[i], basis[i]
            else:
                _pivot(T, basis, i, j)
    T = [row[:N] + row[-1:] for row in T[:-1]]

    # phase 2: the objective, zero on the slacks
    c = [F(v) for v in c] + [F(0)] * n_ub
    cost = c + [F(0)]
    for row, j in zip(T, basis):
        if c[j]:
            cost = [u - c[j] * v for u, v in zip(cost, row)]
    T.append(cost)
    if not _bland(T, basis, N):
        return False, None, None
    x = [F(0)] * N
    for row, j in zip(T, basis):
        x[j] = row[-1]
    return True, tuple(x[:n_x]), sum(c_j * x_j for c_j, x_j in zip(c, x))


def _pivot(T, basis, r, j):
    """Make column j basic in row r of the tableau T (cost row last)."""
    piv = T[r][j]
    T[r] = pr = [v / piv for v in T[r]]
    for i, row in enumerate(T):
        f = row[j]
        if i != r and f:
            T[i] = [a - f * b if b else a for a, b in zip(row, pr)]
    basis[r] = j


def _bland(T, basis, N):
    """Simplex iterations on T (cost row last, reduced costs of the first N
    columns) until optimal (True) or unbounded (False)."""
    while True:
        cost = T[-1]
        j = next((j for j in range(N) if cost[j] < 0), None)
        if j is None:
            return True
        rows = [i for i in range(len(basis)) if T[i][j] > 0]
        if not rows:
            return False
        r = min(rows, key=lambda i: (T[i][-1] / T[i][j], basis[i]))
        _pivot(T, basis, r, j)


def _positive_functional(W_T: np.ndarray):
    """The exact phi (a list of Fractions) with phi . (column i) >= 1 for all
    i, or None: minimize 0 subject to -W_T^T phi <= -1, with the free phi
    split as y[0::2] - y[1::2], y >= 0, in interleaved columns."""
    A = (W_T.T[:, :, None] * np.array([-1.0, 1.0])).reshape(W_T.shape[1], -1)
    ok, y, _ = _simplex(np.zeros(A.shape[1]), A, -np.ones(A.shape[0]), None, None)
    return [p - q for p, q in zip(y[0::2], y[1::2])] if ok else None


@functools.lru_cache(maxsize=512)
def _functionals(shape, data):
    """The integer_functional psi of the int64 T-weights with this shape and
    bytes, or None where positivity fails: the one memo of the positivity
    LP, so equal weight systems cost one solve."""
    phi = _positive_functional(np.frombuffer(data, dtype=np.int64).reshape(shape))
    if phi is None:
        return None
    scale = math.lcm(*(v.denominator for v in phi))
    psi = [v.numerator * (scale // v.denominator) for v in phi]
    g = math.gcd(*psi)
    return tuple(p // g for p in psi)


# ---------------------------------------------------------------------------
# action and moment map
# ---------------------------------------------------------------------------

@dataclass
class MomentData:
    """Moment map values at a point."""

    phi_G: np.ndarray
    phi_T: np.ndarray
    phi_P: np.ndarray


def moduli(Z) -> np.ndarray:
    """Normalized moduli-squared |z_i|^2 / ||z||^2 of a point or of every
    row of an (N, n+1) array."""
    r = np.abs(np.asarray(Z, dtype=complex)) ** 2
    return r / r.sum(axis=-1, keepdims=True)


def moment(ws: WeightSystem, x: SpherePoint) -> MomentData:
    """Moment map blocks Phi_G, Phi_T and their concatenation Phi_P."""
    r = moduli(x.z)
    phi_G = ws.W_G @ r
    phi_T = ws.W_T @ r
    return MomentData(phi_G=phi_G, phi_T=phi_T, phi_P=np.concatenate([phi_G, phi_T]))


def infinitesimal_action(ws: WeightSystem, xi, f: AdaptedFrame) -> np.ndarray:
    """Base component of the induced vector field of xi in frame coordinates.

    Returns the C^n vector of d/dt|_0 exp(-i t xi.W_P) x with the full complex
    x-line (fiber and radial directions) projected out.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (ws.d_P,):
        raise ValueError(f"expected a Lie algebra vector of length {ws.d_P}")
    w = _projected_actions(ws, f.x.z[None, :], xi[None, :])[0, 0]
    return f.e.conj() @ w


def _projected_actions(ws: WeightSystem, Z: np.ndarray, Xi: np.ndarray) -> np.ndarray:
    """Induced fields of the Lie directions Xi at the unit rows z of Z,
    projected onto z^perp in C^{n+1}: an (N, a, n+1) array.

    Xi holds a directions shared by every row, shape (a, d_P), or its own
    directions per row, shape (N, a, d_P).
    """
    zdot = -1j * (Xi @ ws.W_P) * Z[:, None, :]
    return zdot - np.einsum("ni,nai->na", Z.conj(), zdot)[:, :, None] * Z[:, None, :]


# ---------------------------------------------------------------------------
# kernel of the moment map, Gram invariant, eta
# ---------------------------------------------------------------------------

def moment_kernel_basis(ws: WeightSystem, Z: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the hyperplane <Phi_P(m), .> = 0 at the
    point m of every row of the (N, n+1) array Z, from one stacked QR: an
    (N, d_P-1, d_P) array.

    At points where Phi_G = 0 this coincides with g x Ker(Phi_T(m)); at
    general points the hyperplane itself is returned.
    """
    phi_P = moduli(Z) @ ws.W_P.T
    nrm = np.linalg.norm(phi_P, axis=1, keepdims=True)
    if np.any(nrm < MEMBERSHIP_TOL):
        raise DomainError("Phi_P vanishes; the kernel hyperplane is undefined")
    # complete phi_P/|phi_P| to an orthonormal basis, drop the first vector
    eye = np.broadcast_to(np.eye(ws.d_P), (Z.shape[0], ws.d_P, ws.d_P))
    q, _ = np.linalg.qr(np.concatenate([(phi_P / nrm)[:, :, None], eye], axis=2))
    return np.swapaxes(q[:, :, 1:ws.d_P], 1, 2)


def script_D_rows(ws: WeightSystem, Z) -> np.ndarray:
    """script_D at every unit row z of the (N, n+1) array Z, without frames:
    the square root of the Gram determinant of the evaluation map on the
    moment kernel (the density correction in every leading term).

    The evaluation vectors of the moment-kernel directions are their
    infinitesimal actions projected onto z^perp in C^{n+1}; the real Gram
    matrix of those equals that of their frame coordinates.  The
    empty-kernel configuration d_P = 1 gives 1.0 (empty product).
    """
    Z = np.asarray(Z, dtype=complex)
    if ws.d_P == 1:
        return np.ones(Z.shape[0])
    return _gram_root(_projected_actions(ws, Z, moment_kernel_basis(ws, Z)))


def _gram_root(w: np.ndarray) -> np.ndarray:
    """Square roots of the real Gram determinants of the evaluation vectors
    w, shape (N, a, n+1): script_D at each row.  Raises
    TransversalityError when some determinant is below GRAM_SINGULAR_TOL."""
    det = np.linalg.det((w @ np.swapaxes(w, 1, 2).conj()).real)
    if np.min(det) < GRAM_SINGULAR_TOL:
        raise TransversalityError(
            f"evaluation map numerically singular (Gram det = {np.min(det):.3e})"
        )
    return np.sqrt(det)


def _eta(md: MomentData) -> np.ndarray:
    """Unit generator eta of Ker(Phi_P(m))^perp with <eta, Phi_P> =
    ||Phi_T||, from the moment map values at the point m.

    Only defined where Phi_G(m) = 0 (so that ||Phi_P|| = ||Phi_T||).
    """
    if np.linalg.norm(md.phi_G) > 1e-7 * max(1.0, np.linalg.norm(md.phi_P)):
        raise DomainError(
            f"eta is defined on the locus Phi_G = 0; got Phi_G = {md.phi_G}"
        )
    nrm = np.linalg.norm(md.phi_P)
    if nrm < MEMBERSHIP_TOL:
        raise DomainError("Phi_P vanishes")
    return md.phi_P / nrm


# ---------------------------------------------------------------------------
# stabilizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerElement:
    """A product-torus element fixing a sphere point, held as its d_P angles
    in exact fractions of a full turn (the angles are 2 pi times them), so
    that every phase it applies is read off exactly."""

    turns: tuple

    def pairing(self, w) -> Fraction:
        """<w, sigma> / 2 pi mod 1 for an integer vector w of length d_P: the
        exact turns of the phase e^{-i <w, sigma>} of weight w."""
        return sum(int(a) * t for a, t in zip(w, self.turns)) % 1

    def fixes(self, ws: WeightSystem, x: SpherePoint) -> bool:
        """Exact test: is <w_i, sigma> an integer turn count at every
        coordinate i in the support of x?"""
        return not any(self.pairing(w) for w in ws.W_P.T[_support(x)].tolist())

    def _character(self, nu_G, nu_T, k: int) -> Fraction:
        """The exact pairing of the weight (nu_G, k nu_T) with sigma, in
        turns mod 1."""
        nu = [*np.atleast_1d(nu_G), *(int(k) * int(v) for v in np.atleast_1d(nu_T))]
        return self.pairing(nu)

    def acts_trivially_on(self, nu_G, nu_T, k: int) -> bool:
        """Exact test: does this element fix sections of weight
        (nu_G, k nu_T)?  True iff the pairing is an integer turn count."""
        return self._character(nu_G, nu_T, k) == 0

    def section_phase(self, nu_G, nu_T, k: int) -> complex:
        """The unit complex factor by which this element multiplies any
        section of weight (nu_G, k nu_T); read off the character directly."""
        frac = self._character(nu_G, nu_T, k)
        return 1.0 + 0.0j if frac == 0 else complex(np.exp(-2j * np.pi * float(frac)))


def _support(x: SpherePoint) -> list:
    """The coordinates of x above 1e-12 in modulus."""
    return np.flatnonzero(np.abs(x.z) > 1e-12).tolist()


def _diagonalize(S):
    """Exact diagonal form of an integer matrix: (diag, V) with U S V equal
    to diag(diag) padded by zeros, for unimodular U and V.

    Python-int row and column reduction; only the column operations are
    recorded (in V, as lists of ints).  diag holds the nonzero pivots, so
    len(diag) is the rank.  No divisibility chain is imposed: any diagonal
    form parametrizes {y : S y in Z^m} mod Z^c by y = V (t / diag).
    """
    A = [[int(v) for v in row] for row in np.asarray(S).tolist()]
    rows, cols = np.shape(S)
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]
    diag = []
    for p in range(min(rows, cols)):
        while True:
            nonzero = [(abs(A[i][j]), i, j) for i in range(p, rows)
                       for j in range(p, cols) if A[i][j]]
            if not nonzero:
                return diag, V
            _, i, j = min(nonzero)
            A[p], A[i] = A[i], A[p]
            for row in A + V:
                row[p], row[j] = row[j], row[p]
            a = A[p][p]
            for i in range(p + 1, rows):
                q = A[i][p] // a
                A[i] = [u - q * w for u, w in zip(A[i], A[p])]
            for j in range(p + 1, cols):
                q = A[p][j] // a
                for row in A + V:
                    row[j] -= q * row[p]
            # remainders smaller than |a| restart the step with a new pivot
            if not any(A[i][p] for i in range(p + 1, rows)) and not any(A[p][p + 1:]):
                break
        diag.append(A[p][p])
    return diag, V


def _support_form(W_P: np.ndarray, supp: list, where: str):
    """The exact diagonal form (diag, V) of the support-weight matrix
    W_P^T[supp].  Below rank d_P the action is not locally free `where`:
    raises AssumptionViolation naming the integer combinations of the rows
    of W_P that vanish on supp."""
    diag, V = _diagonalize(W_P.T[supp])  # U S V = diag, with U, V unimodular
    rank, d_P = len(diag), len(W_P)
    if rank < d_P:
        kernel = ", ".join(str(tuple(row[j] for row in V)) for j in range(rank, d_P))
        raise AssumptionViolation(  # S V is zero past the rank: a kernel of the rows of W_P
            f"the action is not locally free {where}: the support-weight matrix has rank "
            f"{rank} < {d_P}; on the support {supp} the rows of W_P combine to zero with "
            f"coefficients {kernel}")
    return diag, V


def stabilizer(ws: WeightSystem, x: SpherePoint) -> list[StabilizerElement]:
    """The finite stabilizer of x in the product torus.

    Solves <w_i, sigma> in 2 pi Z for every coordinate i in the support of
    x, via an integer diagonal form of the support-weight matrix, in exact
    turns; the identity comes first.  Raises AssumptionViolation when the
    solution set is infinite (the action is not locally free at x).
    """
    diag, V_rows = _support_form(ws.W_P, _support(x), "at this point")
    invariants = [abs(d) for d in diag]
    order = math.prod(invariants)
    if order > _STABILIZER_CAP:
        raise AssumptionViolation(f"stabilizer order {order} exceeds cap")

    elements = []
    for idx in np.ndindex(*invariants):
        y = [Fraction(t, d) for t, d in zip(idx, invariants)]
        el = StabilizerElement(tuple(sum(w * yi for w, yi in zip(row, y)) % 1 for row in V_rows))
        if not el.fixes(ws, x):
            raise AssumptionViolation("stabilizer candidate fails to fix x")
        elements.append(el)
    return elements


# ---------------------------------------------------------------------------
# the locus M_{0, nu_T}: membership, distance, sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Locus:
    """The moduli polytope {r >= 0, sum r = 1, W_G r = 0, W_T r = t nu_T,
    t > 0} of a locus as {r >= 0, H r = e0}, from the int64 hull rows
    H = [1; W_G; N W_T], N an integer basis of nu_T^perp: r, its exact
    max-min-slack interior point, positive in every coordinate; and U, an
    orthonormal (n+1, q) basis of its hull directions (q = 0 for a single
    point)."""

    H: np.ndarray
    r: np.ndarray
    U: np.ndarray

    @functools.cached_property
    def box(self):
        """(lo, hi): the extent of U^T (r - self.r) over the polytope, from
        two exact LPs over H per hull direction."""
        lo, hi = np.zeros(self.U.shape[1]), np.zeros(self.U.shape[1])
        for a, u in enumerate(self.U.T):
            for sign, out in ((1.0, lo), (-1.0, hi)):
                x = _simplex(sign * u, None, None, self.H.tolist(), np.eye(len(self.H))[0])[1]
                out[a] = float(u @ np.array(x, dtype=np.float64) - u @ self.r)
        return lo, hi


def _nu_norm(nu_T) -> float:
    """||nu_T|| in float64.  Raises DomainError for an entry of 2^500 or
    more, which float64 may not hold or whose squares may sum past it; no
    isotype at k >= 1 is that far out (W_T and J are int64)."""
    if any(abs(v) >= 2**500 for v in nu_T):
        raise DomainError("'nu_T' has an entry of 2^500 or more: its float64 norm could overflow")
    return float(np.linalg.norm(np.asarray(nu_T, dtype=float)))


def _locus(ws: WeightSystem, nu_T) -> _Locus:
    """The moduli-polytope record of (W_P, nu_T), built once per pair."""
    nu_T = np.asarray(nu_T, dtype=np.float64).reshape(-1)
    locus = np.any(nu_T) and _locus_record(ws.d_G, ws.W_P.tobytes(), nu_T.tobytes())
    if not locus:
        raise InfeasibleLocusError("the concentration locus is empty")
    return locus


@functools.lru_cache(maxsize=512)
def _locus_record(d_G, data, nu_data):
    """The `_Locus` of W_P (int64 bytes, d_G G-rows) and nu_T (float64
    bytes), or None if the polytope is empty.

    The interior point maximizes min(r, t) over (r, t) in one exact LP; once
    it exists, every feasible r has t (phi . nu_T) = phi . W_T r >= 1, so
    t > 0 throughout and H alone describes the polytope.  One exact rank
    test of W_P on the support of r then decides local freeness on the whole
    locus.  A zero in r is zero on the whole polytope (else an average of
    its points would be positive), so by Farkas' lemma some c^T W_P >= 0 is
    positive there and zero on every support, and the test fails.  An
    accepted r is positive, and q is n + 1 less the exact rank of H."""
    nu_T = np.frombuffer(nu_data)
    W_P = np.frombuffer(data, dtype=np.int64).reshape(d_G + len(nu_T), -1)
    m = W_P.shape[1]

    # over (r, t, s): max s with s <= r_i, s <= t, sum r = 1, W_G r = 0, W_T r = t nu_T
    A_eq = np.column_stack([np.vstack([np.ones(m), W_P]), np.r_[np.zeros(1 + d_G), -nu_T],
                            np.zeros(1 + len(W_P))])
    A_ub = np.hstack([-np.eye(m + 1), np.ones((m + 1, 1))])
    ok, x, _ = _simplex(-np.eye(m + 2)[-1], A_ub, np.zeros(m + 1), A_eq, np.eye(len(A_eq))[0])
    if not ok:
        return None
    _support_form(W_P, [i for i in range(m) if x[i] > 0], "anywhere on the locus")

    nu = [Fraction(v) for v in nu_T]
    nu = [int(v * math.lcm(*(u.denominator for u in nu))) for v in nu]
    N = np.array(_diagonalize([nu])[1], dtype=object)[:, 1:].T  # nu V = (g, 0, ..., 0)
    NW = N @ W_P[d_G:].astype(object)
    if NW.size and np.max(np.abs(NW)) >= 2**63:
        raise AssumptionViolation(f"nu_T = {nu} gives integer locus hull rows past int64")
    H = np.vstack([np.ones((1, m), dtype=np.int64), W_P[:d_G], NW.astype(np.int64)])
    q = m - len(_diagonalize(H)[0])
    U = np.linalg.svd(H.astype(np.float64))[2][m - q:].T
    r = np.array(x[:m], dtype=np.float64)
    for arr in (H, r, U):
        arr.setflags(write=False)
    return _Locus(H, r, U)


def locus_distance(ws: WeightSystem, x: SpherePoint, nu_T) -> float:
    """Base distance from x to the concentration locus of nu_T.  The nearest
    locus point has the phases of x and the moduli s that maximize
    sum_i sqrt(r_i s_i) (r = |x|^2), found by `_nearest_moduli`.  Zero on
    the locus: H r = e0 for the record's hull rows H, each row to 1e-12 of
    |H| r, the size of its terms (N W_T may cancel entries past 1e6).
    """
    locus = _locus(ws, nu_T)
    r_x = np.abs(x.z) ** 2
    H = locus.H
    if np.all(np.abs(H @ r_x - np.eye(len(H))[0]) <= 1e-12 * (np.abs(H) @ r_x)):
        return 0.0
    return dist_proj(x, SpherePoint.from_moduli(_nearest_moduli(locus, r_x), np.angle(x.z)))


def _nearest_moduli(locus: _Locus, r: np.ndarray) -> np.ndarray:
    """The moduli s >= 0 with E s = e0 (the hull rows H, cut to an
    independent set) that maximize sum_i sqrt(r_i s_i).

    Primal-dual Newton on the convex dual, min lam . e0 + sum_{r_i > 0}
    r_i / (4 c_i) over c = E^T lam, c_i > 0 where r_i > 0, c_i >= 0 where
    r_i = 0, from c = 1: s_i = r_i / (4 c_i^2) where r_i > 0, and elsewhere
    s_i is the multiplier of c_i >= 0, on c_i s_i = tau as tau falls.  Returns
    s once certified: each row of E s = e0 to 1e-12, or to 1e-15 of |E| s (a
    few ulps of its terms) where that is larger, c and s >= 0 and a duality
    gap of at most 1e-12; raises InfeasibleLocusError if never.
    """
    E = locus.H.astype(np.float64)
    rhs = np.eye(len(E))[0]
    basis = np.linalg.svd(E, full_matrices=False)[0][:, :E.shape[1] - locus.U.shape[1]]
    A, b = basis.T @ E, basis.T @ rhs
    pos, z = r > 0, r == 0
    lam, s, tau = b.copy(), np.ones(len(r)), 1.0  # c = A^T b = 1: e0 is in the row space
    for _ in range(100):
        c = A.T @ lam
        s[pos] = r[pos] / (4.0 * c[pos] ** 2)
        gap = lam @ b + np.sum(r[pos] / (4.0 * c[pos])) - np.sum(np.sqrt(r * s))
        res = np.abs(E @ s - rhs)
        rows_hold = np.all(res <= np.maximum(1e-12, 1e-15 * (np.abs(E) @ s)))
        if rows_hold and min(c.min(), s.min()) >= 0 and gap <= 1e-12:
            return s
        # Newton on A s = b and c_i s_i = tau (r_i = 0), the latter eliminated
        w = np.where(pos, r / (2.0 * c**3), s / c)
        g = A @ s - b + A[:, z] @ (tau / c[z] - s[z])
        # a degenerate optimum leaves the dual flat along some lam: no step there
        d_lam = np.linalg.lstsq((A * w) @ A.T, g, rcond=1e-18)[0]
        d_c = A.T @ d_lam
        d_s = (tau - c[z] * s[z] - s[z] * d_c[z]) / c[z]
        # c and the multipliers s stay positive: 0.99 of the way to the boundary
        v, dv = np.concatenate([c, s[z]]), np.concatenate([d_c, d_s])
        step = min(1.0, 0.99 * np.min(-v[dv < 0] / dv[dv < 0], initial=np.inf))
        lam += step * d_lam
        s[z] += step * d_s
        if step > 0.5:  # the gap is ~tau per r_i = 0; rounding loses c_i below ~1e-14
            tau = max(tau / 10.0, 1e-14)
    raise InfeasibleLocusError(f"distance to the locus not certified: residual {res.max():.1e}, "
                               f"duality gap {gap:.1e}")


def _moduli_density(R: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Riemannian density of the base locus at the zero-phase point over
    every moduli row of R, with respect to (hull coordinates) x (phase
    angles of every coordinate but the last, which is gauged away).

    The hull tangents U / (2 sqrt r) on each row's support (r > 1e-13) are
    real and orthogonal to z, as the columns of U sum to zero; the phase
    rotations are imaginary.  So the Gram matrix is block diagonal: the hull
    block U^T diag(1/4r) U, and the phase block diag(r) - r r^T less its
    last coordinate, of determinant prod_i r_i, which vanishes on the facets
    of the polytope."""
    inv = np.divide(0.25, R, out=np.zeros_like(R), where=R > 1e-13)
    hull = np.linalg.det((U.T * inv[:, None, :]) @ U)
    return np.sqrt(np.maximum(hull * np.prod(R, axis=1), 0.0))


def locus_sample(ws: WeightSystem, nu_T, count: int, seed: int):
    """Quadrature nodes and weights over the base concentration locus.

    Returns (Z, w): an (N, n+1) array of unit rows and their (N,) weights,
    whose weighted sums converge to the integral over the locus in the base
    against the induced Riemannian volume (one fiber phase gauged away), for
    integrands of the moduli |z|^2 alone, as every locus integrand is.

    The phase torus contributes only its volume (2 pi)^{n_phase}: the nodes
    have zero phases and the rule lives on the moduli polytope of the locus
    record.  A single-point polytope is one node.  Otherwise rounds of `count`
    points are drawn in the record's box in hull coordinates, and those
    outside the polytope are rejected; an accepted draw also consumes n + 1
    uniforms, as a draw of its phases would, which fixes where the next draw
    starts, until a cubature on the polytope replaces this.  A round landing
    none is followed by another from the same stream, up to 64 rounds.
    """
    locus = _locus(ws, nu_T)
    r_int, U = locus.r, locus.U
    q, d_s = U.shape[1], ws.n + 1
    torus = (2.0 * np.pi) ** ws.n

    if q == 0:  # the exact interior point is the polytope
        r_star = r_int[None, :] / r_int.sum()
        return moduli_rows(r_star), _moduli_density(r_star, U) * torus

    lo, hi = locus.box
    box_vol = float(np.prod(hi - lo))
    # a draw takes q uniforms for its box point and, if accepted, d_s more:
    # box points and acceptance at all offsets of one stream, by blocks
    rng, at, rounds = np.random.default_rng(seed), [], 0

    def moduli_at(offsets):  # the box point r of the draws at these offsets
        return r_int + (lo + (hi - lo) * win[offsets]) @ U.T
    while not at and rounds < 64:
        win = np.lib.stride_tricks.sliding_window_view(rng.random(count * (q + d_s)), q)
        inside = []
        for a in range(0, len(win), _SAMPLE_BLOCK):
            R = moduli_at(slice(a, a + _SAMPLE_BLOCK))
            inside += np.all(R >= -1e-12, axis=1).tolist()
        at, o, rounds = [], 0, rounds + 1
        for _ in range(count):
            if inside[o]:
                at.append(o)
            o += q + d_s * inside[o]
    if not at:
        raise InfeasibleLocusError("no feasible samples found in the polytope box")
    R = np.clip(moduli_at(at), 0.0, None)
    return moduli_rows(R), _moduli_density(R, U) * (box_vol * torus / (rounds * count))


# ---------------------------------------------------------------------------
# tangent splitting along the locus
# ---------------------------------------------------------------------------

def orbit_splitting_bases(ws: WeightSystem, f: AdaptedFrame):
    """(Q, D) at the frame's point, from one evaluation of the moment-kernel
    directions: script_D, and a complex (n, a) matrix Q with
    Hermitian-orthonormal columns whose real span is the vertical space
    V = val(Ker Phi_P); the real span of 1j * Q is the transversal space
    N = J(V).  The horizontal part of a vector is what remains after its V
    and N parts."""
    if ws.d_P == 1:
        return np.zeros((ws.n, 0), dtype=complex), 1.0
    Z = f.x.z[None, :]
    w = _projected_actions(ws, Z, moment_kernel_basis(ws, Z))
    D = float(_gram_root(w)[0])
    w = w[0] @ f.e.conj().T
    # a real orthonormal basis of V from the val vectors stacked as [Re; Im]
    U = np.linalg.svd(np.concatenate([w.real, w.imag], axis=1).T, full_matrices=False)[0]
    Q = U[: ws.n] + 1j * U[ws.n :]
    # V is isotropic for commuting Hamiltonian actions: omega = Im<.,.>
    # vanishes on it, so N = J(V) is g-orthogonal to V and the real
    # orthonormal columns of Q are Hermitian-orthonormal.
    if np.max(np.abs((Q.conj().T @ Q).imag)) > 1e-8:
        raise TransversalityError("V and J(V) are not orthogonal at this point")
    return Q, D


def locus_center(ws: WeightSystem, nu_T) -> SpherePoint:
    """The zero-phase point over the moduli-polytope interior point; for
    single-point polytopes this is the canonical locus representative."""
    return SpherePoint.from_moduli(_locus(ws, nu_T).r)
