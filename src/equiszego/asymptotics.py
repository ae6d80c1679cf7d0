"""Predicted leading terms of the kernel asymptotics and exponent fitting.

The predictions implement the displayed leading expressions verbatim: the
rescaled frequency lambda = ||nu_T|| / ||Phi_T(m)||, the quadratic exponent
H built from the horizontal/vertical/transversal splitting, the diagonal
growth law and its near-diagonal refinement with stabilizer monodromy.  The
dimension constant is `toeplitz.trace_prediction` with f = 1.

The absolute normalization of the predictions relative to exact kernel
values is deliberately *not* asserted anywhere: the measured ratio of exact
to predicted diagonal values is a named diagnostic of the tests.  Empirically
it is k-stable and equals (2 pi)^(-d_G) on the worked examples, consistent
with a Haar-normalization factor of the fixed-character torus block; the
k-power, the Gaussian profile and the stabilizer arithmetic are all checked
exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from .actions import (
    MomentData,
    StabilizerElement,
    WeightSystem,
    _eta,
    _nu_norm,
    infinitesimal_action,
    moment,
    orbit_splitting_bases,
    stabilizer,
)
from .errors import DomainError
from .geometry import AdaptedFrame, TangentVectorX


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------

def diag_k_exponent(d_M: int, d_P: int) -> float:
    """Growth exponent d_M + (1 - d_P)/2 of the diagonal law."""
    return d_M + (1.0 - d_P) / 2.0


# ---------------------------------------------------------------------------
# locus data bundle
# ---------------------------------------------------------------------------

@dataclass
class LocusData:
    """Everything the leading terms need at one locus point."""

    ws: WeightSystem
    frame: AdaptedFrame
    nu_T: tuple  # Python ints
    moment: MomentData
    lam: float
    Q: np.ndarray  # (n, a): V is the real span of its columns, N = J(V) that of 1j * Q
    eta: np.ndarray
    D: float
    stab: list[StabilizerElement]
    # the horizontal/vertical/transversal parts of eta's base vector field
    eta_M_h: np.ndarray = field(init=False)
    eta_M_v: np.ndarray = field(init=False)
    eta_M_t: np.ndarray = field(init=False)

    @property
    def phi_T_norm(self) -> float:
        return float(np.linalg.norm(self.moment.phi_T))

    def split(self, v):
        """g-orthogonal decomposition of a tangent vector in frame
        coordinates C^n into its horizontal, vertical and transversal parts
        (v_h, v_v, v_t): with c = Q^H v, v_v = Q Re c and v_t = Q (i Im c)."""
        v = np.asarray(v, dtype=complex)
        c = self.Q.conj().T @ v
        return v - self.Q @ c, self.Q @ c.real, self.Q @ (1j * c.imag)


def locus_data(ws: WeightSystem, f: AdaptedFrame, nu_T) -> LocusData:
    """The geometry of the frame's point for the character nu_T: the moment
    map and the splitting are evaluated once.  Raises DomainError for a
    non-integral nu_T, whose characters the stabilizer cannot take."""
    nu_T = np.ravel(nu_T).tolist()
    if not all(isinstance(v, int) or float(v).is_integer() for v in nu_T):
        raise DomainError(f"nu_T must be integral, got {nu_T}")
    md = moment(ws, f.x)
    eta = _eta(md)
    # the stabilizer first: its exact rank test names a point that is not free
    stab, (Q, D) = stabilizer(ws, f.x), orbit_splitting_bases(ws, f)
    ld = LocusData(
        ws=ws,
        frame=f,
        nu_T=tuple(int(v) for v in nu_T),
        moment=md,
        # Phi_T != 0: the positive functional phi has phi . Phi_T >= 1
        lam=_nu_norm(nu_T) / float(np.linalg.norm(md.phi_T)),
        Q=Q,
        eta=eta,
        D=D,
        stab=stab,
    )
    ld.eta_M_h, ld.eta_M_v, ld.eta_M_t = ld.split(infinitesimal_action(ws, eta, f))
    return ld


# ---------------------------------------------------------------------------
# the quadratic exponent H
# ---------------------------------------------------------------------------

def h_exponent_at(ld: LocusData, u1: TangentVectorX, u2: TangentVectorX) -> complex:
    """The quadratic exponent governing near-diagonal decay and phases.

    With b0 = (theta2 - theta1)/||Phi_T(m)|| and v = v_h + v_v + v_t:

        H = lam * ( i[w(v1v, v1t) - w(v2v, v2t)]
                    + i w(b0 etaMh, v1h + v2h) - i w(v1h, v2h)
                    - ||v1t||^2 - ||v2t||^2
                    - (1/2) ||v1h - b0 etaMh - v2h||^2 ).

    Re H <= 0 always, with equality iff both transversal parts and the
    horizontal Gaussian argument vanish.
    """
    v1h, v1v, v1t = ld.split(u1.v)
    v2h, v2v, v2t = ld.split(u2.v)
    b0 = (u2.theta - u1.theta) / ld.phi_T_norm
    drift = v1h - b0 * ld.eta_M_h - v2h

    def w(a, b) -> float:  # omega(a, b) = Im<a, b>
        return float(np.vdot(a, b).imag)

    def sq(a) -> float:  # ||a||^2 = g(a, a) = Re<a, a>
        return float(np.vdot(a, a).real)

    val = (
        1j * (w(v1v, v1t) - w(v2v, v2t))
        + 1j * b0 * w(ld.eta_M_h, v1h + v2h)
        - 1j * w(v1h, v2h)
        - sq(v1t)
        - sq(v2t)
        - 0.5 * sq(drift)
    )
    return ld.lam * val


# ---------------------------------------------------------------------------
# stabilizer monodromy
# ---------------------------------------------------------------------------

def monodromy_matrix(ws: WeightSystem, f: AdaptedFrame, el: StabilizerElement) -> np.ndarray:
    """The action of the stabilizer element `el` on base chart coordinates
    at the frame center, as a unitary (n, n) matrix.

    el acts on C^{n+1} by the diagonal unitary D = diag(e^{-2 pi i t_i}),
    with t_i = `el.pairing(w_i)` the exact turns of each weight column.
    Since D x = x (t_i = 0 on the support of x, exactly) and D preserves
    x^perp, the chart map carries D exactly to the linear map v -> M v with
    M = conj(e) D e^T.
    """
    if not el.fixes(ws, f.x):
        raise DomainError("the element does not fix the frame center")
    t = np.array([float(el.pairing(w)) for w in ws.W_P.T.tolist()])
    return (f.e.conj() * np.exp(-2j * np.pi * t)) @ f.e.T


# ---------------------------------------------------------------------------
# leading terms
# ---------------------------------------------------------------------------

def _leading_scale(ld: LocusData, k: int) -> float:
    """The scalar shared by the diagonal, near-diagonal and operator laws at
    level k: d_nu 2^{d_G/2} / (sqrt2 pi)^{d_T-1} * (||nu||/pi)^e /
    (D ||Phi_T||^{d_M + 1 + (1-d_P)/2}) * k^e, with e = diag_k_exponent and
    d_nu = 1 for torus blocks."""
    ws = ld.ws
    d_M, d_P, d_G, d_T = ws.n, ws.d_P, ws.d_G, ws.d_T
    e = diag_k_exponent(d_M, d_P)
    d_nu = 1.0  # abelian fixed block: all irreducibles are characters
    return (
        d_nu
        * 2.0 ** (d_G / 2.0)
        / (np.sqrt(2.0) * np.pi) ** (d_T - 1)
        * (_nu_norm(ld.nu_T) / np.pi) ** e
        / (ld.D * ld.phi_T_norm ** (d_M + 1.0 + (1.0 - d_P) / 2.0))
    ) * float(k) ** e


def stabilizer_character_sum(ld: LocusData, nu_G, k: int) -> complex:
    """Roots-of-unity factor: sum over the stabilizer of the conjugated
    character of weight (nu_G, k nu_T).

    The stabilizer is a finite abelian group and the summand is a character
    of it, so the sum is exactly |F_x| when the character is trivial and
    exactly 0 otherwise; computed that way (no float roundoff)."""
    if all(el.acts_trivially_on(nu_G, ld.nu_T, k) for el in ld.stab):
        return complex(len(ld.stab))
    return 0.0 + 0.0j


def diagonal_leading(ld: LocusData, nu_G, k: int) -> complex:
    """Predicted diagonal value at the locus point: the leading scale times
    the stabilizer character sum."""
    return complex(_leading_scale(ld, k)) * stabilizer_character_sum(ld, nu_G, k)


def near_diagonal_leading(
    ld: LocusData,
    nu_G,
    k: int,
    u1: TangentVectorX,
    u2: TangentVectorX,
    p0=None,
) -> complex:
    """Predicted kernel value at sqrt(k)-rescaled displacements u1, u2 from
    the locus point in the frame `ld.frame`, the second point optionally
    translated by the torus element p0 (angle vector).

    Sums over the stabilizer with monodromy-rotated first displacements and
    the exact conjugated characters of `StabilizerElement.section_phase`,
    twisted by e^{i nu.p0}; includes the fiber phase
    e^{-i sqrt(k) (theta2 - theta1) lambda}.
    """
    total = 0.0 + 0.0j
    for el in ld.stab:
        M = monodromy_matrix(ld.ws, ld.frame, el)
        u1j = TangentVectorX(theta=u1.theta, v=M @ u1.v)
        total += el.section_phase(nu_G, ld.nu_T, k) * np.exp(h_exponent_at(ld, u1j, u2))
    if p0 is not None:
        nu = np.array([*np.ravel(nu_G), *(k * v for v in ld.nu_T)], dtype=float)
        total *= np.exp(1j * float(nu @ np.asarray(p0, dtype=float)))
    fiber = np.exp(-1j * np.sqrt(float(k)) * (u2.theta - u1.theta) * ld.lam)
    return complex(_leading_scale(ld, k) * total * fiber)


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------

def fit_exponent(series) -> tuple[float, float, float]:
    """Least-squares fit of log|value| against log k.

    Returns (slope, intercept, residual rms).  Requires at least four
    samples with positive modulus.
    """
    pts = [(k, abs(v)) for k, v in series]
    if len(pts) < 4:
        raise ValueError("need at least 4 samples")
    if any(v <= 0 for _, v in pts):
        raise ValueError("values must be nonzero for a log-log fit")
    ks = np.log([float(k) for k, _ in pts])
    ys = np.log([v for _, v in pts])
    A = np.vstack([ks, np.ones_like(ks)]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(coef[0]), float(coef[1]), rms
