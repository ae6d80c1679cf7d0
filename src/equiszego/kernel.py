"""Exact (to floating precision) evaluation of equivariant projector kernels.

The kernel of one joint isotype is the monomial sum

    K(x, y) = sum_J s_J(x) conj(s_J(y)),   s_J = sqrt(c_J) z^J,

contracted from the log-domain sections of `hardy.log_sections` with a
single max-extraction: the diagonal is a sum of positive terms (no
cancellation) and off-diagonal phase spread is benign at the scales
exercised here.  Bases up to ~1e6 entries and degrees up to
~1e4 stay finite in double precision.
"""

import warnings

import numpy as np

from .geometry import AdaptedFrame, SpherePoint, TangentVectorX, hlc_point
from .hardy import IsotypeBasis, _log_factorial, log_sections

# Displacements are compared with the asymptotics only within
# WINDOW_CONSTANT * k^{1/9} of the center.
WINDOW_CONSTANT = 2.5


def szego_eval(b: IsotypeBasis, x: SpherePoint, y: SpherePoint | np.ndarray):
    """Kernel value K(x, y) of the isotype projector.

    y is a SpherePoint (returns a complex) or an (S, n+1) array of rows
    (returns the (S,) values K(x, w) for every row w, as quadratures need).
    Terms that vanish in the log domain contribute exactly 0.
    """
    w = np.asarray(getattr(y, "z", y), dtype=complex)
    logmag, phase = log_sections(b, np.vstack([x.z, w]))  # row 0 is x
    logmag = logmag[0] + logmag[1:]
    top = np.max(logmag, axis=1, keepdims=True, initial=-np.inf)
    top[top == -np.inf] = 0.0  # every term vanishes: the sum is exactly 0
    terms = np.exp(logmag - top + 1j * (phase[0] - phase[1:]))
    val = np.exp(top[:, 0]) * terms.sum(axis=1)
    return complex(val[0]) if w.ndim == 1 else val


def log_szego_diag(b: IsotypeBasis, x: SpherePoint) -> float:
    """log K(x, x) = logsumexp(2 logmag); -inf when the kernel vanishes at x.

    Summed by hand with one max-extraction; a library logsumexp took longer
    than the rest of the call on bases of ~1e5 entries and more."""
    two = 2.0 * log_sections(b, x)[0]
    top = np.max(two, initial=-np.inf)
    if top == -np.inf:
        return -np.inf
    return float(top + np.log(np.sum(np.exp(two - top))))


def szego_diag(b: IsotypeBasis, x: SpherePoint) -> float:
    """Diagonal kernel value; nonnegative by construction."""
    val = log_szego_diag(b, x)
    return 0.0 if val == -np.inf else float(np.exp(val))


def szego_rescaled(
    b: IsotypeBasis,
    f: AdaptedFrame,
    u1: TangentVectorX,
    u2: TangentVectorX,
    k: int,
) -> complex:
    """Kernel at the sqrt(k)-rescaled chart points around the frame center.

    Displacements beyond the k^{1/9} comparison window trigger a warning
    (the asymptotic statements are only claimed inside it); the chart radius
    itself is still enforced by the chart map.
    """
    sk = np.sqrt(float(k))
    for u in (u1, u2):
        if np.linalg.norm(u.v) > WINDOW_CONSTANT * float(k) ** (1.0 / 9.0):
            warnings.warn(
                "displacement exceeds the k^(1/9) comparison window",
                stacklevel=2,
            )
    p1 = hlc_point(f, u1.theta / sk, u1.v / sk)
    p2 = hlc_point(f, u2.theta / sk, u2.v / sk)
    return szego_eval(b, p1, p2)


def level_kernel_closed(n: int, k: int, x: SpherePoint, y: SpherePoint) -> complex:
    """Closed form of the full level-k kernel on projective n-space:
    ((k+n)!/(pi^n k!)) <x,y>^k with <x,y> = sum_i x_i conj(y_i).

    Equals the full-degree monomial sum by the multinomial theorem; used as
    an independent oracle for the summation path.
    """
    u = complex(np.sum(x.z * np.conj(y.z)))
    logc = _log_factorial(k + n) - _log_factorial(k) - n * np.log(np.pi)
    if u == 0:
        return 0.0 if k >= 1 else complex(np.exp(logc))
    return complex(np.exp(logc + k * np.log(abs(u))) * np.exp(1j * k * np.angle(u)))
