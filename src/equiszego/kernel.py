"""Exact (to floating precision) evaluation of equivariant projector kernels.

The kernel of one joint isotype is the monomial sum

    K(x, y) = sum_J s_J(x) conj(s_J(y)),   s_J = sqrt(c_J) z^J,

contracted from the log-domain sections of `hardy` with a single
max-extraction.  The diagonal is a sum of positive terms, with no
cancellation, read from `hardy.log_moduli` alone; `szego_eval` needs the
phases of `hardy.log_sections`.  Off the diagonal the terms' phases spread
and their sum cancels, and what cancels comes back as roundoff, with no
flag: on the level n = 1 system at x = (1, 1)/sqrt(2) and
y = (1, e^{i theta})/sqrt(2), `szego_eval` is off the closed form by a
relative 1.2e11 at k = 100, theta = 2, and by 9.4e7 at k = 400, theta = 1.
Bases up to ~1e6 entries and degrees up to ~1e4 stay finite in double
precision.
"""

import numpy as np

from .geometry import SpherePoint
from .hardy import IsotypeBasis, log_moduli, log_sections


def szego_eval(b: IsotypeBasis, x: SpherePoint, y: SpherePoint | np.ndarray):
    """Kernel value K(x, y) of the isotype projector.

    y is a SpherePoint (returns a complex) or an (S, n+1) array of rows
    (returns the (S,) values K(x, w) for every row w, as quadratures need).
    Terms that vanish in the log domain contribute exactly 0.  Where the
    terms cancel, the value is roundoff of the largest term's size, and
    nothing flags it (see the module docstring).
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
    logmag = log_moduli(b, x)
    top = logmag.max(initial=-np.inf)
    if top == -np.inf:
        return -np.inf
    logmag -= top
    logmag *= 2.0
    return float(2.0 * top + np.log(np.exp(logmag, out=logmag).sum()))


def szego_diag(b: IsotypeBasis, x: SpherePoint) -> float:
    """Diagonal kernel value; nonnegative by construction."""
    val = log_szego_diag(b, x)
    return 0.0 if val == -np.inf else float(np.exp(val))
