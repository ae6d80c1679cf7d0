"""Point and tangent model for the unit sphere bundle over projective space.

The ambient space is C^{n+1}; X is the unit sphere S^{2n+1} fibering over
projective n-space M by the diagonal circle action.  All pairings use the
Kaehler normalization in which the symplectic form integrates to pi over a
projective line, equivalently omega = (i/2) d d-bar log ||Z||^2.  At a chart
origin this reduces to the standard structure of C^n:

    <a, b> = sum_i conj(a_i) b_i,   g(a, b) = Re<a, b>,
    omega(a, b) = Im<a, b>,         J v = i v,   g(. , .) = omega(. , J .).

Sign convention: omega(a, b) = +Im<a, b> (first slot conjugated).  This is
the unique choice compatible with g = omega(., J.) and positivity of
omega(v, Jv); it is pinned down by the kernel phase tests (loop-phase probe
and fiber-rotation equivariance), and it makes every Gaussian exponent in
the asymptotics module have nonpositive real part.

With this normalization the round metric of S^{2n+1} coincides with
alpha (x) alpha + pi^* g, so spherical geodesic distance doubles as the
distance on X and arccos|<x,y>| as the base distance.
"""

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12


def _as_complex_vector(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise ValueError(f"expected a 1-d complex vector, got shape {z.shape}")
    return z


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """v divided by the power of two at its largest modulus, row by row:
    exact, so its normalization keeps every bit of that of v, and no square
    of an entry under- or overflows, whatever the size of v."""
    e = np.frexp(np.abs(v).max(axis=-1, keepdims=True))[1]
    parts = np.ascontiguousarray(v).view(float) if np.iscomplexobj(v) else v
    return np.ldexp(parts, -e).view(v.dtype)


@dataclass(frozen=True)
class SpherePoint:
    """A point of the unit sphere X in C^{n+1}."""

    z: np.ndarray

    def __post_init__(self):
        z = _as_complex_vector(self.z)
        nrm = np.linalg.norm(z)
        if not abs(nrm - 1.0) <= 1e-9:  # a non-finite entry makes nrm nan or inf
            raise ValueError(f"not a finite unit vector: ||z|| = {nrm!r}")
        # renormalize residual float error so invariants hold to 1e-12
        object.__setattr__(self, "z", z / nrm)

    @property
    def n(self) -> int:
        """Projective dimension (ambient dimension minus one)."""
        return self.z.shape[0] - 1

    @staticmethod
    def from_coords(z) -> "SpherePoint":
        """The point z / ||z|| of a nonzero finite vector of any size."""
        z = _unit_scaled(_as_complex_vector(z))
        return SpherePoint(z / np.linalg.norm(z))

    @staticmethod
    def from_moduli(r, phases=None) -> "SpherePoint":
        """The point `moduli_rows(r, phases)`."""
        return SpherePoint(moduli_rows(r, phases))


@dataclass(frozen=True)
class AdaptedFrame:
    """A sphere point with a unitary basis of its Hermitian orthocomplement."""

    x: SpherePoint
    e: np.ndarray  # shape (n, n+1); rows are the frame vectors

    def __post_init__(self):
        e = np.asarray(self.e, dtype=complex)
        n = self.x.n
        if e.shape != (n, n + 1):
            raise ValueError(f"frame must have shape {(n, n + 1)}, got {e.shape}")
        gram = e @ e.conj().T
        if not np.allclose(gram, np.eye(n), atol=NORM_TOL * 10):
            raise ValueError("frame rows are not orthonormal")
        if np.max(np.abs(e @ self.x.z.conj())) > NORM_TOL * 10:
            raise ValueError("frame rows are not orthogonal to the base point")
        object.__setattr__(self, "e", e)

    @property
    def n(self) -> int:
        return self.x.n


@dataclass(frozen=True)
class TangentVectorX:
    """Tangent data (theta, v) at a sphere point: fiber angle plus base
    displacement in frame coordinates C^n."""

    theta: float
    v: np.ndarray

    def __post_init__(self):
        v = _as_complex_vector(self.v)
        if not np.all(np.isfinite(v.view(float))) or not np.isfinite(self.theta):
            raise ValueError("tangent data must be finite")
        object.__setattr__(self, "v", v)


def frame_at(x: SpherePoint) -> AdaptedFrame:
    """Deterministic adapted frame at x.

    Drops the coordinate axis carrying the largest |x_i| (lowest index on
    ties), then Gram-Schmidts the remaining axes against x.  Two calls on
    identical input return bit-identical output.
    """
    z = x.z
    n = x.n
    drop = int(np.argmax(np.abs(z)))  # argmax takes the first maximizer
    rows = []
    basis = [z]
    for i in range(n + 1):
        if i == drop:
            continue
        v = np.zeros(n + 1, dtype=complex)
        v[i] = 1.0
        for b in basis:
            v = v - (b.conj() @ v) * b
        nrm = np.linalg.norm(v)
        v = v / nrm
        basis.append(v)
        rows.append(v)
    return AdaptedFrame(x=x, e=np.array(rows))


def chart_rows(f: AdaptedFrame, theta, V) -> np.ndarray:
    """Chart points e^{i theta} (x + sum_j v_j e_j) / || x + sum_j v_j e_j ||
    of every row v of the (S, n) array V, as an (S, n+1) array of unit rows;
    theta is one fiber angle or one per row.

    Normalized-affine chart: agrees with adapted (Heisenberg-type) local
    coordinates through second order at the origin, which is all the
    leading-term comparisons need.  Exact on the fiber: (theta, 0) maps to
    e^{i theta} x.
    """
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2 or V.shape[1] != f.n:
        raise ValueError(f"base displacements must be rows of length {f.n}")
    if V.size and np.max(np.linalg.norm(V, axis=1)) >= 1.0:
        raise ValueError("chart radius exceeded: ||v|| must be < 1")
    w = f.x.z + V @ f.e
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return np.exp(1j * np.asarray(theta, dtype=float)).reshape(-1, 1) * w


def moduli_rows(R, phases=None) -> np.ndarray:
    """Vectors z with |z_i|^2 = r_i / sum(r) and arg z_i = phases_i for the
    moduli r of a vector or of every row of an (N, n+1) array R (phases of
    the same shape, zero by default), unit to rounding; finite r_i of any
    size are accepted."""
    R = np.asarray(R, dtype=float)
    if np.any(R < -1e-15):
        raise ValueError("moduli-squared must be nonnegative")
    R = _unit_scaled(np.clip(R, 0.0, None))
    if phases is None:
        phases = np.zeros_like(R)
    return np.sqrt(R / R.sum(axis=-1, keepdims=True)) * np.exp(1j * np.asarray(phases, dtype=float))


def dist_proj(x: SpherePoint, y: SpherePoint) -> float:
    """Geodesic distance between the base points [x], [y]: arccos|<x,y>|."""
    ip = np.abs(np.vdot(x.z, y.z))
    return float(np.arccos(np.clip(ip, 0.0, 1.0)))


def bundle_volume(n: int) -> float:
    """pi^n / n!: the measure of the unit sphere S^{2n+1} divided by 2 pi,
    the volume against which sphere averages are normalized."""
    return math.pi**n / math.factorial(n)
