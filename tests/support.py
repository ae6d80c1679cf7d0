"""Weight systems, the torus action, a distance and chart points that only
the tests use."""

import numpy as np

from equiszego.actions import WeightSystem
from equiszego.geometry import SpherePoint, chart_rows
from equiszego.kernel import szego_eval


def level_weight_system(n: int) -> WeightSystem:
    """No fixed block, scaled circle acting with all weights 1: the isotypes
    are the full degree-k spaces (classical case)."""
    return WeightSystem(
        n=n, W_G=np.zeros((0, n + 1), dtype=int), W_T=np.ones((1, n + 1), dtype=int)
    )


def t_only_weight_system(n: int, weights) -> WeightSystem:
    """No fixed block, one circle with the given weights."""
    return WeightSystem(
        n=n, W_G=np.zeros((0, n + 1), dtype=int), W_T=np.array([weights], dtype=int)
    )


def act(ws: WeightSystem, p, x: SpherePoint) -> SpherePoint:
    """Act by the product-torus element with angle vector p (length d_P)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (ws.d_P,):
        raise ValueError(f"expected {ws.d_P} angles, got shape {p.shape}")
    return SpherePoint(np.exp(-1j * (p @ ws.W_P)) * x.z)


def angles(el) -> np.ndarray:
    """The angle vector 2 pi * turns of a stabilizer element."""
    return 2.0 * np.pi * np.array([float(t) for t in el.turns])


def dist_sphere(x: SpherePoint, y: SpherePoint) -> float:
    """Geodesic distance on X itself: arccos Re<x,y>."""
    ip = np.vdot(x.z, y.z).real
    return float(np.arccos(np.clip(ip, -1.0, 1.0)))


def chart_point(f, theta: float, v) -> SpherePoint:
    """The chart point of one displacement v at fiber angle theta."""
    return SpherePoint(chart_rows(f, theta, np.asarray(v, dtype=complex)[None, :])[0])


def rescaled_kernel(b, f, u1, u2, k: int) -> complex:
    """Kernel at the sqrt(k)-rescaled chart points of the tangent data u1,
    u2 around the frame center."""
    sk = np.sqrt(float(k))
    return szego_eval(
        b, chart_point(f, u1.theta / sk, u1.v / sk), chart_point(f, u2.theta / sk, u2.v / sk)
    )
