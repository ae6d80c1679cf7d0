import numpy as np
import pytest

from equiszego.geometry import (
    AdaptedFrame,
    SpherePoint,
    chart_rows,
    dist_proj,
    frame_at,
)
from support import chart_point, dist_sphere


def random_unit(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return SpherePoint(z / np.linalg.norm(z))


def test_sphere_point_rejects_non_unit():
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0, 1.0]))


def test_sphere_point_refuses_non_finite_coordinates():
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [complex(0.6, np.nan), 0.8]):
        with pytest.raises(ValueError, match="finite unit vector"):
            SpherePoint(np.array(bad))
    with pytest.raises(ValueError, match="finite unit vector"):
        SpherePoint.from_moduli([np.nan, 1.0])
    with pytest.raises(ValueError, match="finite unit vector"):
        SpherePoint.from_moduli([0.5, 0.5], phases=[np.nan, 0.0])


def test_points_from_finite_vectors_of_any_size():
    z = np.array([0.3 + 0.1j, -0.7, 0.2j])
    r = np.array([0.5, 0.2, 0.3])
    ref, ref_r = SpherePoint.from_coords(z).z, SpherePoint.from_moduli(r).z
    # the plain normalization, bit for bit, at ordinary sizes and at every
    # power-of-two rescaling that stays normal
    assert ref.tobytes() == SpherePoint(z / np.linalg.norm(z)).z.tobytes()
    assert ref_r.tobytes() == SpherePoint(np.sqrt(r / r.sum()) + 0j).z.tobytes()
    for scale in (2.0**-1000, 2.0**1000):
        assert SpherePoint.from_coords(scale * z).z.tobytes() == ref.tobytes()
        assert SpherePoint.from_moduli(scale * r).z.tobytes() == ref_r.tobytes()
    for scale in (1e-300, 1e300):
        assert np.max(np.abs(SpherePoint.from_coords(scale * z).z - ref)) < 1e-15
        assert np.max(np.abs(SpherePoint.from_moduli(scale * r).z - ref_r)) < 1e-15
    # squares that underflow or overflow: a subnormal entry, a near-max one
    assert SpherePoint.from_coords([1e-320, 0.0]).z.tolist() == [1.0, 0.0]
    assert np.allclose(SpherePoint.from_coords([1e308, 1e308]).z, np.sqrt(0.5), atol=1e-15)
    assert np.allclose(SpherePoint.from_moduli([1e308, 1e308]).z, np.sqrt(0.5), atol=1e-15)


def test_frame_axis_point():
    f = frame_at(SpherePoint(np.array([1.0, 0.0])))
    assert np.allclose(f.e, [[0.0, 1.0]])


def test_frame_equal_moduli_point():
    x = SpherePoint(np.array([1.0, 1.0]) / np.sqrt(2))
    f = frame_at(x)
    w = f.e[0]
    assert abs(np.vdot(w, x.z)) < 1e-12
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12


def test_frame_invariants_random():
    x = random_unit(2, seed=7)
    f = frame_at(x)
    gram = f.e @ f.e.conj().T
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12
    assert np.max(np.abs(f.e @ x.z.conj())) < 1e-12


def test_frame_deterministic_bit_for_bit():
    x = random_unit(3, seed=11)
    f1 = frame_at(x)
    f2 = frame_at(x)
    assert f1.e.tobytes() == f2.e.tobytes()


def test_hlc_center_and_fiber():
    x = random_unit(2, seed=3)
    f = frame_at(x)
    assert np.allclose(chart_point(f, 0.0, np.zeros(2)).z, x.z, atol=1e-15)
    assert np.allclose(chart_point(f, np.pi / 2, np.zeros(2)).z, 1j * x.z, atol=1e-14)


def test_hlc_explicit_value():
    f = frame_at(SpherePoint(np.array([1.0, 0.0])))
    y = chart_point(f, 0.0, np.array([0.3]))
    assert np.allclose(y.z, np.array([1.0, 0.3]) / np.sqrt(1.09))


def test_hlc_chart_radius():
    f = frame_at(SpherePoint(np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        chart_point(f, 0.0, np.array([1.1]))


def test_chart_rows_are_hlc_points():
    x = random_unit(3, seed=4)
    f = frame_at(x)
    rng = np.random.default_rng(9)
    V = 0.3 * (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
    theta = rng.standard_normal(5)
    rows = chart_rows(f, theta, V)
    assert rows.shape == (5, 4)
    for th, v, row in zip(theta, V, rows):
        w = x.z + v @ f.e  # one chart point by its formula
        assert np.max(np.abs(row - np.exp(1j * th) * w / np.linalg.norm(w))) < 1e-15
    same = chart_rows(f, 0.7, V)  # one angle for every row
    assert np.max(np.abs(same - chart_rows(f, np.full(5, 0.7), V))) == 0.0
    assert chart_rows(f, 0.0, np.zeros((0, 3))).shape == (0, 4)
    with pytest.raises(ValueError):
        chart_rows(f, 0.0, np.vstack([V, [1.1, 0, 0]]))


def test_J_squares_to_minus_one_and_is_isometry():
    # in frame coordinates J is multiplication by i, g = Re<., .> is
    # symmetric and omega = Im<., .> antisymmetric, with g(a, b) = omega(a, J b)
    rng = np.random.default_rng(1)
    for _ in range(10):
        v, w = (r[:2] + 1j * r[2:] for r in rng.standard_normal((2, 4)))
        assert np.allclose(1j * (1j * v), -v, atol=1e-14)
        assert abs(np.vdot(1j * v, 1j * w).real - np.vdot(v, w).real) < 1e-12
        assert abs(np.vdot(v, w).real - np.vdot(v, 1j * w).imag) < 1e-12
        assert abs(np.vdot(v, w).real - np.vdot(w, v).real) < 1e-12
        assert abs(np.vdot(v, w).imag + np.vdot(w, v).imag) < 1e-12


def test_dist_proj_basics():
    x = SpherePoint(np.array([1.0, 0.0]))
    y = SpherePoint(np.array([0.0, 1.0]))
    assert dist_proj(x, x) == 0.0
    assert abs(dist_proj(x, y) - np.pi / 2) < 1e-15
    # fiber rotations are invisible on the base
    assert dist_proj(x, SpherePoint(np.exp(0.7j) * x.z)) < 1e-7


def test_dist_proj_symmetry_and_triangle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        pts = []
        for _ in range(3):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pts.append(SpherePoint(z / np.linalg.norm(z)))
        a, b, c = pts
        assert abs(dist_proj(a, b) - dist_proj(b, a)) < 1e-12
        assert dist_proj(a, c) <= dist_proj(a, b) + dist_proj(b, c) + 1e-12


def test_dist_sphere_vs_proj():
    x = random_unit(1, seed=17)
    y = SpherePoint(np.exp(1.0j) * x.z)
    assert dist_proj(x, y) < 1e-7
    assert dist_sphere(x, y) > 0.9  # the fiber distance is real on X


def omega_probe(f, a, b, eps):
    """Loop-phase estimate of the symplectic pairing through the chart:
    the phase of <c0,c1><c1,c2><c2,c0> over eps^2 tends to omega(a, b)."""
    c0 = f.x.z
    c1 = chart_point(f, 0.0, eps * a).z
    c2 = chart_point(f, 0.0, eps * b).z
    prod = np.vdot(c0, c1) * np.vdot(c1, c2) * np.vdot(c2, c0)
    return np.angle(prod) / eps**2


def test_chart_symplectic_second_order_agreement():
    f = frame_at(random_unit(2, seed=21))
    rng = np.random.default_rng(5)
    a, b = (r[:2] + 1j * r[2:] for r in rng.standard_normal((2, 4)))
    om = np.vdot(a, b).imag
    errs = []
    for eps in (1e-2, 1e-3):
        errs.append(abs(omega_probe(f, a, b, eps) - om))
    scale = max(1.0, abs(om))
    assert errs[0] <= 5.0 * 1e-2 * scale
    assert errs[1] <= 5.0 * 1e-3 * scale
    assert errs[1] < errs[0]
