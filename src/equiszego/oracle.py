"""Independent reference computations gating the main build.

Everything here is deliberately dumb and route-independent: exhaustive
lattice scans, exact rational arithmetic, closed-form sphere moments, plain
Monte Carlo.  Main-path results are accepted only where they agree with
these references.
"""

import ctypes
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .actions import WeightSystem
from .hardy import IsotypeBasis

_PRECISION_BITS = 4096


def _fix_heap_thresholds():
    """Fix glibc's mmap and trim thresholds at 32 and 128 MiB unless the
    environment sets them.  Left to adapt, they follow the largest array
    freed so far, and in some heap layouts glibc then trims a scan's ~1 MB
    temporaries from the heap top after every call, so the next one faults
    them back in: ~1,700 faults, a quarter of its time."""
    env = " ".join(os.environ) + os.environ.get("GLIBC_TUNABLES", "")
    if sys.platform == "linux" and "malloc" not in env.lower():
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


_fix_heap_thresholds()


# ---------------------------------------------------------------------------
# exhaustive lattice scans
# ---------------------------------------------------------------------------

def required_scan_bound(ws: WeightSystem, nu_T, k: int) -> int:
    """Upper bound on |J| attainable in the (., k nu_T) isotype, exactly: for
    the integer positive functional psi, every such J has
    |J| min_i psi . w_i <= psi . W_T J = k psi . nu_T.  Any scan bound must
    be at least this."""
    psi = ws.integer_functional
    gap = min(sum(p * w for p, w in zip(psi, col)) for col in ws.W_T.T.tolist())
    return max(0, int(k) * sum(p * int(v) for p, v in zip(psi, nu_T)) // gap)


def _degree_ordered(width: int, bound: int):
    """All J >= 0 in Z^width with |J| <= bound, ordered by |J|: the list of
    their columns, the array of their degrees, and the numbers
    C(r + width, width) of those with |J| <= r, which come first.  No sort: a
    J of degree d is one of width - 1 and degree <= d (the first ones
    listed), completed by d minus its degree."""
    cols, deg = [], np.zeros(1, dtype=np.int64)
    sizes = np.ones(bound + 1, dtype=np.int64)  # C(d + w, w): the J of width w, degree <= d
    for _ in range(width):
        ends = np.cumsum(sizes)
        pick = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
        deg = np.repeat(np.arange(bound + 1), sizes)
        cols = [c[pick] for c in cols]
        cols, sizes = cols + [deg - sum(cols)], ends
    return cols, deg, sizes.tolist()


def _combine(cols, weights, deg, const=0):
    """const + sum_j weights[j] cols[j], shaped like deg; numpy has no int64 BLAS."""
    return sum((c if w == 1 else c * w for c, w in zip(cols, weights) if w), np.full_like(deg, const))


def _scan_degrees(ws: WeightSystem, nu_G, bound: int):
    """Naive scan of all J >= 0 with |J| <= bound.

    Returns {W_T J as tuple: multiplicity} aggregated over the J with
    W_G J = nu_G.  J splits into leading coordinates (the prefix) and the
    last two, or the only one when n = 0 (the tail).  The tails with
    |tail| <= bound are listed once, ordered by degree, as columns.  The slab
    of a prefix p is the first C(r + w, w) tails, with r = bound - |p| and w
    the tail width, where the tail's W_G image is nu_G - W_G p.

    Every W_T J lies in the box bound * [min(W_T, 0), max(W_T, 0)] row by
    row.  While the box has at most max(4096, 8 x tails) cells, its linear
    mixed-radix codes index one histogram.  Each tail is coded once, by
    column sums; with d_G > 0 the code is led by a digit for the rank of the
    tail's W_G image among the prefixes' needs.  Walked by ascending r, a
    running tally takes the tails of each degree once, and a prefix adds its
    need's block of it, over the codes seen so far, at its offset.  A wider
    box or tally is tallied by np.unique on each slab.  The walk is a plain
    loop: a closure would hold the tails in a cycle.
    """
    lead = max(ws.n - 1, 0)
    width = ws.n + 1 - lead
    tails, tail_deg, sizes = _degree_ordered(width, bound)
    prefixes, prefix_deg, _ = _degree_ordered(lead, bound)
    W_T, W_G = ws.W_T.tolist(), ws.W_G.tolist()
    residual = (bound - prefix_deg).tolist()
    lo = [bound * min(*row, 0) for row in W_T]
    span = [bound * max(*row, 0) - a + 1 for row, a in zip(W_T, lo)]
    radix = [math.prod(span[:i]) for i in range(ws.d_T)]
    # W_G images, needs first; a tail no prefix needs ranks after the needs
    images_G = [np.concatenate([_combine(prefixes, [-w for w in row[:lead]], prefix_deg, v),
                                _combine(tails, row[lead:], tail_deg)])
                for row, v in zip(W_G, np.atleast_1d(nu_G).tolist())]
    span_G = [int(np.ptp(x)) + 1 for x in images_G]
    limit = max(4096, 8 * sizes[-1])
    dense = math.prod(span) <= limit and math.prod(span_G) < 2**62
    if dense:
        unit = [sum(r * row[j] for r, row in zip(radix, W_T)) for j in range(ws.n + 1)]
        code = _combine(tails, unit[lead:], tail_deg, -sum(a * r for a, r in zip(lo, radix)))
        first = [0] + sizes[:-1]  # the tails of degree r start at first[r]
        least = np.minimum.accumulate(np.minimum.reduceat(code, first)).tolist()
        most = (np.maximum.accumulate(np.maximum.reduceat(code, first)) + 1).tolist()
        key, offsets, blocks = code, [0] * len(residual), 1
        if ws.d_G:
            radix_G = [math.prod(span_G[:i]) for i in range(ws.d_G)]
            code_G = _combine([x - x.min() for x in images_G], radix_G, images_G[0])
            used = np.unique(code_G[:len(residual)])
            rank = np.minimum(np.searchsorted(used, code_G), used.shape[0] - 1)
            rank[used[rank] != code_G] = used.shape[0]
            key = rank[len(residual):] * most[-1] + code
            offsets = (rank[:len(residual)] * most[-1]).tolist()
            blocks = used.shape[0] + 1
        dense = blocks * most[-1] <= limit
    if dense:
        hist = np.zeros(math.prod(span), dtype=np.int64)
        run = np.zeros(blocks * most[-1], dtype=np.int64)
        starts = _combine(prefixes, unit[:lead], prefix_deg).tolist()
        done = 0
        for i, r in reversed(list(enumerate(residual))):
            np.add.at(run, key[done:sizes[r]], 1)
            done, a, b = sizes[r], least[r], most[r]
            hist[starts[i] + a:starts[i] + b] += run[offsets[i] + a:offsets[i] + b]
        keys = lo + (np.flatnonzero(hist)[:, None] // radix) % span
        return dict(zip(map(tuple, keys.tolist()), hist[hist > 0].tolist()))
    tail_T = np.column_stack([_combine(tails, row[lead:], tail_deg) for row in W_T])
    shift_T = np.column_stack([_combine(prefixes, row[:lead], prefix_deg) for row in W_T])
    G = np.column_stack(images_G) if ws.d_G else None
    counts = {}
    for i, r in enumerate(residual):
        keep = np.all(G[len(residual):][:sizes[r]] == G[i], axis=1) if ws.d_G else slice(None)
        found, mult = np.unique(tail_T[:sizes[r]][keep], axis=0, return_counts=True)
        for key, c in zip(map(tuple, (found + shift_T[i]).tolist()), mult.tolist()):
            counts[key] = counts.get(key, 0) + c
    return counts


def brute_dim(ws: WeightSystem, nu_G, nu_T, k: int, bound: int) -> int:
    """Isotype dimension by exhaustive scan over all |J| <= bound."""
    return int(brute_dim_range(ws, nu_G, nu_T, k, bound)[k])


def brute_dim_range(ws: WeightSystem, nu_G, nu_T, k_max: int, bound: int) -> np.ndarray:
    """Dimensions for every k = 0..k_max from a single exhaustive scan."""
    need = required_scan_bound(ws, nu_T, k_max)
    if bound < need:
        raise ValueError(f"scan bound {bound} below attainable degree {need}")
    counts = _scan_degrees(ws, nu_G, bound)
    keys = np.outer(np.arange(k_max + 1), np.atleast_1d(np.asarray(nu_T, dtype=np.int64)))
    return np.array([counts.get(key, 0) for key in map(tuple, keys.tolist())], dtype=np.int64)


# ---------------------------------------------------------------------------
# exact and high-precision kernel references
# ---------------------------------------------------------------------------

def exact_diag_rational(b: IsotypeBasis, r) -> Fraction:
    """pi^n times the diagonal kernel value at a point with rational
    moduli-squared r (summing to 1); exact rational arithmetic.

    The float kernel must match Fraction / pi^n to 1e-12 relative.
    """
    r = [Fraction(v) for v in r]
    if sum(r) != 1:
        raise ValueError("moduli-squared must sum to 1 exactly")
    total = Fraction(0)
    for J in b.J_matrix.tolist():
        if sum(J) > 60:
            raise ValueError("exact oracle restricted to |J| <= 60")
        c = Fraction(math.factorial(sum(J) + b.n))
        for j in J:
            c /= math.factorial(j)
        term = c
        for ri, j in zip(r, J):
            term *= ri**j
        total += term
        if total.numerator.bit_length() > _PRECISION_BITS:
            raise OverflowError("precision budget exceeded")
    return total


def hp_kernel(b: IsotypeBasis, r_x, ph_x, r_y, ph_y, dps: int = 50):
    """Kernel value at points given by rational moduli-squared and rational
    phases (fractions of a turn), evaluated with dps-digit arithmetic.

    Exact inputs, high-precision evaluation: the value itself is algebraic
    (square roots of rationals times roots of unity), so the reference is
    certified well beyond the 1e-12 comparisons it backs.
    """
    import mpmath  # only this reference needs it; kept off the import path

    with mpmath.workdps(dps):
        rx = [mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator for v in r_x]
        ry = [mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator for v in r_y]
        total = mpmath.mpc(0)
        for J in b.J_matrix.tolist():
            c = mpmath.mpf(math.factorial(sum(J) + b.n))
            for j in J:
                c /= math.factorial(j)
            c /= mpmath.pi**b.n
            mag = mpmath.mpf(1)
            ang = mpmath.mpf(0)
            for j, (rxi, ryi, pxi, pyi) in enumerate(zip(rx, ry, ph_x, ph_y)):
                jj = J[j]
                if jj == 0:
                    continue
                if rxi == 0 or ryi == 0:
                    mag = mpmath.mpf(0)
                    break
                mag *= mpmath.sqrt(rxi * ryi) ** jj
                ang += 2 * mpmath.pi * jj * (Fraction(pxi) - Fraction(pyi))
            total += c * mag * mpmath.exp(1j * ang)
        return complex(total)


def level_kernel_closed(n: int, k: int, x, y) -> complex:
    """Closed form of the full level-k kernel on projective n-space at the
    sphere points x, y: ((k+n)!/(pi^n k!)) <x,y>^k with
    <x,y> = sum_i x_i conj(y_i).

    Equals the full-degree monomial sum by the multinomial theorem; the
    independent reference for the summation path.
    """
    u = complex(np.sum(x.z * np.conj(y.z)))
    logc = math.lgamma(k + n + 1) - math.lgamma(k + 1) - n * math.log(math.pi)
    if u == 0:
        return 0.0 if k >= 1 else complex(math.exp(logc))
    return complex(np.exp(logc + k * np.log(abs(u))) * np.exp(1j * k * np.angle(u)))


# ---------------------------------------------------------------------------
# Stirling reference forms for the two worked examples
# ---------------------------------------------------------------------------

def stirling_p1(b: int, nu_G: int) -> float:
    """Stirling approximation of the factorial ratio
    (2b + nu + 1)! / ((b + nu)! b!):

        (2/sqrt(pi)) sqrt(b) (1/y)^(b+nu) (1/(1-y))^b,  y = (b+nu)/(2b+nu).

    Note the target carries no 1/pi: this approximates the bare factorial
    ratio, not the pi-normalized kernel coefficient.
    """
    if b < 1:
        raise ValueError("b >= 1 required")
    y = (b + nu_G) / (2.0 * b + nu_G)
    logv = (
        math.log(2.0 / math.sqrt(math.pi))
        + 0.5 * math.log(b)
        + (b + nu_G) * math.log(1.0 / y)
        + b * math.log(1.0 / (1.0 - y))
    )
    return math.exp(logv)


def stirling_p1_limit(b: int) -> float:
    """The published growth form 2 sqrt(b/pi) for the first worked example.

    It is in the unit-mass normalization: the limit of pi K(x, x), the
    kernel for the sphere measure of total mass 1 (what exact_diag_rational
    returns at n = 1).  The package's kernel K(x, x) tends to this divided
    by the bundle volume pi^n/n! (= pi here), i.e. (2/pi) sqrt(b/pi);
    acceptance criterion 1 and `equi-szego example p1` convert it so.
    """
    return 2.0 * math.sqrt(b / math.pi)


def stirling_p2(c: int, nu1: int, nu2: int) -> float:
    """Stirling approximation of the full normalized coefficient
    (3c + nu1 + 2 nu2 + 2)! / (pi^2 (c+nu1+nu2)! (c+nu2)! c!):

        (9 sqrt(3) c / (2 pi^3)) prod_d [(3c+s)/(c+d)]^(c+d),

    with s = nu1 + 2 nu2 and d running over {nu1+nu2, nu2, 0}.
    """
    if c < 1:
        raise ValueError("c >= 1 required")
    s = nu1 + 2 * nu2
    logv = math.log(9.0 * math.sqrt(3.0) * c / (2.0 * math.pi**3))
    for d in (nu1 + nu2, nu2, 0):
        logv += (c + d) * math.log((3.0 * c + s) / (c + d))
    return math.exp(logv)


def stirling_p2_limit(c: int, nu1: int, nu2: int) -> float:
    """The published diagonal limit (9 sqrt(3) c / 2 pi^3) 3^-(nu1+2*nu2)
    for the second worked example.

    Its prefactor is already in the package's normalization (coefficient
    (|J|+n)!/(pi^n J!)), but the factor 3^-(nu1+2*nu2) is cancelled by the
    factorial shifts: stirling_p2 times |x^J|^2 = 3^-(3c+nu1+2 nu2) tends to
    the character-free stirling_p2_limit_nu_free.  Acceptance criterion 2
    compares against that form and asserts this one's offset 3^(nu1+2*nu2).
    """
    return 9.0 * math.sqrt(3.0) * c / (2.0 * math.pi**3) * 3.0 ** (-(nu1 + 2 * nu2))


def stirling_p2_limit_nu_free(c: int) -> float:
    """Character-independent diagonal limit (9 sqrt(3) c / 2 pi^3) of the
    second worked example, the form exact evaluation actually converges to."""
    return 9.0 * math.sqrt(3.0) * c / (2.0 * math.pi**3)


# ---------------------------------------------------------------------------
# sphere integration
# ---------------------------------------------------------------------------

def _uniform_sphere(n: int, samples: int, seed: int):
    """(S, n+1) complex array of uniform points of S^{2n+1}, and the bundle
    volume (Euclidean surface measure divided by 2 pi) they integrate
    against."""
    if samples < 10**3:
        raise ValueError("use at least 1e3 samples")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((samples, n + 1)) + 1j * rng.standard_normal((samples, n + 1))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w, math.pi**n / math.factorial(n)


def mc_sphere_integral(g, n: int, samples: int, seed: int):
    """Monte Carlo estimate of the integral of g against the bundle volume.

    g is called on an (S, n+1) complex array of sphere points and must
    return S values.  Returns (estimate, stderr).
    """
    w, vol = _uniform_sphere(n, samples, seed)
    vals = np.asarray(g(w))
    est = vol * float(np.mean(vals.real))
    err = vol * float(np.std(vals.real, ddof=1) / math.sqrt(samples))
    if np.iscomplexobj(vals) and np.max(np.abs(vals.imag)) > 0:
        est_im = vol * float(np.mean(vals.imag))
        err_im = vol * float(np.std(vals.imag, ddof=1) / math.sqrt(samples))
        return complex(est, est_im), err + err_im
    return est, err


# Samples per chunk of mc_gram's sums.
_MC_CHUNK = 1 << 15


def mc_gram(sections, f, n: int, samples: int, seed: int):
    """Monte Carlo Gram matrix G[i, j] = integral of f s_i conj(s_j) against
    the bundle volume, Hermitian-symmetrized.

    sections maps an (S, n+1) complex array of sphere points to the (S, dim)
    section values there, and f maps it to S real weights.  Returns (G, err),
    err being the per-entry standard error of the modulus.
    """
    w, vol = _uniform_sphere(n, samples, seed)
    G = second = 0.0
    # sums over chunks of the samples, so that the (S, dim) section values
    # are never held for all of them at once
    for s in range(0, samples, _MC_CHUNK):
        Z = w[s:s + _MC_CHUNK]
        V = np.asarray(sections(Z))
        fv = np.asarray(f(Z))
        G = G + V.T @ (fv[:, None] * V.conj())
        # spread of f s_i conj(s_j) without materializing the (S, dim, dim)
        # tensor: E|.|^2 = E[f^2 |s_i|^2 |s_j|^2]
        A = np.abs(V) ** 2
        second = second + ((fv**2)[:, None] * A).T @ A
    G = vol / samples * G
    second = vol**2 / samples * second
    err = np.sqrt(np.maximum(second - np.abs(G) ** 2, 0.0) / samples)
    return 0.5 * (G + G.conj().T), 0.5 * (err + err.T)


def dirichlet_moment(J, n: int) -> float:
    """Closed-form monomial moment on the Euclidean sphere:
    integral over S^{2n+1} of prod |z_i|^{2 J_i} = 2 pi^{n+1} J!/(n+|J|)!."""
    J = [int(j) for j in J]
    logv = (
        math.log(2.0)
        + (n + 1) * math.log(math.pi)
        + sum(math.lgamma(j + 1) for j in J)
        - math.lgamma(n + sum(J) + 1)
    )
    return math.exp(logv)


def dirichlet_moment_frac(J, n: int) -> Fraction:
    """The rational part of the moment: dirichlet_moment = frac * pi^{n+1}."""
    J = [int(j) for j in J]
    out = Fraction(2)
    for j in J:
        out *= math.factorial(j)
    return out / math.factorial(n + sum(J))
