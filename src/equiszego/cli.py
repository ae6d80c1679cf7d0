"""Config-driven experiment runner.

Every acceptance-style experiment is reproducible from a JSON config:

    equi-szego <dim|diag|decay|profile|toeplitz> --config cfg.json
               [--format csv|json] [--out PATH] [--threads N] [--seed S]
    equi-szego example <p1|p2> [--format csv|json] [--out PATH]

Exit codes: 0 success, 2 config error, 3 assumption violation.  CSV bodies
are byte-identical across reruns of the same config and seed; '#'-prefixed
header lines carry the config hash, the seed (not for `example`, whose
output no seed affects) and a tag naming the quantity.
"""

import argparse
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, hardy, kernel, oracle, toeplitz
from .actions import WeightSystem, locus_center, locus_distance, locus_sample
from .asymptotics import diagonal_leading, fit_exponent, locus_data
from .errors import (
    AssumptionViolation,
    ConfigError,
    EquiSzegoError,
    config_integer,
    config_real,
)
from .geometry import SpherePoint, TangentVectorX, bundle_volume, chart_rows, frame_at
from .presets import PRESETS
from .toeplitz import RadialPolynomial, parse_f_spec

# Displacements are compared with the asymptotics only within
# WINDOW_CONSTANT * k^{1/9} of the center.
WINDOW_CONSTANT = 2.5

# A k range may select at most this many k; the check runs before any list
# of them is built.
MAX_K_VALUES = 10**6

# Larger locus quadratures and displacement lists are refused at parse time,
# because their arrays grow with the count: a typo such as 1e9 would hang
# or exhaust memory.
MAX_LOCUS_NODES = 10**5
MAX_T_STEPS = 10**4

# The dim table's oracle scan lists every tail (the last two coordinates of
# J) and every prefix (the others) with |.| up to its bound at once.  With
# one W_G row its peak is ~80 bytes a tail and ~240 a prefix, so a scan with
# more rows of either kind than this is refused before it starts.
MAX_SCAN_ROWS = 4 * 10**6

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    n: int
    W_G: np.ndarray
    W_T: np.ndarray
    nu_G: list
    nu_T: list
    k_values: list
    points: list = field(default_factory=lambda: [{"name": "locus-center"}])
    f: RadialPolynomial | None = None
    seed: int = 0
    out: str | None = None
    t_max: float = 1.5
    t_steps: int = 6
    locus_nodes: int = 64
    raw: dict = field(default_factory=dict)

    def weight_system(self) -> WeightSystem:
        return WeightSystem(n=self.n, W_G=self.W_G, W_T=self.W_T)

    def resolve_point(self, spec) -> SpherePoint:
        if isinstance(spec, dict) and spec.get("name") == "locus-center":
            return locus_center(self.weight_system(), self.nu_T)
        if isinstance(spec, dict) and "coords" in spec:
            return SpherePoint.from_coords([complex(a, bb) for a, bb in spec["coords"]])
        if isinstance(spec, dict) and "moduli" in spec:
            return SpherePoint.from_moduli(spec["moduli"], spec.get("phases"))
        raise ConfigError(f"unrecognized point spec: {spec!r}")

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()[:16]


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"missing required key '{path}{key}'")
    return d[key]


def _weight_matrix(rows, key: str, n: int) -> np.ndarray:
    """Rows of n+1 integer weights as an int64 array."""
    flat = [config_integer(v, key) for v in np.ravel(np.array(rows, dtype=object))]
    return np.array(flat, dtype=np.int64).reshape(-1, n + 1)


def _k_values(d: dict) -> list:
    if "k_list" in d:
        ks = [config_integer(k, "k_list") for k in d["k_list"]]
        if not ks:
            raise ConfigError("'k_list' must be nonempty")
    elif "k_min" in d or "k_max" in d:
        lo = config_integer(_require(d, "k_min", ""), "k_min")
        hi = config_integer(_require(d, "k_max", ""), "k_max")
        if "k_congruence" in d:
            r, m = (config_integer(v, "k_congruence") for v in d["k_congruence"])
            if m < 1:
                raise ConfigError(f"'k_congruence' modulus must be positive, got {m}")
            ks = range(lo + (r - lo) % m, hi + 1, m)
        else:
            step = config_integer(d.get("k_step", 1), "k_step")
            if step < 1:
                raise ConfigError(f"'k_step' must be positive, got {step}")
            ks = range(lo, hi + 1, step)
        if not ks:
            raise ConfigError(f"k range {lo}..{hi} selects no k")
        if ks[MAX_K_VALUES:]:  # unlike len(), a slice works past 2**63 values
            raise ConfigError(f"k range {lo}..{hi} selects more than {MAX_K_VALUES} k")
        ks = list(ks)
    else:
        raise ConfigError("config needs 'k_list' or 'k_min'/'k_max'")
    if any(k < 0 for k in ks):
        raise ConfigError(f"k values must be nonnegative, got {min(ks)}")
    return ks


def _check_points(points, n: int):
    if not isinstance(points, list) or len(points) != 1:
        raise ConfigError("'points' must be a list of exactly one point")
    spec = points[0]
    if not isinstance(spec, dict):
        return  # resolve_point names the unrecognized spec
    for key in ("coords", "moduli", "phases"):
        if key in spec and len(spec[key]) != n + 1:
            raise ConfigError(
                f"point '{key}' needs n+1 = {n + 1} entries, got {len(spec[key])}"
            )
    if "coords" in spec:
        z = [complex(config_real(a, "coords"), config_real(b, "coords"))
             for a, b in spec["coords"]]
        if not any(z):
            raise ConfigError("point 'coords' must not all be zero")
    if "moduli" in spec:
        r = [config_real(v, "moduli") for v in spec["moduli"]]
        if min(r) < 0 or not any(r):
            raise ConfigError("point 'moduli' must be nonnegative and not all zero")
    for v in spec.get("phases", ()):
        config_real(v, "phases")


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        n = config_integer(_require(d, "n", ""), "n")
        if n < 1:
            raise ConfigError(f"'n' must be at least 1, got {n}")
        cfg = ExperimentConfig(
            n=n,
            W_G=_weight_matrix(d.get("W_G", []), "W_G", n),
            W_T=_weight_matrix(_require(d, "W_T", ""), "W_T", n),
            nu_G=[config_integer(v, "nu_G") for v in d.get("nu_G", [])],
            nu_T=[config_integer(v, "nu_T") for v in _require(d, "nu_T", "")],
            k_values=_k_values(d),
            points=d.get("points", [{"name": "locus-center"}]),
            f=parse_f_spec(d.get("f"), n),
            seed=config_integer(d.get("seed", 0), "seed"),
            out=d.get("out"),
            t_max=config_real(d.get("t_max", 1.5), "t_max"),
            t_steps=config_integer(d.get("t_steps", 6), "t_steps"),
            locus_nodes=config_integer(d.get("locus_nodes", 64), "locus_nodes"),
            raw=d,
        )
        _check_points(cfg.points, n)
        if cfg.seed < 0:
            raise ConfigError(f"'seed' must be nonnegative, got {cfg.seed}")
        if not 0 <= cfg.t_steps <= MAX_T_STEPS:
            raise ConfigError(f"'t_steps' must be in 0..{MAX_T_STEPS}, got {cfg.t_steps}")
        if not 1 <= cfg.locus_nodes <= MAX_LOCUS_NODES:
            raise ConfigError(
                f"'locus_nodes' must be in 1..{MAX_LOCUS_NODES}, got {cfg.locus_nodes}"
            )
        ws = cfg.weight_system()  # validates the positivity assumption
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    if len(cfg.nu_G) != ws.d_G or len(cfg.nu_T) != ws.d_T:
        raise ConfigError(
            f"'nu_G' and 'nu_T' need d_G = {ws.d_G} and d_T = {ws.d_T} entries, "
            f"got {len(cfg.nu_G)} and {len(cfg.nu_T)}"
        )
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at {path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(d)


# ---------------------------------------------------------------------------
# runners; each returns (meta, columns, rows)
# ---------------------------------------------------------------------------

def _dim_row(args):
    raw, k = args
    cfg = config_from_dict(raw)
    ws = cfg.weight_system()
    return k, hardy.dim_isotype(ws, cfg.nu_G, cfg.nu_T, k)


def run_dim_table(cfg: ExperimentConfig, threads: int = 1):
    ws = cfg.weight_system()
    quad = locus_sample(ws, cfg.nu_T, cfg.locus_nodes, cfg.seed)  # refuses a non-free locus up front
    k_max = max(cfg.k_values)
    bound = oracle.required_scan_bound(ws, cfg.nu_T, k_max)
    lead = max(ws.n - 1, 0)
    tails, prefixes = math.comb(bound + ws.n + 1 - lead, bound), math.comb(bound + lead, bound)
    if max(tails, prefixes) > MAX_SCAN_ROWS:
        raise AssumptionViolation(
            f"the oracle scan to degree {bound} needs {tails} tails and {prefixes} prefixes;"
            f" the limit is {MAX_SCAN_ROWS} of each"
        )
    oracle_dims = oracle.brute_dim_range(ws, cfg.nu_G, cfg.nu_T, k_max, bound)
    dims = dict(_pmap(_dim_row, [(cfg.raw, k) for k in cfg.k_values], threads))
    one = RadialPolynomial.constant(1.0, cfg.n)
    C = toeplitz.trace_prediction(ws, one, quad)[0]
    expo = ws.n - ws.d_P + 1
    nu_norm = float(np.linalg.norm(np.asarray(cfg.nu_T, dtype=float)))
    rows = []
    running, terms = 0.0, 0
    for k in sorted(cfg.k_values):
        scale = (nu_norm * k / np.pi) ** expo
        mean = float("nan")  # the scaled count dim / k^expo is undefined at k = 0
        if k > 0:
            running += dims[k] / scale
            terms += 1
            mean = running / terms
        rows.append([k, dims[k], int(oracle_dims[k]), C * scale, mean])
    meta = {
        "quantity": "isotype-dimension-table",
        "dim_constant": C,
        "k_exponent": expo,
    }
    return meta, ["k", "dim", "oracle_dim", "prediction", "cesaro_mean"], rows


def _diag_row(args):
    """(k, log K(x, x)) of one diag or decay row, from the config's raw dict."""
    raw, k = args
    cfg = config_from_dict(raw)
    ws = cfg.weight_system()
    x = cfg.resolve_point(cfg.points[0])
    b = hardy.build_basis(ws, cfg.nu_G, cfg.nu_T, k)
    return k, kernel.log_szego_diag(b, x)


def run_diag_scan(cfg: ExperimentConfig, threads: int = 1):
    ws = cfg.weight_system()
    ld = locus_data(ws, frame_at(cfg.resolve_point(cfg.points[0])), cfg.nu_T)
    logs = _pmap(_diag_row, [(cfg.raw, k) for k in cfg.k_values], threads)
    values = {k: 0.0 if v == -np.inf else float(np.exp(v)) for k, v in logs}  # as szego_diag
    rows = []
    fit_pts = []
    for k in sorted(cfg.k_values):
        pred = diagonal_leading(ld, cfg.nu_G, k)
        diag = values[k]
        pred_abs = abs(pred)
        ratio = diag / pred_abs if pred_abs > 0 else float("nan")
        if diag > 0 and k > 0:  # log k is undefined at k = 0
            fit_pts.append((k, diag))
        slope = float("nan")
        if len(fit_pts) >= 4:
            slope, _, _ = fit_exponent(fit_pts)
        rows.append([k, diag, pred_abs, ratio, slope])
    meta = {
        "quantity": "diagonal-growth-scan",
        "k_exponent_predicted": asymptotics.diag_k_exponent(ws.n, ws.d_P),
    }
    return meta, ["k", "diag_value", "leading_prediction", "ratio", "fitted_exponent"], rows


def run_decay_scan(cfg: ExperimentConfig, threads: int = 1):
    ws = cfg.weight_system()
    x = cfg.resolve_point(cfg.points[0])
    # exact: to the nearest locus point
    dist = locus_distance(ws, x, cfg.nu_T)
    values = dict(_pmap(_diag_row, [(cfg.raw, k) for k in cfg.k_values], threads))
    rows = []
    pts = []
    for k in sorted(cfg.k_values):
        logdiag = values[k]
        rate = float("nan")
        if np.isfinite(logdiag) and k > 0:  # log k is undefined at k = 0
            pts.append((k, logdiag))
        if len(pts) >= 4:
            ks = np.array([p[0] for p in pts], dtype=float)
            ys = np.array([p[1] for p in pts])
            # the off-locus prefactor k^p is unknown in general: fit p freely
            A = np.vstack([ks, np.log(ks), np.ones_like(ks)]).T
            rate = float(np.linalg.lstsq(A, ys, rcond=None)[0][0])
        rows.append([k, dist, logdiag, rate])
    meta = {"quantity": "off-locus-decay-scan", "dist_to_locus": dist}
    return meta, ["k", "dist_to_locus", "log_diag", "fitted_decay_rate"], rows


def _displacements(cfg: ExperimentConfig) -> np.ndarray:
    """The profile displacements t in [0, t_max].  Each is taken at distance
    t / sqrt(k) from the point, inside the unit chart, so t_max^2 < k.
    Warns once when a displacement leaves the k^{1/9} comparison window of
    the smallest k, where the asymptotics are not claimed."""
    k_min = min(cfg.k_values)
    if cfg.t_max**2 >= k_min:
        raise ConfigError(
            f"profile runs need t_max < sqrt(k) for every k; got t_max = {cfg.t_max} at k = {k_min}"
        )
    ts = np.linspace(0.0, cfg.t_max, cfg.t_steps)
    if ts.size and ts[-1] > WINDOW_CONSTANT * float(k_min) ** (1.0 / 9.0):
        warnings.warn(
            f"displacement t = {ts[-1]} exceeds the k^(1/9) comparison window at k = {k_min}",
            stacklevel=3,
        )
    return ts


def _profile_setup(cfg: ExperimentConfig):
    """(displacements, locus data, chart displacements) shared by the
    profile runners: the chart displacement of t at level k is row t
    divided by sqrt(k), along the first transversal direction."""
    ts = _displacements(cfg)
    ld = locus_data(cfg.weight_system(), frame_at(cfg.resolve_point(cfg.points[0])), cfg.nu_T)
    if ld.Q.shape[1] == 0:
        raise AssumptionViolation("no transversal direction at this point")
    return ts, ld, np.outer(ts, 1j * ld.Q[:, 0])


def run_profile_scan(cfg: ExperimentConfig, threads: int = 1):
    ts, ld, V = _profile_setup(cfg)
    fr = ld.frame
    # H is a homogeneous quadratic, so H(t u, t u) = t^2 H(u, u)
    unit = TangentVectorX(0.0, 1j * ld.Q[:, 0])
    preds = np.exp(ts**2 * asymptotics.h_exponent_at(ld, unit, unit).real)
    rows = []
    for k in sorted(cfg.k_values):
        b = hardy.build_basis(ld.ws, cfg.nu_G, cfg.nu_T, k)
        base = kernel.szego_diag(b, fr.x)
        # on the diagonal |K(p, p)| = K(p, p): one diagonal sum per point
        for t, p, pred in zip(ts, chart_rows(fr, 0.0, V / np.sqrt(float(k))), preds):
            val = kernel.szego_diag(b, p)
            ratio = val / base if base > 0 else float("nan")
            rows.append([k, t, ratio, float(pred)])
    meta = {"quantity": "transversal-gaussian-profile", "lambda": ld.lam}
    return meta, ["k", "t", "kernel_ratio", "exp_H_prediction"], rows


def run_toeplitz(cfg: ExperimentConfig, threads: int = 1):
    ts, ld, V = _profile_setup(cfg)
    ws, fr = ld.ws, ld.frame
    quad_nodes = locus_sample(ws, cfg.nu_T, cfg.locus_nodes, cfg.seed)
    pred, pred_err = toeplitz.trace_prediction(ws, cfg.f, quad_nodes)
    gauss = np.exp(-2.0 * ld.lam * ts * ts)
    rows = []
    for k in sorted(cfg.k_values):
        b = hardy.build_basis(ws, cfg.nu_G, cfg.nu_T, k)
        M = toeplitz.toeplitz_matrix(b, cfg.f)[0]
        tr = toeplitz.toeplitz_trace(M) if b.dim else 0.0
        # copy the diagonal out so the matrix is unmapped before the next k's
        diag_vals = np.diag(M).real.copy()
        del M
        if b.dim == 0:
            rows.append([k, tr, 0, pred, float("nan"), float("nan"), float("nan")])
            continue
        pts = np.vstack([fr.x.z, chart_rows(fr, 0.0, V / np.sqrt(float(k)))])
        vals = np.exp(2.0 * hardy.log_moduli(b, pts)) @ diag_vals
        base = float(vals[0])
        for t, val, g in zip(ts, vals[1:], gauss):
            ratio = float(val) / base if base > 0 else float("nan")
            rows.append([k, tr, b.dim, pred, t, ratio, float(g)])
    meta = {
        "quantity": "toeplitz-trace-and-profile",
        "trace_prediction": pred,
        "trace_prediction_stderr": pred_err,
    }
    cols = ["k", "trace", "dim", "trace_prediction", "t", "near_diag_ratio", "near_diag_prediction"]
    return meta, cols, rows


def run_example(name: str):
    """End-to-end report for one of the two worked examples."""
    if name not in PRESETS:
        raise ConfigError(f"unknown example {name!r}; choose from {sorted(PRESETS)}")
    ws = PRESETS[name]()
    rows = []
    if name == "p1":
        nu_G, nu_T = [1], [1]
        x = locus_center(ws, nu_T)
        vol = bundle_volume(ws.n)
        bs = [25, 50, 100, 200, 400]
        for b in bs:
            k = 3 * b + 1
            basis = hardy.build_basis(ws, nu_G, nu_T, k)
            diag = kernel.szego_diag(basis, x)
            # the published limit is in the unit-mass normalization
            lim = oracle.stirling_p1_limit(b)
            coeff = np.exp(basis.log_c[0] + np.log(np.pi))
            st = oracle.stirling_p1(b, 1)
            rows.append(["diag", f"b={b}", diag, lim, diag / lim])
            norm = lim / vol
            rows.append(["diag-normalized", f"b={b}", diag, norm, diag / norm])
            rows.append(["stirling", f"b={b}", coeff, st, coeff / st])
        # off-locus decay at moduli 0.6 / 0.4: log diag = c0 + 0.5 log b +
        # rate * b, with the known sqrt(b) prefactor removed before the fit
        y = SpherePoint.from_moduli([0.6, 0.4])
        pts = []
        for b in range(100, 401):
            k = 3 * b + 1
            basis = hardy.build_basis(ws, nu_G, nu_T, k)
            pts.append((b, kernel.log_szego_diag(basis, y)))
        bsarr = np.array([p[0] for p in pts], dtype=float)
        ys = np.array([p[1] for p in pts]) - 0.5 * np.log(bsarr)
        A = np.vstack([bsarr, np.ones_like(bsarr)]).T
        slope = float(np.linalg.lstsq(A, ys, rcond=None)[0][0])
        rows.append(["decay", "slope of log diag - 0.5 log b vs b at r0=0.6", slope,
                     -np.log(25 / 24), slope / (-np.log(25 / 24))])
    else:
        nu_G, nu_T = [1, 1], [1]
        x = locus_center(ws, nu_T)
        for c in [25, 50, 100, 200]:
            k = 6 * c + 4
            basis = hardy.build_basis(ws, nu_G, nu_T, k)
            diag = kernel.szego_diag(basis, x)
            lim = oracle.stirling_p2_limit(c, 1, 1)
            lim_free = oracle.stirling_p2_limit_nu_free(c)
            rows.append(["diag", f"c={c}", diag, lim, diag / lim])
            rows.append(["diag-character-free", f"c={c}", diag, lim_free, diag / lim_free])
    meta = {"quantity": f"worked-example-report-{name}"}
    return meta, ["section", "label", "value", "reference", "ratio"], rows


RUNNERS = {
    "dim": run_dim_table,
    "diag": run_diag_scan,
    "decay": run_decay_scan,
    "profile": run_profile_scan,
    "toeplitz": run_toeplitz,
}


# ---------------------------------------------------------------------------
# output and plumbing
# ---------------------------------------------------------------------------

def _pmap(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor  # ~20 ms of import

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * threads))))


def _fmt(v) -> str:
    return format(v, ".12g") if isinstance(v, float) else str(v)  # any NaN: "nan"


def write_csv(fh, meta: dict, columns, rows):
    for key in sorted(meta):
        fh.write(f"# {key}: {_fmt(meta[key])}\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(fh, meta: dict, columns, rows):
    payload = {
        "meta": {k: meta[k] for k in sorted(meta)},
        "columns": list(columns),
        "rows": [[v if not isinstance(v, np.generic) else v.item() for v in row]
                 for row in rows],
    }
    json.dump(payload, fh, indent=1, sort_keys=True, default=_fmt)
    fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equi-szego",
        description="equivariant projector kernel experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)
        _output_flags(p)
    pex = sub.add_parser("example")
    pex.add_argument("name", nargs="?", default=None)
    _output_flags(pex)

    args = parser.parse_args(argv)
    try:
        if args.command == "example":
            if not args.name:
                raise ConfigError("example requires a name (p1 or p2)")
            meta, columns, rows = run_example(args.name)
            meta = dict(meta, config_hash=hashlib.sha256(args.name.encode()).hexdigest()[:16])
            out_path = args.out
        else:
            if args.seed is not None and args.seed < 0:
                raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
                cfg.raw = dict(cfg.raw, seed=args.seed)
            meta, columns, rows = RUNNERS[args.command](cfg, threads=args.threads)
            meta = dict(meta, config_hash=cfg.config_hash(), seed=cfg.seed)
            out_path = args.out or cfg.out
        if out_path:
            with open(out_path, "w") as fh:
                _write(fh, args.format, meta, columns, rows)
        else:
            _write(sys.stdout, args.format, meta, columns, rows)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EquiSzegoError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 3


def _output_flags(p):
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)


def _write(fh, fmt, meta, columns, rows):
    if fmt == "json":
        write_json(fh, meta, columns, rows)
    else:
        write_csv(fh, meta, columns, rows)


if __name__ == "__main__":
    sys.exit(main())
