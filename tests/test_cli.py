import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import equiszego
from equiszego.actions import WeightSystem
from equiszego.cli import (
    RUNNERS,
    _fmt,
    config_from_dict,
    load_config,
    main,
    run_decay_scan,
    run_diag_scan,
    run_dim_table,
    run_example,
    run_profile_scan,
    run_toeplitz,
)
from equiszego.asymptotics import h_exponent_at, locus_data
from equiszego.errors import ConfigError
from equiszego.geometry import TangentVectorX, frame_at
from equiszego.hardy import build_basis, log_sections
from equiszego.kernel import szego_diag
from equiszego.toeplitz import toeplitz_matrix
from support import chart_point, rescaled_kernel

P1_BASE = {
    "n": 1,
    "W_G": [[1, -1]],
    "W_T": [[1, 2]],
    "nu_G": [1],
    "nu_T": [1],
    "k_list": [4, 7, 10, 13, 16],
    "seed": 3,
}

# two equal T-rows: no point has a finite stabilizer
_EQUAL_ROWS = {"n": 1, "W_T": [[1, 1], [1, 1]], "nu_T": [1, 1], "k_list": [4, 6], "locus_nodes": 8}
# W_G r = 0 forces r_2 = r_3 = 0, so the G-row vanishes on every locus support
_FORCED_ZERO = {"n": 3, "W_G": [[0, 0, 1, 1]], "W_T": [[1, 1, 1, 2]], "nu_G": [0], "nu_T": [1],
                "k_list": [4, 6], "locus_nodes": 8, "t_steps": 2}

# the transversal benchmark config at small k
TRANSVERSAL = {
    "n": 3, "W_G": [[1, -1, 0, 0]], "W_T": [[1, 1, 1, 1]], "nu_G": [0], "nu_T": [1],
    "k_list": [12, 18], "t_steps": 32, "t_max": 1.5, "locus_nodes": 64,
    "f": {"radial": [[1, [1, 1, 0, 0]], [0.5, [0, 0, 1, 0]]]}, "seed": 1,
}


def write_cfg(tmp_path, d, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


def test_fmt_prints_floats_at_12_significant_digits():
    # format() already prints every NaN, signed or numpy, as "nan"
    cases = [(float("nan"), "nan"), (-float("nan"), "nan"), (np.float64("nan"), "nan"),
             (-np.float64("nan"), "nan"), (float("inf"), "inf"), (-np.inf, "-inf"),
             (np.float64(-np.inf), "-inf"), (2.0 / 3.0, "0.666666666667"),
             (np.float64(1e-300), "1e-300"), (7, "7"), ("x", "x")]
    for v, text in cases:
        assert _fmt(v) == text


def test_config_requires_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"n": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"n": 1, "W_T": [[1, 2]], "nu_T": [1]})  # no k spec


def test_config_k_forms():
    d = dict(P1_BASE)
    del d["k_list"]
    d.update({"k_min": 1, "k_max": 10, "k_congruence": [1, 3]})
    cfg = config_from_dict(d)
    assert cfg.k_values == [1, 4, 7, 10]
    d.update({"k_min": 2, "k_max": 8, "k_step": 3})
    del d["k_congruence"]
    assert config_from_dict(d).k_values == [2, 5, 8]


def test_config_k_congruence_lists_only_its_class():
    # the class is stepped through, not filtered out of every k in range
    d = {k: v for k, v in P1_BASE.items() if k != "k_list"}
    d.update({"k_min": 0, "k_max": 10**15, "k_congruence": [4, 10**15]})
    assert config_from_dict(d).k_values == [4]
    for lo, hi, r, m in ((0, 12, 4, 5), (3, 20, -1, 4), (5, 9, 17, 3), (2, 2, 2, 1), (7, 30, 0, 7)):
        d.update({"k_min": lo, "k_max": hi, "k_congruence": [r, m]})
        assert config_from_dict(d).k_values == [k for k in range(lo, hi + 1) if k % m == r % m]


def test_config_k_range_is_counted_before_it_is_listed(tmp_path):
    # more than 10^6 k are refused at once in both range forms, before any
    # list is built; exactly 10^6 are still accepted
    base = {k: v for k, v in P1_BASE.items() if k != "k_list"}
    for extra in ({"k_max": 10**9}, {"k_max": 10**9, "k_step": 2},
                  {"k_max": 10**9, "k_congruence": [1, 3]}, {"k_max": 10**30},
                  {"k_max": 10**6}):
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match="more than 1000000 k"):
            config_from_dict(dict(base, k_min=0, **extra))
        assert time.perf_counter() - t0 < 1.0
    assert len(config_from_dict(dict(base, k_min=1, k_max=10**6)).k_values) == 10**6
    cfg = write_cfg(tmp_path, dict(base, k_min=0, k_max=10**9))
    assert main(["dim", "--config", cfg]) == 2


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 1,\n  "W_T": [[1, 2],,]\n}')
    with pytest.raises(ConfigError) as exc:
        load_config(str(p))
    assert "bad.json:2" in str(exc.value)


def test_dim_table_matches_oracle():
    cfg = config_from_dict(P1_BASE)
    meta, cols, rows = run_dim_table(cfg)
    assert cols[:3] == ["k", "dim", "oracle_dim"]
    for row in rows:
        assert row[1] == row[2]
    dims = {row[0]: row[1] for row in rows}
    assert dims == {4: 1, 7: 1, 10: 1, 13: 1, 16: 1}


def test_diag_scan_rows():
    cfg = config_from_dict(dict(P1_BASE, k_list=[7, 13, 19, 25, 31, 37]))
    meta, cols, rows = run_diag_scan(cfg)
    assert meta["k_exponent_predicted"] == 0.5
    last = rows[-1]
    assert np.isfinite(last[4])  # running exponent fit appears
    for row in rows:
        assert row[1] > 0 and row[2] > 0


def test_decay_scan_rows():
    cfg = config_from_dict(
        dict(P1_BASE, points=[{"moduli": [0.6, 0.4]}], k_list=[301, 304, 307, 310, 313])
    )
    meta, cols, rows = run_decay_scan(cfg)
    assert meta["dist_to_locus"] > 0.01
    assert all(np.isfinite(r[2]) for r in rows)
    assert rows[-1][3] < 0  # decaying


def test_decay_scan_rate_fits_free_prefactor():
    # log diag = a + rate k + p log k; a plain linear fit in k gives 0.947
    # of the exact rate here, absorbing the log k term into the slope
    cfg = config_from_dict(
        dict(P1_BASE, points=[{"moduli": [0.6, 0.4]}], k_list=list(range(301, 1202, 3)))
    )
    meta, cols, rows = run_decay_scan(cfg)
    exact = -math.log(25 / 24) / 3
    assert abs(rows[-1][3] / exact - 1.0) < 0.01


def test_profile_scan_prediction_column():
    cfg = config_from_dict(dict(P1_BASE, nu_G=[0], k_list=[600], t_max=1.0, t_steps=3))
    meta, cols, rows = run_profile_scan(cfg)
    assert abs(meta["lambda"] - 2.0 / 3.0) < 1e-12
    for k, t, ratio, pred in rows:
        assert abs(ratio - pred) < 0.05 * max(pred, 1e-3)


def test_toeplitz_runner():
    cfg = config_from_dict(
        dict(
            P1_BASE,
            nu_G=[0],
            k_list=[300, 600],
            f={"radial": [[1.0, [1, 1]]]},
            t_max=1.0,
            t_steps=3,
        )
    )
    meta, cols, rows = run_toeplitz(cfg)
    assert "trace_prediction" in meta
    ks = {r[0] for r in rows}
    assert ks == {300, 600}
    for r in rows:
        assert abs(r[1] - 0.25) < 0.01  # trace near its limit


def test_transversal_runners_match_point_by_point_path():
    # the batched runners against one chart point, kernel value, exponent
    # and section sum per displacement
    cfg = config_from_dict(TRANSVERSAL)
    _, _, profile = run_profile_scan(cfg)
    _, _, near = run_toeplitz(cfg)
    ws = cfg.weight_system()
    x = cfg.resolve_point(cfg.points[0])
    fr = frame_at(x)
    ld = locus_data(ws, fr, cfg.nu_T)
    direction = 1j * ld.Q[:, 0]
    expected = []
    for k in cfg.k_values:
        b = build_basis(ws, cfg.nu_G, cfg.nu_T, k)
        base = szego_diag(b, x)
        d = np.diag(toeplitz_matrix(b, cfg.f)[0]).real
        near_base = np.sum(d * np.exp(2.0 * log_sections(b, x)[0]))
        for t in np.linspace(0.0, cfg.t_max, cfg.t_steps):
            u = TangentVectorX(0.0, t * direction)
            y = chart_point(fr, 0.0, u.v / math.sqrt(k))
            expected.append((
                k, t,
                abs(rescaled_kernel(b, fr, u, u, k)) / base,
                math.exp(h_exponent_at(ld, u, u).real),
                np.sum(d * np.exp(2.0 * log_sections(b, y)[0])) / near_base,
            ))
    assert len(profile) == len(near) == len(expected) == 64
    for prow, nrow, (k, t, ratio, pred, near_ratio) in zip(profile, near, expected):
        assert (prow[0], prow[1], nrow[0], nrow[4]) == (k, t, k, t)
        for got, want in ((prow[2], ratio), (prow[3], pred), (nrow[5], near_ratio)):
            assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("runner", [run_profile_scan, run_toeplitz])
def test_profile_runners_warn_once_outside_comparison_window(runner):
    # 2.5 * 12^(1/9) = 3.30 < t_max = 3.4 < sqrt(12)
    cfg = config_from_dict(dict(TRANSVERSAL, k_list=[12], t_max=3.4, t_steps=8))
    with pytest.warns(UserWarning, match="comparison window") as record:
        runner(cfg)
    assert sum("comparison window" in str(w.message) for w in record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runner(config_from_dict(dict(TRANSVERSAL, k_list=[12], t_max=3.2, t_steps=8)))


@pytest.mark.parametrize("command", ["profile", "toeplitz"])
def test_profile_runners_without_displacements(tmp_path, command):
    cfg_path = write_cfg(tmp_path, dict(TRANSVERSAL, t_steps=0))
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == 1  # the column names, no rows


def test_example_p1_report():
    meta, cols, rows = run_example("p1")
    normalized = [r for r in rows if r[0] == "diag-normalized"]
    assert len(normalized) == 5
    assert abs(normalized[-1][4] - 1.0) < 0.01  # volume-converted reference
    (decay,) = [r for r in rows if r[0] == "decay"]
    assert abs(decay[4] - 1.0) < 0.01  # prefactor-removed rate


def test_example_p2_report():
    meta, cols, rows = run_example("p2")
    free = [r for r in rows if r[0] == "diag-character-free"]
    assert abs(free[-1][4] - 1.0) < 0.02  # exact/consistent-form ratio


def test_cli_exit_codes(tmp_path, capsys):
    # happy path
    cfg_path = write_cfg(tmp_path, P1_BASE)
    out = tmp_path / "out.csv"
    assert main(["dim", "--config", cfg_path, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("#")
    assert "k,dim,oracle_dim,prediction,cesaro_mean" in text
    # config error
    assert main(["dim", "--config", str(tmp_path / "missing.json")]) == 2
    bad = write_cfg(tmp_path, {"n": 1}, name="bad.json")
    assert main(["dim", "--config", bad]) == 2
    # assumption violation: 0 in the hull of the scaled weights
    viol = write_cfg(
        tmp_path, dict(P1_BASE, W_T=[[1, -1]], W_G=[]), name="viol.json"
    )
    assert main(["dim", "--config", viol]) == 3
    # the torus acts locally freely nowhere on the locus (two equal T-rows, or
    # a G-row that forces two zeros), or not at the point (the transversal
    # G-row vanishes on its support): the exact rank of the support weights
    # names the weight rows that combine to zero there, in every runner
    capsys.readouterr()
    cases = [(command, cfg, "anywhere on the locus: ")
             for command in RUNNERS for cfg in (_EQUAL_ROWS, _FORCED_ZERO)]
    cases.append(("diag", dict(TRANSVERSAL, points=[{"moduli": [0, 0, 0.5, 0.5]}]),
                  "at this point: "))
    for command, cfg, where in cases:
        path = write_cfg(tmp_path, cfg, name="free.json")
        assert main([command, "--config", path, "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("assumption violation: the action is not locally free " + where)
        assert "rank 1 < 2" in err and "combine to zero with coefficients" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert ("(-1, 1)" if cfg is _EQUAL_ROWS else "(1, 0)") in err  # (1, 0): the G-row alone


def test_cli_refuses_unallocatable_toeplitz_matrix(tmp_path, capsys, monkeypatch):
    # a basis of 2**23 rows, whose dense ~1.1 PB matrix no host can map,
    # ends the run with exit 3 and a message, not a traceback
    from equiszego import hardy

    dim = 2**23
    ws = WeightSystem(n=3, W_G=np.array([[1, -1, 0, 0]]), W_T=np.array([[1, 1, 1, 1]]))
    huge = hardy.IsotypeBasis(
        ws=ws, nu_G=(0,), nu_T=(1,), k=12,
        J_matrix=np.broadcast_to(np.zeros(4, dtype=np.int64), (dim, 4)),
        log_c=np.broadcast_to(0.0, (dim,)),
    )
    monkeypatch.setattr(hardy, "build_basis", lambda *args: huge)
    cfg_path = write_cfg(tmp_path, {
        "n": 3, "W_G": [[1, -1, 0, 0]], "W_T": [[1, 1, 1, 1]], "nu_G": [0], "nu_T": [1],
        "k_list": [12], "t_steps": 2, "locus_nodes": 8, "seed": 1,
    })
    assert main(["toeplitz", "--config", cfg_path, "--out", str(tmp_path / "t.csv")]) == 3
    err = capsys.readouterr().err
    assert "dim 8388608" in err and "cannot be allocated" in err
    assert "Traceback" not in err


def test_cli_refuses_oversized_oracle_scan(tmp_path, capsys):
    # the scan to degree 3e9 would list ~4.5e18 tails: exit 3 before any
    # array is allocated, with a message and no traceback
    cfg_path = write_cfg(tmp_path, {"n": 3, "W_T": [[1, 1, 1, 1]], "nu_T": [1],
                                    "k_list": [3_000_000_000]})
    assert main(["dim", "--config", cfg_path, "--out", str(tmp_path / "d.csv")]) == 3
    err = capsys.readouterr().err
    assert "oracle scan to degree 3000000000" in err
    assert "Traceback" not in err
    # the largest scan the benchmark and the acceptance tests run stays allowed:
    # level n = 2 to k = 400, and the worked example p1 to k = 2000
    for cfg in ({"n": 2, "W_T": [[1, 1, 1]], "nu_T": [1], "k_list": [400]},
                dict(P1_BASE, k_list=[2000])):
        out = tmp_path / "ok.csv"
        assert main(["dim", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0


def test_cli_serves_a_locus_of_many_coordinates(tmp_path, capsys):
    # n = 40 with two G-rows: the locus record's LPs grow polynomially with
    # n, so the locus center of a 38-dimensional polytope is found quickly
    W_G = [[1, -1] * 20 + [0], [1, 0, -1] * 13 + [1, -1]]
    cfg_path = write_cfg(tmp_path, {"n": 40, "W_G": W_G, "W_T": [[1] * 41], "nu_G": [0, 0],
                                    "nu_T": [1], "k_list": [2]})
    start = time.perf_counter()
    assert main(["diag", "--config", cfg_path, "--out", str(tmp_path / "d.csv")]) == 0
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().err == ""


def test_cli_refuses_a_basis_past_the_row_limit(tmp_path):
    # weighted (1, 2, 3, 5) at k = 1600 has 22,990,943 entries, whose
    # listing ended in a MemoryError traceback in a 1.5 GB address space:
    # the listing stops at hardy.MAX_BASIS_ROWS with exit 3 and a message
    cfg_path = write_cfg(tmp_path, {"n": 3, "W_T": [[1, 2, 3, 5]], "nu_T": [1],
                                    "k_list": [1600], "points": [{"moduli": [0.25] * 4}]})
    src = os.path.dirname(os.path.dirname(os.path.abspath(equiszego.__file__)))
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))\n"
        "from equiszego.cli import main\n"
        f"sys.exit(main(['diag', '--config', {cfg_path!r}, '--out', {str(tmp_path / 'd.csv')!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 3, out.stderr
    assert "more than 10000000 rows" in out.stderr
    assert "Traceback" not in out.stderr


def test_cli_refuses_a_section_batch_past_the_entry_limit(tmp_path, capsys, monkeypatch):
    # toeplitz evaluates t_steps + 1 points on each basis in one batch: with
    # the limit one entry short of the k = 12 batch (dim 49), exit 3, no traceback
    from equiszego import hardy

    cfg_path = write_cfg(tmp_path, dict(TRANSVERSAL, k_list=[12], t_steps=8))
    monkeypatch.setattr(hardy, "MAX_SECTION_ENTRIES", 9 * 49 - 1)
    assert main(["toeplitz", "--config", cfg_path, "--out", str(tmp_path / "t.csv")]) == 3
    err = capsys.readouterr().err
    assert "9 points on a basis of 49 rows" in err and "Traceback" not in err
    monkeypatch.setattr(hardy, "MAX_SECTION_ENTRIES", 9 * 49)
    assert main(["toeplitz", "--config", cfg_path, "--out", str(tmp_path / "t.csv")]) == 0


@pytest.mark.parametrize(
    "command, overrides, stage",
    [
        ("dim", {"k_list": [-3, 5]}, "parse"),
        ("dim", {"n": 0, "W_G": [], "W_T": [[1]], "nu_G": []}, "parse"),
        ("diag", {"points": []}, "parse"),
        ("diag", {"points": [{"name": "locus-center"}, {"moduli": [0.6, 0.4]}]}, "parse"),
        ("diag", {"points": [{"moduli": [0.2, 0.3, 0.5]}]}, "parse"),
        ("diag", {"points": [{"coords": [[0, 0], [0, 0]]}]}, "parse"),
        ("toeplitz", {"points": [{"coords": [[1, 0], "x"]}]}, "parse"),
        ("profile", {"points": [{"moduli": [-0.2, 1.2]}]}, "parse"),
        ("diag", {"points": [{"moduli": [0.5, 0.5], "phases": [0.1]}]}, "parse"),
        ("profile", {"t_steps": -2}, "parse"),
        ("dim", {"k_list": None, "k_min": 1, "k_max": 10, "k_congruence": [1, 0]}, "parse"),
        ("dim", {"locus_nodes": 0}, "parse"),
        ("toeplitz", {"locus_nodes": -3}, "parse"),
        ("dim", {"locus_nodes": 1e9}, "parse"),
        ("profile", {"t_steps": 1e9}, "parse"),
        ("dim", {"seed": -1}, "parse"),
        ("dim", {"W_T": [[1.5, 1]]}, "parse"),
        ("dim", {"nu_T": [1.5]}, "parse"),
        ("diag", {"k_list": [7, 13.5]}, "parse"),
        ("dim", {"nu_G": [1, 0]}, "parse"),
        ("dim", {"nu_T": [1, 1]}, "parse"),
        ("dim", {"k_list": None, "k_min": 10, "k_max": 1}, "parse"),
        ("diag", {"k_list": None, "k_min": 1, "k_max": 10, "k_step": -1}, "parse"),
        ("dim", {"k_list": None, "k_min": 5, "k_max": 6, "k_congruence": [0, 7]}, "parse"),
        ("toeplitz", {"f": {"radial": [[1.0]]}}, "parse"),
        ("toeplitz", {"f": {"radial": "x"}}, "parse"),
        ("toeplitz", {"f": {"radial": [[1.0, [1.5, 1]]]}}, "parse"),
        ("toeplitz", {"f": {"radial": [[2, [True, 1]]]}}, "parse"),
        ("dim", {"k_list": [True, 5]}, "parse"),
        ("dim", {"W_T": []}, "parse"),
        ("profile", {"t_max": True}, "parse"),
        ("toeplitz", {"f": True}, "parse"),
        ("toeplitz", {"f": {"constant": True}}, "parse"),
        ("toeplitz", {"f": {"radial": [[True, [1, 1]]]}}, "parse"),
        ("profile", {"k_list": [0, 600]}, "run"),
        ("toeplitz", {"k_list": [0, 600]}, "run"),
        ("profile", {"k_list": [4, 600], "t_max": 2.0}, "run"),
        ("toeplitz", {"k_list": [600, 4], "t_max": 3.0}, "run"),
    ],
    ids=[
        "negative-k", "n-zero", "no-points", "two-points", "moduli-length",
        "zero-coords", "coords-not-pairs", "negative-moduli", "phases-length",
        "negative-t-steps", "congruence-modulus-zero", "zero-locus-nodes",
        "negative-locus-nodes", "huge-locus-nodes", "huge-t-steps", "negative-seed",
        "fractional-weight", "fractional-character",
        "fractional-k", "nu-G-length", "nu-T-length", "k-min-above-k-max",
        "negative-k-step", "empty-congruence-class", "radial-term-too-short",
        "radial-not-a-list", "fractional-radial-exponent", "bool-radial-exponent",
        "bool-k", "empty-W-T", "bool-t-max", "bool-f", "bool-constant", "bool-radial-coefficient",
        "profile-k-zero", "toeplitz-k-zero",
        "profile-t-max-at-sqrt-k", "toeplitz-t-max-above-sqrt-k",
    ],
)
def test_cli_rejects_malformed_config(tmp_path, capsys, command, overrides, stage):
    # an override of None removes the key; stage "run" marks a config that
    # only the runner of that command can refuse
    d = {k: v for k, v in dict(P1_BASE, **overrides).items() if v is not None}
    if stage == "parse":
        with pytest.raises(ConfigError):
            config_from_dict(d)
    else:
        cfg = config_from_dict(d)
        with pytest.raises(ConfigError):
            RUNNERS[command](cfg)
    assert main([command, "--config", write_cfg(tmp_path, d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


# the transversal system at k = 12 with an observable at the edge of the
# int64 exponents, of the log-factorials' accuracy or of the float64 values
_SMALL_TRANSVERSAL = dict(TRANSVERSAL, k_list=[12], t_steps=2, t_max=1.0, locus_nodes=8)
_EDGE_OBSERVABLES = [
    {"radial": [[1, [10**30, 0, 0, 0]]]},
    {"radial": [[1, [2**63 - 1, 0, 0, 0]]]},
    {"radial": [[1e308, [0, 0, 0, 0]], [1e308, [0, 0, 0, 0]]]},
    {"radial": [[1, [10**18, 0, 0, 0]]]},
]


@pytest.mark.parametrize("f", _EDGE_OBSERVABLES, ids=["exponent-1e30", "exponent-int64-max",
                                                      "coefficients-overflow", "exponent-1e18"])
def test_cli_refuses_observables_past_the_number_range(tmp_path, capsys, f):
    # an exponent that lifts the basis past int64 or past where its
    # log-factorial differences are accurate (at 1e18 they cancel to a trace
    # of 2.4e8 on a dim-49 basis), or a trace past float64, is an assumption
    # violation: no traceback, no inf, no roundoff as data and no warning
    path = write_cfg(tmp_path, dict(_SMALL_TRANSVERSAL, f=f))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["toeplitz", "--config", path, "--out", str(tmp_path / "t.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("assumption violation: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["dim", "diag", "decay", "profile", "toeplitz"])
def test_cli_refuses_nu_T_past_float64(tmp_path, capsys, command):
    # an entry of nu_T that could overflow its float64 norm is a config error
    # at parse time, not an OverflowError from a float norm or the locus record
    path = write_cfg(tmp_path, dict(P1_BASE, nu_T=[10**400]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", path, "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: 'nu_T' ") and err.count("\n") == 1


def test_cli_rejects_negative_seed_flag(tmp_path, capsys):
    # the Monte Carlo locus quadrature takes no negative seed: a config
    # error, never a traceback from the generator
    assert main(["dim", "--config", write_cfg(tmp_path, P1_BASE), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["diag", "decay"])
@pytest.mark.parametrize(
    "spec",
    [
        {"moduli": [math.nan, 1]},
        {"moduli": [0.6, math.inf]},
        {"moduli": [0.5, 0.5], "phases": [math.nan, 0]},
        {"coords": [[math.nan, 0], [1, 0]]},
        {"coords": [[1, 0], [0, -math.inf]]},
    ],
    ids=["nan-moduli", "inf-moduli", "nan-phases", "nan-coords", "inf-coords"],
)
def test_cli_refuses_non_finite_points(tmp_path, capsys, command, spec):
    d = dict(P1_BASE, points=[spec])
    with pytest.raises(ConfigError, match="finite"):
        config_from_dict(d)
    assert main([command, "--config", write_cfg(tmp_path, d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["diag", "decay"])
def test_cli_points_of_any_finite_size(tmp_path, capsys, command):
    # entries whose squares under- or overflow give the point of the same
    # direction at ordinary size: the same exit code and the same rows
    for extreme, ordinary in (
        ({"coords": [[1e308, 0], [1e308, 0]]}, {"coords": [[1, 0], [1, 0]]}),
        ({"coords": [[1e-320, 0], [0, 0]]}, {"coords": [[1, 0], [0, 0]]}),
        ({"moduli": [6e307, 4e307]}, {"moduli": [0.6, 0.4]}),
        ({"moduli": [6e-320, 4e-320]}, {"moduli": [0.6, 0.4]}),
    ):
        runs = []
        for i, spec in enumerate((extreme, ordinary)):
            out = tmp_path / f"{i}.csv"
            path = write_cfg(tmp_path, dict(P1_BASE, points=[spec]), name=f"{i}.json")
            code = main([command, "--config", path, "--out", str(out)])
            body = out.read_text().splitlines() if out.exists() else []
            runs.append((code, [ln for ln in body if not ln.startswith("# config_hash")]))
            if out.exists():
                out.unlink()
        assert runs[0] == runs[1]
        assert runs[0][0] in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_dim_exit_code_does_not_follow_the_seed(tmp_path):
    # the polytope fills about a seventh of its box, so at some seeds none of
    # 8 draws lands in it; the sampler then draws further rounds
    cfg_path = write_cfg(tmp_path, {"n": 3, "W_T": [[1, 2, 3, 5]], "nu_T": [1], "k_list": [5, 10],
                                    "locus_nodes": 8})
    for seed in range(10):
        out = str(tmp_path / f"{seed}.csv")
        assert main(["dim", "--config", cfg_path, "--seed", str(seed), "--out", out]) == 0


def test_dim_table_k_zero_row(tmp_path):
    # k = 0 has a dimension but no scaled count: its Cesaro mean is nan and
    # the running mean of the other rows is unchanged
    meta, cols, rows = run_dim_table(config_from_dict(dict(P1_BASE, k_list=[0, 4, 7, 10])))
    _, _, ref = run_dim_table(config_from_dict(dict(P1_BASE, k_list=[4, 7, 10])))
    assert rows[0][0] == 0 and math.isnan(rows[0][4])
    assert rows[1:] == ref
    cfg_path = write_cfg(tmp_path, dict(P1_BASE, k_list=[0, 4, 7]))
    assert main(["dim", "--config", cfg_path, "--out", str(tmp_path / "dim.csv")]) == 0


def test_cli_byte_identical_reruns(tmp_path):
    cfg_path = write_cfg(tmp_path, dict(P1_BASE, k_list=[7, 13, 19, 25]))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["diag", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["diag", "--config", cfg_path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_threads_match_serial(tmp_path):
    cfg_path = write_cfg(tmp_path, dict(P1_BASE, k_list=[7, 13, 19, 25]))
    out1, out2 = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(["dim", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["dim", "--config", cfg_path, "--threads", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_json_format(tmp_path):
    cfg_path = write_cfg(tmp_path, P1_BASE)
    out = tmp_path / "out.json"
    assert main(["dim", "--config", cfg_path, "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "k"
    assert payload["meta"]["config_hash"]
    assert len(payload["rows"]) == 5


def test_cli_threads_start_no_more_workers_than_cores(tmp_path, monkeypatch):
    # the process pool forks every worker it is given on its first map, so a
    # large --threads must not reach it; a serial stand-in records the count
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg_path = write_cfg(tmp_path, dict(P1_BASE, k_list=[7, 13, 19, 25]))
    for command in ("dim", "diag", "decay"):
        serial, wide = tmp_path / f"{command}-1.csv", tmp_path / f"{command}-n.csv"
        assert main([command, "--config", cfg_path, "--out", str(serial)]) == 0
        assert main([command, "--config", cfg_path, "--threads", "100000", "--out", str(wide)]) == 0
        assert serial.read_bytes() == wide.read_bytes()
    assert started or (os.cpu_count() or 1) == 1
    assert all(1 < n <= min(4, os.cpu_count() or 1) for n in started)


@pytest.mark.parametrize(
    "cfg, positive",
    [
        # 2001 stabilizer elements at the locus center: float phases of
        # weight 2000 once missed it by ~2e-12, and the run was refused
        ({"n": 1, "W_G": [[1, -1]], "W_T": [[1, 2000]], "nu_G": [0], "nu_T": [1],
          "k_list": [2001, 4002, 6003, 8004]}, [2001, 4002, 6003, 8004]),
        # nu_T = 2^53 + 5 has no float64: rounded, it once gave a character
        # trivial at no k; exactly, it is trivial at k = 1 and 4
        (dict(P1_BASE, nu_T=[2**53 + 5], k_list=[1, 2, 3, 4]), [1, 4]),
    ],
    ids=["weight-2000", "nu-T-past-2^53"],
)
def test_cli_diag_predicts_where_the_kernel_lives(tmp_path, cfg, positive):
    # the exact stabilizer characters: the prediction vanishes exactly where
    # the diagonal does
    out = tmp_path / "d.csv"
    assert main(["diag", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    body = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert body[0][:3] == ["k", "diag_value", "leading_prediction"]
    rows = body[1:]
    assert [int(r[0]) for r in rows if float(r[1]) > 0] == positive
    assert [int(r[0]) for r in rows if float(r[2]) > 0] == positive


def test_cli_example_subcommand(tmp_path):
    out = tmp_path / "p2.csv"
    assert main(["example", "p2", "--out", str(out)]) == 0
    text = out.read_text()
    assert "worked-example-report-p2" in text and "# seed:" not in text
    assert main(["example", "nope"]) == 2


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--threads", "8"]])
def test_cli_example_refuses_flags_it_would_ignore(flag, capsys):
    # no seed and no worker count reaches the worked-example report
    with pytest.raises(SystemExit) as exc:
        main(["example", "p1", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


P2_BASE = {
    "n": 2, "W_G": [[1, -1, 0], [0, 1, -1]], "W_T": [[1, 2, 3]],
    "nu_G": [1, 1], "nu_T": [1], "k_list": [10, 16, 22],
}
LEVEL_BASE = {"n": 2, "W_T": [[1, 1, 1]], "nu_T": [1], "k_list": [5, 10]}


@pytest.mark.parametrize(
    "command, base, seed_free",
    [
        ("dim", P1_BASE, True),
        ("toeplitz", P1_BASE, True),
        ("dim", P2_BASE, True),
        ("toeplitz", P2_BASE, True),
        ("dim", LEVEL_BASE, False),
    ],
    ids=["p1-dim", "p1-toeplitz", "p2-dim", "p2-toeplitz", "level-dim"],
)
def test_seed_reaches_only_monte_carlo_bodies(tmp_path, command, base, seed_free):
    # a single-point moduli polytope is one seed-free node, so the seed
    # reaches no CSV body; a positive-dimensional one is sampled by Monte
    # Carlo from the seed
    cfg_path = write_cfg(tmp_path, base)
    bodies = []
    for seed in (0, 5):
        out = tmp_path / f"seed{seed}.csv"
        assert main([command, "--config", cfg_path, "--seed", str(seed), "--out", str(out)]) == 0
        bodies.append([line for line in out.read_text().splitlines() if not line.startswith("#")])
    assert (bodies[0] == bodies[1]) == seed_free


def test_import_leaves_sympy_and_mpmath_unloaded(tmp_path):
    # none of these packages is on the start-up path of a run, and with
    # mpmath unimportable `example p1` and `dim` still exit 0
    level = write_cfg(tmp_path, {"n": 2, "W_T": [[1, 1, 1]], "nu_T": [1],
                                 "k_list": [5, 10], "seed": 0})
    src = os.path.dirname(os.path.dirname(os.path.abspath(equiszego.__file__)))
    code = (
        "import sys, equiszego.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'sympy', 'mpmath', 'scipy'}))\n"
        "sys.modules['mpmath'] = None\n"
        f"print(equiszego.cli.main(['example', 'p1', '--out', {str(tmp_path / 'p1.csv')!r}]),\n"
        f"      equiszego.cli.main(['dim', '--config', {level!r}, '--out', {str(tmp_path / 'dim.csv')!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["[]", "0 0"]


def test_runs_leave_scipy_unloaded(tmp_path):
    # one dim, profile and toeplitz run each and a decay run on the
    # single-point p2 polytope, from config to rows, in a fresh
    # interpreter: scipy is never imported
    level = write_cfg(tmp_path, {"n": 2, "W_T": [[1, 1, 1]], "nu_T": [1],
                                 "k_list": [5, 10], "seed": 0})
    transversal = write_cfg(tmp_path, {
        "n": 3, "W_G": [[1, -1, 0, 0]], "W_T": [[1, 1, 1, 1]], "nu_G": [0], "nu_T": [1],
        "k_list": [12, 18], "t_steps": 4, "t_max": 1.5, "locus_nodes": 8,
        "f": {"radial": [[1, [1, 1, 0, 0]], [0.5, [0, 0, 1, 0]]]}, "seed": 1,
    }, name="transversal.json")
    p2_decay = write_cfg(tmp_path, {
        "n": 2, "W_G": [[1, -1, 0], [0, 1, -1]], "W_T": [[1, 2, 3]], "nu_G": [1, 1],
        "nu_T": [1], "k_list": [10, 16, 22, 28], "points": [{"moduli": [0.5, 0.2, 0.3]}],
    }, name="p2-decay.json")
    src = os.path.dirname(os.path.dirname(os.path.abspath(equiszego.__file__)))
    code = (
        "import sys\n"
        "from equiszego.cli import (load_config, run_decay_scan, run_dim_table,\n"
        "                           run_profile_scan, run_toeplitz)\n"
        f"run_dim_table(load_config({level!r}))\n"
        f"cfg = load_config({transversal!r})\n"
        "run_profile_scan(cfg)\n"
        "run_toeplitz(cfg)\n"
        f"run_decay_scan(load_config({p2_decay!r}))\n"
        "print('scipy' in {m.split('.')[0] for m in sys.modules})\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_off_locus_decay_runs_need_no_scipy(tmp_path):
    # with scipy unimportable, decay off the locus of a segment polytope
    # exits 0: the distance to the locus is a numpy-only solve
    cfgs = [write_cfg(tmp_path, dict(TRANSVERSAL, points=[{"moduli": r}]), name=f"{i}.json")
            for i, r in enumerate(([0.5, 0.1, 0.2, 0.2], [0.7, 0, 0.3, 0]))]
    src = os.path.dirname(os.path.dirname(os.path.abspath(equiszego.__file__)))
    code = "import sys\nsys.modules['scipy'] = None\nimport equiszego.cli\n" + "".join(
        f"print(equiszego.cli.main(['decay', '--config', {c!r}, '--out', {c + '.csv'!r}]))\n"
        for c in cfgs
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["0", "0"]


def test_decay_bytes_do_not_follow_the_blas_thread_count(tmp_path):
    # the forced-zero system is refused whatever the thread count; off the
    # locus of a two-torus system the Newton solve runs, and its bytes do
    # not follow the thread count
    src = os.path.dirname(os.path.dirname(os.path.abspath(equiszego.__file__)))

    def decay(cfg, threads):
        return subprocess.run(
            [sys.executable, "-m", "equiszego.cli", "decay", "--config", write_cfg(tmp_path, cfg)],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
        )
    refused = decay(dict(_FORCED_ZERO, points=[{"moduli": [0.1, 0.2, 0.3, 0.4]}]), "2")
    assert refused.returncode == 3 and b"not locally free anywhere" in refused.stderr
    two_torus = {"n": 2, "W_T": [[1, 2, 1], [1, 1, 1]], "nu_T": [4, 3], "k_list": [4, 6, 8, 10],
                 "points": [{"moduli": [0.2, 0.5, 0.3]}]}
    outs = [decay(two_torus, threads) for threads in ("1", "2")]
    assert [out.returncode for out in outs] == [0, 0]
    assert b"dist_to_locus: 0.1699184547" in outs[0].stdout
    assert outs[0].stdout == outs[1].stdout


_DELETE = object()
_SMALL = st.integers(-3, 12)
_CONFIG_KEYS = [
    "n", "W_G", "W_T", "nu_G", "nu_T", "k_list", "k_min", "k_max", "k_step",
    "k_congruence", "points", "seed", "t_max", "t_steps", "locus_nodes", "f",
]
# wrong types, bools, fractional numbers, empty lists, missing keys and
# small k; every value keeps a run cheap (k <= 12 where k is replaced)
_CONFIG_VALUES = st.one_of(
    st.just(_DELETE),
    st.booleans(),
    _SMALL,
    st.sampled_from([0.5, 1.5, 2.0, -0.25]),
    st.text(max_size=2),
    st.sampled_from([[], {}, [[]], None]),
    st.lists(st.one_of(_SMALL, st.booleans(), st.just(0.5)), max_size=3),
    st.lists(
        st.lists(st.one_of(_SMALL, st.booleans(), st.just(0.5)), min_size=1, max_size=3),
        min_size=1, max_size=2,
    ),
    st.lists(
        st.one_of(
            st.fixed_dictionaries({"moduli": st.lists(st.one_of(_SMALL, st.just(0.5)), max_size=3)}),
            st.fixed_dictionaries({"coords": st.lists(st.lists(_SMALL, min_size=2, max_size=2), max_size=3)}),
            st.fixed_dictionaries({"name": st.sampled_from(["locus-center", "x"])}),
        ),
        max_size=2,
    ),
    st.fixed_dictionaries({"constant": st.one_of(_SMALL, st.booleans(), st.text(max_size=1))}),
)


# one refused value of each config key, run ahead of the drawn examples on
# every run, and points at the edges of the float range; the k range keys
# need 'k_list' gone to be read at all
_NO_K_LIST = ("k_list", _DELETE)
_REFUSED_MUTATIONS = [
    [("n", 0)],
    [("W_G", [[1.5, -1]])],
    [("W_T", [])],
    [("nu_G", [1, 0])],
    [("nu_T", [0.5])],
    [("k_list", [-3, 5])],
    [_NO_K_LIST, ("k_min", 10), ("k_max", 1)],
    [_NO_K_LIST, ("k_min", 1), ("k_max", 10), ("k_step", 0)],
    [_NO_K_LIST, ("k_min", 1), ("k_max", 10), ("k_congruence", [1, 0])],
    [("points", [])],
    [("points", [{"name": "locus-center"}, {"moduli": [0.6, 0.4]}])],
    [("seed", -1)],
    [("t_max", True)],
    [("t_steps", -2)],
    [("locus_nodes", 0)],
    [("f", {"constant": True})],
    [("points", [{"moduli": [math.nan, 1]}])],
    [("points", [{"moduli": [0.5, 0.5], "phases": [math.nan, 0]}])],
    [("points", [{"coords": [[1e-320, 0], [0, 0]]}])],
    [("points", [{"coords": [[1e308, 0], [1e308, 0]]}])],
]


def _with_refused_examples(test):
    for mutations in _REFUSED_MUTATIONS:
        test = example("diag", mutations)(test)
    return test


# k = 0 in the fitted scans, on a base whose k = 0 diagonal is positive,
# and a zero nu_T at a point that is not the locus center
_K_ZERO = [("W_G", _DELETE), ("nu_G", _DELETE), ("k_list", [0, 4, 7, 10, 13])]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from(["dim", "diag", "decay", "toeplitz"]),
    st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES), min_size=1, max_size=3),
)
@_with_refused_examples
@example("toeplitz", [*_SMALL_TRANSVERSAL.items(), ("f", _EDGE_OBSERVABLES[0])])
@example("toeplitz", [*_SMALL_TRANSVERSAL.items(), ("f", _EDGE_OBSERVABLES[1])])
@example("toeplitz", [*_SMALL_TRANSVERSAL.items(), ("f", _EDGE_OBSERVABLES[2])])
@example("toeplitz", [*_SMALL_TRANSVERSAL.items(), ("f", _EDGE_OBSERVABLES[3])])
@example("diag", [("nu_T", [10**400])])
@example("diag", _K_ZERO)
@example("decay", _K_ZERO)
@example("decay", [("nu_T", [0]), ("points", [{"moduli": [0.6, 0.4]}])])
@example("dim", [(key, _EQUAL_ROWS.get(key, _DELETE)) for key in ("W_G", "W_T", "nu_G", "nu_T")])
@example("diag", [(key, _EQUAL_ROWS.get(key, _DELETE)) for key in ("W_G", "W_T", "nu_G", "nu_T")])
@example("decay", [("W_G", _DELETE), ("nu_G", _DELETE), ("W_T", [[1, 1], [1, -1]]),
                   ("nu_T", [2**70, 1]), ("points", [{"moduli": [0.6, 0.4]}])])
def test_cli_contract_on_mutated_configs(command, mutations):
    # any config gives exit 0 with a silent stderr, or exit 2 or 3 with one
    # stderr line; never a traceback, and never a warning
    d = dict(P1_BASE)
    for key, value in mutations:
        if value is _DELETE:
            d.pop(key, None)
        else:
            d[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(d, fh)
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", path, "--out", os.path.join(tmp, "out.csv")])
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith(("config error: ", "assumption violation: "))
