"""One workload in a fresh interpreter: set up, repeat the scan, check outputs.

    python3 perfbench/worker.py --workload NAME [--seed S] [--seconds T]
                                [--trace 0|1] [--smoke] [--probe | --record]

--probe only measures set-up (import equiszego.cli plus load_config) and
exits.  Otherwise the worker repeats the workload's runner calls, from the
loaded config to the CSV text, for about T seconds and prints one JSON line
with the timings, peak RSS, failure counts and, with --trace 1, the
per-layer metrics of a second, traced, set of repetitions.  --record writes
the reference CSV bodies and counts at the workload's default seed.
"""

import argparse
import io
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"
INV_2PI = 1.0 / (2.0 * math.pi)


def parse_csv(text: str):
    """(columns, rows of cell strings) of a CSV body; '#' lines are header."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def body(text: str) -> str:
    return "".join(ln + "\n" for ln in text.splitlines() if not ln.startswith("#"))


def _is_int(cell: str) -> bool:
    return cell.lstrip("-").isdigit()


def _close(a: str, b: str, rel: float) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= rel * max(abs(x), abs(y))


def compare_reference(text: str, ref: str, skip: set) -> list:
    """Integer columns must match exactly, float cells within 1e-9 relative;
    columns in `skip` are not compared."""
    cols, rows = parse_csv(text)
    rcols, rrows = parse_csv(ref)
    if cols != rcols:
        return [f"columns {cols} differ from reference {rcols}"]
    if len(rows) != len(rrows):
        return [f"{len(rows)} rows, reference has {len(rrows)}"]
    errors = []
    for j, col in enumerate(cols):
        if col in skip:
            continue
        exact = all(_is_int(r[j]) for r in rrows)
        for i, (row, rrow) in enumerate(zip(rows, rrows)):
            a, b = row[j], rrow[j]
            if (a != b) if exact else not _close(a, b, 1e-9):
                errors.append(f"row {i} {col}: {a} != reference {b}")
    return errors


def _close_where(cols, rows, value: str, pred: str, rel: float, floor: float) -> list:
    iv, ip = cols.index(value), cols.index(pred)
    errors = []
    for i, r in enumerate(rows):
        p = float(r[ip])
        if p > floor and not abs(float(r[iv]) - p) <= rel * p:
            errors.append(f"row {i}: {value} {r[iv]} not within {rel:.0%} of {pred} {r[ip]}")
    return errors


def invariants(workload: str, runner: str, text: str, asymptotic: bool) -> list:
    """Checks that hold on every seed.  The asymptotic ones need the full k
    range and are skipped on the smoke k lists."""
    cols, rows = parse_csv(text)
    if workload == "level-dim":
        i, j = cols.index("dim"), cols.index("oracle_dim")
        return [f"row {n}: dim {r[i]} != oracle_dim {r[j]}" for n, r in enumerate(rows) if r[i] != r[j]]
    if not asymptotic:
        return []
    if workload == "p1-diag":
        ratio = float(rows[-1][cols.index("ratio")])
        if not abs(ratio / INV_2PI - 1.0) <= 1e-3:
            return [f"last ratio {ratio} not within 0.1% of 1/(2 pi)"]
    if workload == "transversal" and runner == "profile":
        return _close_where(cols, rows, "kernel_ratio", "exp_H_prediction", 0.05, 1e-3)
    if workload == "transversal" and runner == "toeplitz":
        return _close_where(cols, rows, "near_diag_ratio", "near_diag_prediction", 0.05, 1e-3)
    return []


class Workload:
    def __init__(self, name: str, cli, smoke: bool):
        spec = json.loads((HERE / "workloads.json").read_text())[name]
        self.name = name
        self.cli = cli
        self.spec = spec
        self.smoke = smoke
        self.first = {}  # runner -> (CSV text of the first repetition, its errors)

    def configure(self, cfg, seed: int):
        """Write the seed (and on smoke runs the tiny k list) into the config
        the way `equi-szego --seed` does."""
        self.default_seed = cfg.seed
        cfg.seed = seed
        cfg.raw = dict(cfg.raw, seed=seed)
        if self.smoke:
            ks = list(self.spec["smoke_k_list"])
            cfg.k_values = ks
            cfg.raw = dict(cfg.raw, k_list=ks)
        return cfg

    def run_once(self, cfg) -> list:
        """Run every runner once; returns [(runner, CSV text or None)]."""
        out = []
        for runner in self.spec["runners"]:
            fn = getattr(self.cli, self.cli.RUNNERS[runner].__name__)
            try:
                meta, columns, rows = fn(cfg, threads=1)
                buf = io.StringIO()
                meta = dict(meta, config_hash=cfg.config_hash(), seed=cfg.seed)
                self.cli.write_csv(buf, meta, columns, rows)
                out.append((runner, buf.getvalue()))
            except Exception:
                traceback.print_exc()
                out.append((runner, None))
        return out

    def check(self, runner: str, text, seed: int) -> list:
        if text is None:
            return ["runner raised"]
        if runner in self.first:
            first, errors = self.first[runner]
            return errors if text == first else ["CSV differs from the first repetition"]
        errors = invariants(self.name, runner, text, asymptotic=not self.smoke)
        if not self.smoke:
            ref = (REFERENCES / f"{self.name}.{runner}.csv").read_text()
            skip = set() if seed == self.default_seed else set(self.spec["seed_dependent_columns"])
            errors += compare_reference(text, ref, skip)
        self.first[runner] = (text, errors)
        return errors


def repeat(wl: Workload, cfg, seed: int, budget: float, tracer=None, warmup: int = 0):
    """Run `warmup` checked but untimed repetitions, then repeat the workload
    for about `budget` seconds: another repetition starts only while it is
    expected to end nearer the budget than stopping would."""
    times, attempted, failed, rows = [], 0, 0, 0
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_rep()
        t0 = perf_counter()
        outputs = wl.run_once(cfg)
        dt = perf_counter() - t0
        if tracer is not None:
            dt = tracer.end_rep()
        rows = 0
        for runner, text in outputs:
            attempted += 1
            errors = wl.check(runner, text, seed)
            if errors:
                failed += 1
                for e in errors[:5]:
                    print(f"{wl.name} {runner}: {e}", file=sys.stderr)
            else:
                rows += len(parse_csv(text)[1])
        if warmup > 0:
            warmup -= 1
            start = perf_counter()
            continue
        times.append(dt)
        if perf_counter() - start + statistics.median(times) / 2 >= budget:
            return times, attempted, failed, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    config_path = HERE / "configs" / f"{args.workload}.json"
    if not (ROOT / "src" / "equiszego" / "cli.py").is_file():
        print(f"no equiszego sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import equiszego.cli as cli

    cfg = cli.load_config(str(config_path))
    setup_s = perf_counter() - t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl = Workload(args.workload, cli, args.smoke)
    seed = cfg.seed if args.seed is None else args.seed
    cfg = wl.configure(cfg, seed)
    if args.record:
        return record(wl, cfg)

    budget = args.seconds / 2 if args.trace else args.seconds
    warmup = 0 if args.smoke else wl.spec["warmup_reps"]
    times, attempted, failed, rows = repeat(wl, cfg, seed, budget, warmup=warmup)
    result = {
        "seed": seed,
        "setup_s": setup_s,
        "scan_times": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "count_errors": [],
    }
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        _, tatt, tfail, rows = repeat(wl, cfg, seed, budget, tracer)
        result["attempted"] += tatt
        result["failed"] += tfail
        layer, per_rep = spans.derive(tracer, rows, statistics.median(times))
        result["per_layer"] = layer
        result["count_errors"] = count_errors(wl, per_rep)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{args.workload}.seed{seed}{'.smoke' if args.smoke else ''}.spans.json")
    print(json.dumps(result))
    return 0


def count_errors(wl: Workload, per_rep: dict) -> list:
    """The repeatable counts must agree between repetitions and, on the full
    workload, with the recorded ones."""
    errors = [f"{k} varies between repetitions: {per_rep[k]}"
              for k in spans.REPEATABLE_COUNTS if len(set(per_rep[k])) > 1]
    if not wl.smoke:
        expected = json.loads((REFERENCES / f"{wl.name}.counts.json").read_text())
        errors += [f"{k} = {per_rep[k][0]}, recorded {v}"
                   for k, v in expected.items() if per_rep[k][0] != v]
    return errors


def record(wl: Workload, cfg) -> int:
    """Write the reference CSV bodies and repeatable counts of the current
    code at the workload's default seed."""
    if wl.smoke or cfg.seed != wl.default_seed:
        print("--record needs the full workload at its default seed", file=sys.stderr)
        return 2
    for runner, text in wl.run_once(cfg):
        if text is None:
            return 1
        (REFERENCES / f"{wl.name}.{runner}.csv").write_text(body(text))
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.begin_rep()
    wl.run_once(cfg)
    tracer.end_rep()
    counts = {k: tracer.counts[0][k] for k in spans.REPEATABLE_COUNTS}
    (REFERENCES / f"{wl.name}.counts.json").write_text(json.dumps(counts, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
