"""Scan benchmark of equiszego: four workloads through the `equiszego.cli` runners.

    python3 perfbench/run.py --workload NAME|all [--seed S] [--seconds T]
                             [--trace 0|1] [--smoke]

Run from anywhere; the package is imported from `src/` next to this
directory.  Each workload runs in a fresh interpreter (perfbench/worker.py).
With --trace 0 the run reports the end-to-end metrics: setup_s (median over
five fresh interpreters of `import equiszego.cli` plus `load_config`),
scan_s (median repetition of the runner calls, from the loaded config to the
CSV text) and peak_rss_mb (ru_maxrss of the workload process).  With
--trace 1 it reports the per-layer metrics of a traced set of repetitions.
Every CSV is checked; failed_frac is failed/attempted runner calls.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
--smoke swaps in each workload's tiny k list and checks only what holds there.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 170.0
SETUP_PROBES = 2  # fresh interpreters before and again after the workload's own
# One process, one thread: an idle BLAS or OpenMP pool thread competes with
# the measured thread for the host's few cores.
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _spawn(args, deadline):
    """Run the worker in a fresh interpreter; its last stdout line is JSON.
    The worker is killed and waited for if this process stops early."""
    with subprocess.Popen([sys.executable, str(WORKER), *args], env={**os.environ, **ONE_THREAD},
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, smoke, metrics, deadline):
    common = ["--workload", name, "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        common += ["--seed", str(seed)]
    if smoke:
        common.append("--smoke")
    probes = SETUP_PROBES if not trace and not smoke else 0

    def probe():
        return [_spawn(["--probe", "--workload", name], deadline)["setup_s"] for _ in range(probes)]

    setups = probe()
    res = _spawn(common, deadline)
    setups += [res["setup_s"], *probe()]
    scans = res["scan_times"]
    units = {m["name"]: m["unit"] for m in metrics["end_to_end"] + metrics["per_layer"]}
    if trace:
        values = res["per_layer"]
        names = [m["name"] for m in metrics["per_layer"]]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "scan_s": statistics.median(scans),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        names = [m["name"] for m in metrics["end_to_end"]]
    result = {
        "correct": res["failed"] == 0 and not res["count_errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
    }
    q1, q3 = _quartiles(scans)
    report = {
        "workload": name, "seed": res["seed"], "trace": trace, "smoke": smoke,
        "scan_s": {"median": statistics.median(scans), "q1": q1, "q3": q3, "n": len(scans)},
        "setup_s": {"median": statistics.median(setups), "n": len(setups)},
        "failed_frac": {"value": res["failed"] / res["attempted"], "unit": "ratio",
                        "failed": res["failed"], "attempted": res["attempted"]},
        "count_errors": res["count_errors"],
        "metrics": result["metrics"],
    }
    return report, result


def _print_report(rep):
    print(f"workload {rep['workload']}  seed {rep['seed']}  trace {rep['trace']}"
          + ("  smoke" if rep["smoke"] else ""))
    for k, m in rep["metrics"].items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    s = rep["scan_s"]
    print(f"  scan repetitions: n={s['n']} median {s['median']:.4f} s q1 {s['q1']:.4f} s q3 {s['q3']:.4f} s")
    f = rep["failed_frac"]
    print(f"  failed_frac {f['value']:.6g} ratio ({f['failed']} of {f['attempted']} runner calls)")
    for e in rep["count_errors"]:
        print(f"  count check failed: {e}")
    print("report " + json.dumps(rep))


def main(argv=None) -> int:
    workloads = json.loads((HERE / "workloads.json").read_text())
    ap = argparse.ArgumentParser(description="equiszego scan benchmark")
    ap.add_argument("--workload", required=True, choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="config seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "equiszego" / "cli.py").is_file():
        print(f"equiszego sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metrics = json.loads((HERE / "metrics.json").read_text())
    names = list(workloads) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            report, results[name] = run_workload(
                name, args.seed, args.seconds, args.trace, args.smoke, metrics,
                monotonic() + TIME_LIMIT_S)
            _print_report(report)
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {n: r["metrics"] for n, r in results.items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
