"""In-memory span tracing around the public functions of each equiszego layer.

`install` wraps every public module-level function of the layer modules (and
the `WeightSystem` constructor) and rebinds the wrapper under every name that
refers to the original in any equiszego module, so that calls made through
re-imported names such as `cli.locus_center` or `kernel.hlc_point` are seen
too.  A span is recorded only where a call crosses from one layer into
another; a call that stays inside its layer is counted, and its time stays in
the enclosing span of that layer.  `derive` turns the spans and counts of one
repetition into the per-layer metrics.
"""

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "geometry", "actions", "hardy", "kernel", "asymptotics", "toeplitz", "oracle")

# Counts that must repeat exactly from run to run of one workload and seed.
REPEATABLE_COUNTS = (
    "hardy.basis_entries",
    "kernel.terms",
    "oracle.scan_points",
    "toeplitz.matrix_bytes",
    "actions.WeightSystem.calls",
    "cli.config_from_dict.calls",
)


class Tracer:
    """Spans are [name, start, end, parent span id, repetition id]."""

    def __init__(self):
        self.spans = []
        self.counts = []  # one Counter per repetition
        self._stack = []  # (span id, layer) of the open spans

    def begin_rep(self):
        self.counts.append(Counter())
        sid = len(self.spans)
        self.spans.append(["bench.rep", perf_counter(), 0.0, -1, len(self.counts) - 1])
        self._stack.append((sid, "bench"))

    def end_rep(self) -> float:
        sid, _ = self._stack.pop()
        rec = self.spans[sid]
        rec[2] = perf_counter()
        return rec[2] - rec[1]

    def wrap(self, layer: str, name: str, fn, hook=None):
        tracer = self
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts[-1]
            counts[calls] += 1
            stack = tracer._stack
            if stack[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            rec = [name, 0.0, 0.0, stack[-1][0], len(tracer.counts) - 1]
            tracer.spans.append(rec)
            stack.append((sid, layer))
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "rep"], "spans": self.spans}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# counts taken at layer boundaries
# ---------------------------------------------------------------------------

def _count_basis(counts, args, kwargs, result):
    counts["hardy.basis_entries"] += result.dim


def _count_terms(counts, args, kwargs, result):
    b = args[0] if args else kwargs.get("b")
    counts["kernel.terms"] += getattr(b, "dim", 0)


def _count_matrix_bytes(counts, args, kwargs, result):
    # computed: the largest array the call returned
    largest = max(getattr(a, "nbytes", 0) for a in result)
    counts["toeplitz.matrix_bytes"] = max(counts["toeplitz.matrix_bytes"], largest)


def _scan_points_hook(fn):
    sig = inspect.signature(fn)

    def hook(counts, args, kwargs, result):
        # computed: the number of J >= 0 in n+1 coordinates with |J| <= bound
        bound = sig.bind(*args, **kwargs).arguments
        m = bound["ws"].n + 1
        counts["oracle.scan_points"] += math.comb(int(bound["bound"]) + m, m)

    return hook


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and rebind them wherever equiszego names them."""
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"equiszego.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            hook = None
            if name == "hardy.build_basis":
                hook = _count_basis
            elif layer == "kernel":
                hook = _count_terms
            elif name == "toeplitz.toeplitz_matrix":
                hook = _count_matrix_bytes
            elif name == "oracle.brute_dim_range":
                hook = _scan_points_hook(obj)
            replaced[obj] = tracer.wrap(layer, name, obj, hook)
    for modname, mod in list(sys.modules.items()):
        if modname != "equiszego" and not modname.startswith("equiszego."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    ws_cls = importlib.import_module("equiszego.actions").WeightSystem
    ws_cls.__init__ = tracer.wrap("actions", "actions.WeightSystem", ws_cls.__init__)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans, rep: int) -> Counter:
    """Self time by span name within one repetition: span duration minus the
    time covered by its child spans."""
    child = Counter()
    for name, start, end, parent, r in spans:
        if r == rep and parent >= 0:
            child[parent] += end - start
    out = Counter()
    for sid, (name, start, end, parent, r) in enumerate(spans):
        if r == rep:
            out[name] += end - start - child[sid]
    return out


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


def rep_times(spans, rep: int) -> dict:
    """Time metrics (seconds) of one repetition."""
    st = self_times(spans, rep)

    def layer_total(layer):
        return sum(v for k, v in st.items() if k.split(".", 1)[0] == layer)

    return {
        "cli.self_s": layer_total("cli"),
        "cli.write_csv.s": st["cli.write_csv"],
        "actions.WeightSystem.s": st["actions.WeightSystem"],
        "actions.locus_center.s": st["actions.locus_center"],
        "actions.locus_sample.s": st["actions.locus_sample"],
        "geometry.s": layer_total("geometry"),
        "hardy.build_basis.s": st["hardy.build_basis"],
        "hardy.dim_isotype.s": st["hardy.dim_isotype"],
        "kernel.szego_diag.s": st["kernel.szego_diag"] + st["kernel.log_szego_diag"],
        "kernel.szego_eval.s": st["kernel.szego_eval"] + st["kernel.szego_rescaled"],
        "kernel.self_s": layer_total("kernel"),
        "asymptotics.locus_data.s": st["asymptotics.locus_data"],
        "asymptotics.diagonal_leading.s": st["asymptotics.diagonal_leading"],
        "asymptotics.dim_prediction.s": st["asymptotics.dim_prediction"],
        "asymptotics.h_exponent_at.s": st["asymptotics.h_exponent_at"],
        "toeplitz.toeplitz_matrix.s": st["toeplitz.toeplitz_matrix"],
        "toeplitz.section_values.s": st["toeplitz.section_values"],
        "toeplitz.trace_prediction.s": st["toeplitz.trace_prediction"],
        "oracle.brute_dim_range.s": st["oracle.brute_dim_range"],
    }


COUNT_NAMES = (
    "cli.config_from_dict.calls",
    "actions.WeightSystem.calls",
    "actions.locus_center.calls",
    "geometry.frame_at.calls",
    "geometry.hlc_point.calls",
    "hardy.build_basis.calls",
    "hardy.basis_entries",
    "hardy.dim_isotype.calls",
    "kernel.szego_diag.calls",
    "kernel.szego_eval.calls",
    "kernel.terms",
    "toeplitz.toeplitz_matrix.calls",
    "toeplitz.matrix_bytes",
    "toeplitz.section_values.calls",
    "oracle.scan_points",
)


def derive(tracer: Tracer, rows_per_rep: int, untraced_scan_s: float) -> tuple[dict, dict]:
    """Per-layer metrics over the traced repetitions: medians of the time
    metrics, the counts of the first repetition, and ratios built from them.
    Returns (metrics, counts of every repetition by name)."""
    reps = range(len(tracer.counts))
    times = [rep_times(tracer.spans, r) for r in reps]
    t = {k: statistics.median(tm[k] for tm in times) for k in times[0]}
    per_rep = {k: [c[k] for c in tracer.counts] for k in COUNT_NAMES}
    c = {k: v[0] for k, v in per_rep.items()}
    traced_scan = statistics.median(
        end - start for name, start, end, parent, r in tracer.spans if parent < 0
    )
    m = {k: v for k, v in t.items() if k != "kernel.self_s"}
    m.update(c)
    m["actions.builds_per_row"] = _ratio(c["actions.WeightSystem.calls"], rows_per_rep, 1.0)
    m["hardy.build_us_per_entry"] = _ratio(t["hardy.build_basis.s"], c["hardy.basis_entries"], 1e6)
    m["hardy.build_ms_per_call"] = _ratio(t["hardy.build_basis.s"], c["hardy.build_basis.calls"], 1e3)
    m["kernel.ns_per_term"] = _ratio(t["kernel.self_s"], c["kernel.terms"], 1e9)
    m["oracle.ns_per_point"] = _ratio(t["oracle.brute_dim_range.s"], c["oracle.scan_points"], 1e9)
    m["trace.overhead_frac"] = traced_scan / untraced_scan_s - 1.0
    return m, per_rep
