"""The benchmark's recorded counts hold on the code as it is.

A short traced run of each perfbench workload checks every CSV against its
reference and the six repeatable counts (basis entries, kernel terms,
oracle scan points, Toeplitz matrix bytes, WeightSystem builds and config
parses) against `perfbench/references/<workload>.counts.json`: the two
bounded workloads, p1-diag (whose diag rows go through `locus_data` and the
stabilizer character sum on a 3-element stabilizer) and weighted-diag (whose
583,509 basis entries come from last-step progressions of step 5).  A
change that moves one of them fails here, not only in a full traced run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@pytest.mark.parametrize("workload", ["transversal", "level-dim", "p1-diag", "weighted-diag"])
def test_traced_workload_keeps_references_and_counts(workload):
    out = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--trace", "1", "--seconds", "2"],
        env={**os.environ, **ONE_THREAD}, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, out.stderr
    assert result["count_errors"] == []
