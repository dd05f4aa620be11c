"""Byte-identical reports: the digests of ``scripts/report_digests.py`` match the committed lines.

The script runs every pinned pipeline and the command corpus and prints one
sha256 per file they write.  Frame reports write their spectra as brackets at
the solver's resolution, so the lines must not depend on the BLAS thread count
either.  A change that moves a line edits ``tests/data/report_digests.txt``
and says why in CHANGES.md.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "data" / "report_digests.txt"


@pytest.mark.parametrize("threads", [None, "1"], ids=["default-blas-threads", "one-blas-thread"])
def test_report_digests_match_the_committed_lines(threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_digests.py")], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    want = EXPECTED.read_text()
    if proc.stdout != want:
        diff = "".join(difflib.unified_diff(want.splitlines(True), proc.stdout.splitlines(True), "committed", "this run"))
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except TypeError:  # numpy before 1.25 only prints its configuration
            blas = "not reported by this numpy"
        pytest.fail(f"{proc.stderr.strip()}; numpy {np.__version__}, BLAS {blas}\n{diff}")
