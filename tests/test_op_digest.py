"""scripts/op_digest.py hashes the first K op results of a benchmark
workload, so that two checkouts can be compared for bit-identical output
with one command.  The digest must repeat for one seed and differ between
seeds."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(workload: str, seed: int, ops: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "op_digest.py"),
         "--workload", workload, "--seed", str(seed), "--ops", str(ops)],
        capture_output=True, text=True, check=True,
    )
    prefix, _, value = proc.stdout.strip().rpartition(" sha256=")
    assert prefix == f"{workload} seed={seed} ops={ops}"
    assert len(value) == 64
    return value


def _assert_repeats_and_depends_on_seed(workload: str, ops: int) -> None:
    first = _digest(workload, 1, ops)
    assert _digest(workload, 1, ops) == first
    assert _digest(workload, 2, ops) != first


def test_digest_repeats_and_depends_on_seed():
    # 24 symbolic ops of normal_form_certify
    _assert_repeats_and_depends_on_seed("normal_form_certify", 24)


def test_trajectory_digest_repeats_and_depends_on_seed():
    # the first 8 ops of drift_series_eval: one grid-65 Morse check, mids,
    # one split-stepped row and one c11 run
    _assert_repeats_and_depends_on_seed("drift_series_eval", 8)
