"""scripts/op_digest.py hashes the first K op results of a benchmark
workload, so that two checkouts can be compared for bit-identical output
with one command.  The digest must repeat for one seed and differ between
seeds.  The seed-1 digests are pinned as well, so a change to any of
these ops' results shows up in one test run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the seed-1 digests when these were last set (Python 3.11.7, numpy 2.4.6);
# like LINE_BOUND, they change only with a re-baseline stated in CHANGES.md
NORMAL_FORM_24 = "b7888ff06d22d560539f0a38fc3d10f6705bd3e8f7fd6f7be357c5b08af6b8ba"
DRIFT_SERIES_8 = "707ef8bf16c4fd71be82b94cb58a80d7d6ffd1dcaebe2225153288b48eec098d"


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


def _assert_repeats_and_depends_on_seed(workload: str, ops: int, pinned: str) -> None:
    first = _digest(workload, 1, ops)
    assert first == pinned
    assert _digest(workload, 1, ops) == first
    assert _digest(workload, 2, ops) != first


def test_digest_repeats_and_depends_on_seed():
    # 24 ops of normal_form_certify, 4 of them restrain certificates
    _assert_repeats_and_depends_on_seed("normal_form_certify", 24, NORMAL_FORM_24)


def test_trajectory_digest_repeats_and_depends_on_seed():
    # the first 8 ops of drift_series_eval: one grid-65 Morse check, mids,
    # one split-stepped row and one c11 run
    _assert_repeats_and_depends_on_seed("drift_series_eval", 8, DRIFT_SERIES_8)
