"""scripts/op_digest.py hashes the first K op results of a benchmark
workload, so that two checkouts can be compared for bit-identical output
with one command.  The digest must repeat for one seed and differ between
seeds."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(seed: int, ops: int = 24) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "op_digest.py"),
         "--workload", "normal_form_certify", "--seed", str(seed), "--ops", str(ops)],
        capture_output=True, text=True, check=True,
    )
    prefix, _, value = proc.stdout.strip().rpartition(" sha256=")
    assert prefix == f"normal_form_certify seed={seed} ops={ops}"
    assert len(value) == 64
    return value


def test_digest_repeats_and_depends_on_seed():
    first = _digest(1)
    assert _digest(1) == first
    assert _digest(2) != first
