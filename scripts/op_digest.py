#!/usr/bin/env python3
"""SHA-256 digest of the first K op results of a benchmark workload.

    python3 scripts/op_digest.py --workload normal_form_certify --seed 1 --ops 240

Builds the seeded workload of ``perfbench/workloads.py``, runs the first K
ops of ``perfbench/run.py``'s schedule (untimed and unchecked) and hashes
their pickled results in schedule order.  Run it in two checkouts: equal
digests mean that every op returned the same objects, bit for bit.  The
converse does not hold: a pickle also records which objects a result shares
(an index tuple used by two terms is written once and then referenced) and
any state cached on an object (a filled ``__slots__`` field), so digests can
differ while every value is equal.  The one wall-clock field of a result,
``ScalingRecord.runtime_s``, is zeroed before pickling.  The program is
imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import pickle
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)
import workloads  # noqa: E402  (perfbench/workloads.py)


def _stable(result):
    """The result with its wall-clock fields zeroed."""
    if isinstance(result, list):
        return [_stable(r) for r in result]
    if dataclasses.is_dataclass(result) and hasattr(result, "runtime_s"):
        return dataclasses.replace(result, runtime_s=0.0)
    return result


def digest(workload: str, seed: int, ops: int) -> str:
    lib, _ = workloads.load_driftbench()
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.WORKLOADS[workload](lib, seed, Path(tmp))
        for _, kind, item in itertools.islice(run.schedule(wl), ops):
            h.update(pickle.dumps(_stable(wl.run(kind, item)), protocol=4))
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    args = ap.parse_args()
    print(f"{args.workload} seed={args.seed} ops={args.ops} "
          f"sha256={digest(args.workload, args.seed, args.ops)}")


if __name__ == "__main__":
    main()
