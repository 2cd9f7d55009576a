"""Time `import bosetraj` plus one workload's model set-up, in a fresh
interpreter, and print the seconds, then the seconds scaled to nominal
machine speed by the reference bundle timed right after.

    python3 perfbench/setup_probe.py WORKLOAD full|tiny
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # standard library only: not part of the timing


def main(name: str, size: str) -> None:
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    import bosetraj  # noqa: F401  (numpy and scipy come in here)
    workload.setup(workload.sizes[size])
    elapsed = time.perf_counter() - t0
    from reference import Reference
    ref = Reference()
    ref.time()
    print(repr(elapsed), repr(elapsed * ref.scale()))


if __name__ == "__main__":
    main(*sys.argv[1:3])
