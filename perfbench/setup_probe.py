"""Time one benchmark set-up: importing hivc and generating a clip.

Usage: python3 perfbench/setup_probe.py FRAMES HEIGHT WIDTH SEED
Prints the seconds taken. The clock starts before the first import, so
a fresh interpreter pays the whole import cost of numpy, scipy and hivc.
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hivc.cli  # noqa: E402,F401  (imports every hivc module the workloads use)
from clipgen import moving_clip  # noqa: E402

if __name__ == "__main__":
    frames, height, width, seed = map(int, sys.argv[1:5])
    moving_clip(frames, height, width, seed)
    print(repr(time.perf_counter() - _t0))
