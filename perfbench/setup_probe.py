"""Time one workload's set-up, or the reference import, in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED
    python3 perfbench/setup_probe.py --reference

Set-up is everything before the timed region: importing the toolkit, making
the inputs from the seed, reducing, lifting and the brute-force oracle.  The
reference imports only the toolkit's third-party dependencies and none of
its code, so no change to the toolkit moves it.  Prints the seconds taken.
"""

from time import perf_counter

t0 = perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

REFERENCE_IMPORTS = ("numpy", "scipy.stats")

if __name__ == "__main__":
    if sys.argv[1:] == ["--reference"]:
        for name in REFERENCE_IMPORTS:
            importlib.import_module(name)
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import workloads

        workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    print(f"{perf_counter() - t0:.6f}")
