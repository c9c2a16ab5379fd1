"""Time one fresh set-up of a workload; print its wall seconds and its
seconds at the nominal speed of pace.py's interpreted-Python reference,
which is timed right after the set-up (importing is interpreter work, and
that reference tracked it best).

Set-up is the import of adg2 (every layer module, and the scipy modules its
kernels import lazily) plus input generation from the seed.  run.py starts
this in a fresh interpreter several times and reports the median of the
rescaled times as setup_s.

    python3 benchmarks/setup_probe.py WORKLOAD SEED
"""

import sys
import time

REFERENCE_RUNS = 20
KERNELS = ("python",)

if __name__ == "__main__":
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    seconds = time.perf_counter() - t0

    import pace

    probe = pace.Pace(KERNELS)
    reference = probe.median_reference(REFERENCE_RUNS)
    print(repr(seconds), repr(seconds * probe.nominal / reference))
