"""Per-sector cost of the 2D block-inertia sweep of one count2d ladder, and
of its lattice threshold.

Usage:
    python3 tools/sector_cost.py [--repeat N] [count2d option ...]

Runs `count2d` in-process at `--jobs 1` with one BLAS thread (by default on
the `ladder2d` reference ladder: b = 1, --hy 0.8, four rungs from 0.306 down
to 0.0297), keeps the (parity, system, tau) unit of every sector and the
arguments of its `counting.discrete_threshold` call, then times
`counting._sector_inertia` on each unit, best of N. One line per sector:

- parity, nx, ny and the sector's count;
- `best_ms`: the best wall time of the sweep, and `ms_slice` that time per
  swept y-slice (half of them on the mirror half-sweep);
- `chunks`: `zpbtrf` calls, one per band chunk;
- `stops`: the chunks where `zpbtrf` met a slice that is not positive
  definite, each counted by a dense Schur block;
- `dense`: the dense Schur blocks of `_block_inertia`, stops plus the join;
- `bound`: the largest trace(S) trace(S^-1) that `_band_guard` read, the
  upper bound on kappa_2 that must stay below 1e12.

Then one line for `discrete_threshold`: its best time of N and its fiber
eigensolves, the scan's THRESHOLD_K_SAMPLES plus the slope-root polish's.

A report on stdout, not a test: the times depend on the machine and its
load. The package comes from the `src/` next to this script.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before NumPy loads its BLAS

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from scipy.linalg import lapack  # noqa: E402

from magbarrier import cli, counting, fiber  # noqa: E402

REFERENCE = ["--b", "1", "--hy", "0.8",
             "--lambdas", "0.305805,0.142024,0.0664536,0.0296611"]


def sector_units(options):
    """(units, threshold arguments) of count2d at these options: the
    (parity, system, tau) units it sweeps and its (b, lx, nx, hy)."""
    units, thresholds = [], []
    sweep, threshold = counting._count_sector, counting.discrete_threshold

    def recorded(unit):
        units.append(unit)
        return sweep(unit)

    def recorded_threshold(*args):
        thresholds.append(args)
        return threshold(*args)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(counting, "_count_sector", recorded), \
            mock.patch.object(counting, "discrete_threshold", recorded_threshold), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["count2d", *options, "--jobs", "1", "--outdir", tmp])
    if code != 0:
        sys.exit(f"count2d exited {code}")
    return units, thresholds[0]


def best_time(func, args, repeat):
    """Best wall time of func(*args) over `repeat` calls, at least one."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - start)
    return best


def sweep_work(system, tau):
    """(count, slices, chunks, stops, dense blocks, largest guard bound) of
    one sweep, read by spies on its LAPACK band factor and its guards."""
    work = {"slices": 0, "chunks": 0, "stops": 0, "bound": 0.0}
    pbtrf, guard = lapack.zpbtrf, counting._band_guard

    def spied_pbtrf(band, **kwargs):
        factor, info = pbtrf(band, **kwargs)
        n = band.shape[0] - 1
        work["chunks"] += 1
        work["stops"] += info > 0
        work["slices"] += (info - 1) // n + 1 if info else band.shape[1] // n
        return factor, info

    def spied_guard(traces, *args):
        work["bound"] = max(work["bound"], float((traces[:, 0] * traces[:, 1]).max()))
        return guard(traces, *args)

    with mock.patch.object(lapack, "zpbtrf", spied_pbtrf), \
            mock.patch.object(counting, "_band_guard", spied_guard), \
            mock.patch.object(counting, "_block_inertia",
                              wraps=counting._block_inertia) as dense:
        count = counting._sector_inertia(*system, tau)
    return (count, work["slices"], work["chunks"], work["stops"],
            dense.call_count, work["bound"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed sweeps per sector; the best is kept")
    args, options = parser.parse_known_args(argv)
    units, threshold_args = sector_units(options or REFERENCE)
    print(f"{'parity':6} {'nx':>4} {'ny':>4} {'count':>5} {'best_ms':>8} "
          f"{'ms_slice':>8} {'chunks':>6} {'stops':>5} {'dense':>5} {'bound':>9}")
    total = 0.0
    for parity, system, tau in units:
        best = best_time(counting._sector_inertia, (*system, tau), args.repeat)
        total += best
        count, slices, chunks, stops, dense, bound = sweep_work(system, tau)
        print(f"{parity.value:6} {len(system[0]):4d} {len(system[5]):4d} "
              f"{count:5d} {1e3 * best:8.1f} {1e3 * best / slices:8.3f} "
              f"{chunks:6d} {stops:5d} {dense:5d} {bound:9.3g}")
    print(f"sum of best sweeps: {1e3 * total:.0f} ms over {len(units)} sectors")
    best = best_time(counting.discrete_threshold, threshold_args, args.repeat)
    with mock.patch.object(fiber, "eigh_tridiagonal",
                           wraps=fiber.eigh_tridiagonal) as solves:
        counting.discrete_threshold(*threshold_args)
    scan = counting.THRESHOLD_K_SAMPLES
    print(f"discrete_threshold: best {1e3 * best:.1f} ms, {solves.call_count} "
          f"fiber eigensolves ({scan} scan + {solves.call_count - scan} root)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
