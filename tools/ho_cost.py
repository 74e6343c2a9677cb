"""Per-unit cost of the precise pool of one `ho` run.

Usage:
    python3 tools/ho_cost.py [--repeat N] [ho option ...]

Runs `ho` in-process at `--jobs 1` with one BLAS thread (by default on the
`recurrence` reference op: b = 3.18961, three samples from k = 4.46487 to
8.03677), keeps every unit of its `asymptotics` pool, then times
`asymptotics._pool_unit` on each unit, best of N. The first unit is the
band minimum kappa_j; the others are (k, parity, N) long-double solves,
largest grids first, in pool order. One line per unit:

- `unit`: `kappa` or `precise`, with the unit's k, parity and grid N;
- `best_ms`: the best wall time of the unit;
- `passes`: Sturm passes (`tridiag.sturm_count` calls) of the long-double
  bisection, 0 for kappa;
- `eigh`: `eigh_tridiagonal` calls, the float64 fiber solves of the root
  search or the float64 seed of a precise solve.

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

from magbarrier import asymptotics, cli, fiber, tridiag  # noqa: E402

REFERENCE = ["--b", "3.18961", "--samples", "3",
             "--kmin", "4.46487", "--kmax", "8.03677"]


def pool_units(options):
    """The (b, j, unit) calls of `ho`'s precise pool at these options."""
    units = []
    solve = asymptotics._pool_unit

    def recorded(b, j, unit):
        units.append((b, j, unit))
        return solve(b, j, unit)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(asymptotics, "_pool_unit", recorded), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["ho", *options, "--jobs", "1", "--outdir", tmp])
    if code != 0:
        sys.exit(f"ho exited {code}")
    return units


def unit_work(b, j, unit):
    """(Sturm passes, eigh_tridiagonal calls) of one unit, read by spies."""
    with mock.patch.object(tridiag, "sturm_count",
                           wraps=tridiag.sturm_count) as passes, \
            mock.patch.object(fiber, "eigh_tridiagonal",
                              wraps=fiber.eigh_tridiagonal) as band_eigh, \
            mock.patch.object(asymptotics, "eigh_tridiagonal",
                              wraps=asymptotics.eigh_tridiagonal) as seed_eigh:
        asymptotics._pool_unit(b, j, unit)
    return passes.call_count, band_eigh.call_count + seed_eigh.call_count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed solves per unit; the best is kept")
    args, options = parser.parse_known_args(argv)
    units = pool_units(options or REFERENCE)
    print(f"{'unit':7} {'k':>9} {'parity':6} {'N':>5} {'best_ms':>8} "
          f"{'passes':>6} {'eigh':>4}")
    total = kappa_ms = 0.0
    for b, j, unit in units:
        best = float("inf")
        for _ in range(max(1, args.repeat)):
            start = time.perf_counter()
            asymptotics._pool_unit(b, j, unit)
            best = min(best, time.perf_counter() - start)
        total += best
        passes, eighs = unit_work(b, j, unit)
        if unit is None:
            kappa_ms = 1e3 * best
            label = f"{'kappa':7} {'-':>9} {'-':6} {'-':>5}"
        else:
            k, parity, N = unit
            label = f"{'precise':7} {k:9.5g} {parity.value:6} {N:5d}"
        print(f"{label} {1e3 * best:8.1f} {passes:6d} {eighs:4d}")
    print(f"sum of best units: {1e3 * total:.0f} ms over {len(units)} units, "
          f"kappa {kappa_ms:.0f} ms of it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
