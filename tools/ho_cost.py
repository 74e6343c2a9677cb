"""Per-unit cost of the precise pool of one `ho` run.

Usage:
    python3 tools/ho_cost.py [--repeat N] [ho option ...]

Runs `ho` in-process at `--jobs 1` with one BLAS thread (by default on the
`recurrence` reference op: b = 3.18961, three samples from k = 4.46487 to
8.03677), keeps every (k, parity, N) unit of its `asymptotics` pool, then
times `asymptotics._precise_level` on each unit, best of N, largest grids
first, in pool order. One line per unit:

- `unit`: `precise`, with the unit's k, parity and grid N;
- `best_ms`: the best wall time of the unit;
- `passes`: Sturm passes (`tridiag.sturm_count` calls) of the long-double
  bisection;
- `eigh`: `eigh_tridiagonal` calls, the float64 seed of the solve.

A last line says whether the entry check solved the band minimum kappa_j
(`bands.find_minimum`) in the parent, which it does only for samples that
start below sqrt((2j-1)b) + b^(1/2), and if so its best time.

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

from magbarrier import asymptotics, bands, cli, fiber, tridiag  # noqa: E402

REFERENCE = ["--b", "3.18961", "--samples", "3",
             "--kmin", "4.46487", "--kmax", "8.03677"]


def pool_units(options):
    """The (b, j, unit) calls of `ho`'s precise pool at these options, and
    the (j, b) calls of `bands.find_minimum` before it."""
    units, minima = [], []
    solve, find = asymptotics._precise_level, bands.find_minimum

    def recorded(b, j, unit):
        units.append((b, j, unit))
        return solve(b, j, unit)

    def found(j, b):
        minima.append((j, b))
        return find(j, b)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(asymptotics, "_precise_level", recorded), \
            mock.patch.object(bands, "find_minimum", found), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["ho", *options, "--jobs", "1", "--outdir", tmp])
    if code != 0:
        sys.exit(f"ho exited {code}")
    return units, minima


def best_ms(repeat, solve, *args):
    """The best wall time of solve(*args) over repeat runs, in ms."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        solve(*args)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def unit_work(b, j, unit):
    """(Sturm passes, eigh_tridiagonal calls) of one unit, read by spies."""
    with mock.patch.object(tridiag, "sturm_count",
                           wraps=tridiag.sturm_count) as passes, \
            mock.patch.object(fiber, "eigh_tridiagonal",
                              wraps=fiber.eigh_tridiagonal) as eigh:
        asymptotics._precise_level(b, j, unit)
    return passes.call_count, eigh.call_count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed solves per unit; the best is kept")
    args, options = parser.parse_known_args(argv)
    units, minima = pool_units(options or REFERENCE)
    print(f"{'unit':7} {'k':>9} {'parity':6} {'N':>5} {'best_ms':>8} "
          f"{'passes':>6} {'eigh':>4}")
    total = 0.0
    for b, j, unit in units:
        best = best_ms(args.repeat, asymptotics._precise_level, b, j, unit)
        total += best
        passes, eighs = unit_work(b, j, unit)
        k, parity, N = unit
        print(f"{'precise':7} {k:9.5g} {parity.value:6} {N:5d} {best:8.1f} "
              f"{passes:6d} {eighs:4d}")
    print(f"sum of best units: {total:.0f} ms over {len(units)} units")
    for j, b in minima:
        print(f"kappa_{j} solved before the pool: "
              f"{best_ms(args.repeat, bands.find_minimum, j, b):.0f} ms")
    if not minima:
        print("kappa_j not solved: the samples start past "
              "sqrt((2j-1)b) + b^(1/2)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
