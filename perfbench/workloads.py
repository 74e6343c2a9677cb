"""Seeded operation generator for the benchmark workloads.

An operation is a list of CLI argv lists run in one fresh process. The
program sees only these argv lists; everything random about them comes from
the workload name, the seed and the operation index. Each seed yields CYCLE
distinct operations and then repeats them, so a run of any length stays
inside the stored golden digests of the reference seed.
"""

import math
import os
import random
from dataclasses import dataclass

CYCLE = 16


def nproc():
    """CPUs this process may run on; every workload passes it as --jobs."""
    return len(os.sched_getaffinity(0))


def _num(value):
    return f"{value:.6g}"


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _ladder2d(rng, jobs):
    # The shared y-grid is sized by the smallest rung alone, so the bottom
    # rung is held within 1% of 0.03 (ny stays 156 to 158 slices) and every
    # operation sweeps the same 148x148 blocks. The ends stay outside
    # [0.03, 0.3] so the ladder always spans the decade the fit demands.
    top = 0.3 * (1.005 + 0.025 * rng.random())
    bottom = 0.03 * (0.99 - 0.01 * rng.random())
    ratio = (bottom / top) ** (1.0 / 3.0)
    mids = [top * ratio ** i * (1.0 + 0.03 * (2.0 * rng.random() - 1.0))
            for i in (1, 2)]
    lambdas = ",".join(_num(v) for v in [top, *mids, bottom])
    return [["count2d", "--b", "1", "--lambdas", lambdas, "--hy", "0.8",
             "--jobs", str(jobs)]]


def _window(rng, jobs):
    # Fiber grids are built in scaled units, so the work is independent of b.
    b = _log_uniform(rng, 0.5, 4.0)
    return [["localize", "--n", "1", "--b", _num(b), "--jobs", str(jobs)]]


def _recurrence(rng, jobs):
    b = _log_uniform(rng, 0.5, 4.0)
    root_b = math.sqrt(b)
    ho = ["ho", "--b", _num(b), "--samples", "3",
          "--kmin", _num(2.5 * root_b), "--kmax", _num(4.5 * root_b),
          "--jobs", str(jobs)]
    # The line grid grows like ell / lambda, so the ladder moves with ell and
    # the LDL^T sweep length stays within a few percent across operations.
    ell = _log_uniform(rng, 0.8, 1.25)
    lambdas = [base * ell * (1.0 + 0.03 * (2.0 * rng.random() - 1.0))
               for base in (1e-3, 3e-4)]
    count1d = ["count1d", "--ell", _num(ell),
               "--lambdas", ",".join(_num(v) for v in lambdas),
               "--jobs", str(jobs)]
    return [ho, count1d]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ref_seed: int
    make: object

    def operation(self, seed, index, jobs):
        """The argv lists of operation `index` under `seed`."""
        rng = random.Random(f"{self.name}:{seed}:{index % CYCLE}")
        return self.make(rng, jobs)


WORKLOADS = {w.name: w for w in (
    Workload("ladder2d",
             "count2d 4-rung gap ladder at b=1, --hy 0.8: the block-inertia "
             "sweep on 148x148 blocks with --jobs against BLAS threads",
             1, _ladder2d),
    Workload("window",
             "localize --n 1 at seeded b: band trace, Mourre window and "
             "envelope sweep; fiber-bound (eigh_tridiagonal), no counting",
             1, _window),
    Workload("recurrence",
             "ho --samples 3 then count1d: the interpreter-bound long-double "
             "Sturm bisection and scalar LDL^T inertia",
             1, _recurrence),
)}
