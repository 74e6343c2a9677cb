"""Spectral analysis of the magnetic-barrier Schrödinger operator.

The operator p_x**2 + (p_y - b*|x|)**2 models a charged particle in a
uniform magnetic field whose sign flips across the line x = 0; the flip
line acts as a magnetic edge carrying snake-orbit states. A partial
Fourier transform in y reduces the operator to a family of half-line
fiber problems, and every quantity exposed here is built on that
reduction:

- ``fiber``        eigensolves of the fiber operator per parity sector
- ``bands``        band functions, their derivatives, minima, and masses
- ``asymptotics``  deep-barrier Airy wedges and oscillator limits
- ``mourre``       spectral windows, commutator constants, edge currents
- ``localization`` envelope and strip-mass bounds near the edge
- ``counting``     eigenvalue counts under negative perturbations
- ``specfun``      Airy zeros and moments backing the above
- ``tridiag``      Sturm counts and bisection for tridiagonal matrices

Errors are typed: :class:`ConfigurationError` marks bad caller input,
:class:`NumericalError` marks resolution or convergence limits (often
retryable on a finer grid), and :class:`InvariantViolation` marks a
mathematical guarantee failing outright.
"""

import os

# One OpenBLAS thread per process unless the user chose a thread count: the
# parallelism is --jobs (forked workers for count2d's sectors, the k-sweep
# of bands, mourre, budget and localize, minima's ordinals and ho's precise
# pair solves), and BLAS threads under those workers contend for the cores.
# Set before numpy loads OpenBLAS.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import (
    asymptotics,
    bands,
    counting,
    fiber,
    localization,
    mourre,
    specfun,
    tridiag,
)
from .errors import ConfigurationError, InvariantViolation, NumericalError

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "InvariantViolation",
    "NumericalError",
    "__version__",
    "asymptotics",
    "bands",
    "counting",
    "fiber",
    "localization",
    "mourre",
    "specfun",
    "tridiag",
]
