"""Import the package before any test module imports numpy.

The package picks its BLAS thread default (one OpenBLAS thread per process)
while numpy is not yet loaded, so the suite runs with the same setting as the
command line.
"""

import magbarrier  # noqa: F401
