"""The program entry of `python -m paulimem` and the `paulimem` script."""

import os
import sys
from typing import NoReturn

# Thread-pool sizes read by OpenBLAS, OpenMP and MKL when numpy loads. A one-shot run
# starts faster on one thread, and the small matrices here gain nothing from more.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def entry() -> NoReturn:
    """cli.main on sys.argv, with one BLAS thread unless the caller set its own count.

    The variables are set before cli is imported, and so before sweep or verify loads
    numpy, which reads them once as it loads. cli.main alone, and the library, leave the
    environment as it is."""
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main

    sys.exit(main())


if __name__ == "__main__":
    entry()
