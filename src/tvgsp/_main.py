"""Console entry point.

Thread caps must reach the BLAS runtime before numpy is first imported,
so this module scans argv (and the TVGSP_THREADS fallback) and sets the
environment before pulling in the heavy modules. Importing the package
(and so this module) loads no dependency: ``tvgsp`` resolves its public
names on first access.
"""

import os
import sys

from . import THREAD_VARS


def _requested_threads(argv):
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--threads="):
            return arg.split("=", 1)[1]
    return os.environ.get("TVGSP_THREADS")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    threads = _requested_threads(argv)
    if threads is not None:
        for var in THREAD_VARS:
            os.environ[var] = str(threads)
    from .cli import run
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
