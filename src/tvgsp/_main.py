"""Console entry point.

Thread caps must reach the BLAS runtime before numpy is first imported,
so this module scans argv (and the TVGSP_THREADS fallback) and sets the
environment before pulling in the heavy modules. A ``TVGSP_THREADS`` that
is not a positive integer exits 2, and a value that is not one sets no
thread cap. Importing the package (and so this module) loads no
dependency: ``tvgsp`` resolves its public names on first access.
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
    return None


def _thread_count(text):
    """``text`` as a positive integer, else None (a bad ``--threads``
    then fails in ``run``)."""
    try:
        return int(text) if int(text) >= 1 else None
    except (TypeError, ValueError):
        return None


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    threads = _requested_threads(argv)
    if threads is None:
        threads = os.environ.get("TVGSP_THREADS")
        if threads is not None and _thread_count(threads) is None:
            print("invalid_input: TVGSP_THREADS must be a positive integer,"
                  f" got {threads!r}", file=sys.stderr)
            return 2
    count = _thread_count(threads)
    if count is not None:
        for var in THREAD_VARS:
            os.environ[var] = str(count)
    from .cli import run
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
