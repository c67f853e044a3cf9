"""Set-up probe: import the program and run one pipeline pass in a fresh
interpreter, then print the elapsed seconds on stdout.

    python perfbench/probe.py STAGES_JSON

``STAGES_JSON`` holds the list of CLI argument vectors of the pass. The
thread caps and ``PYTHONPATH`` come from the environment the benchmark
sets. Nothing but the standard library is imported before the timer
starts, so the time covers importing numpy, scipy and the program plus
every first-call set-up the pass triggers.
"""

import json
import sys
import time


def main(path):
    with open(path) as fh:
        stages = json.load(fh)
    start = time.perf_counter()
    from tvgsp.cli import run
    for argv in stages:
        code = run(argv)
        if code != 0:
            print(f"stage {argv[0]} exited with {code}", file=sys.stderr)
            return code
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
