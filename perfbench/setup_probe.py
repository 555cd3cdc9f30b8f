"""Set-up probe, run by run.py in a fresh interpreter:

    python3 perfbench/setup_probe.py <src directory>

Imports collatz_stopping from the given directory and builds the CLI
parser, between two calibration loops, and prints the seconds that took
and the two loop times.  Exit code 3 when the package came from elsewhere.
"""

import sys
import time

from yardstick import time_calibration


def main(src: str) -> int:
    cal_before = time_calibration()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import collatz_stopping
    from collatz_stopping import cli

    cli.build_parser()
    seconds = time.perf_counter() - t0
    cal_after = time_calibration()
    if not collatz_stopping.__file__.startswith(src):
        return 3
    print(seconds, cal_before, cal_after)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
