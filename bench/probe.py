"""Set-up probe: a fresh interpreter imports angmf.cli and runs one op.

Usage: python3 bench/probe.py SRC_DIR ARG...

Exits with the op's exit code.  bench/run.py times whole probe processes
to measure set-up time.
"""

import sys


def main():
    sys.path.insert(0, sys.argv[1])
    from angmf import cli

    return cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
