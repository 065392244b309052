#!/usr/bin/env python3
"""Run a command and require its exit code and a line of its stderr.

    expect_exit.py CODE REGEX -- COMMAND [ARGS...]

Exits 0 when COMMAND exits with CODE and REGEX matches its standard
error, 1 otherwise (printing what it got). CTest's own pass conditions
cannot pin an exit code: PASS_REGULAR_EXPRESSION ignores it and
WILL_FAIL accepts any failure.
"""

import re
import subprocess
import sys


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    code, pattern, cmd = int(argv[0]), argv[1], argv[3:]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if r.returncode == code and re.search(pattern, r.stderr):
        return 0
    print(f"exit {r.returncode} (want {code}), stderr (want /{pattern}/):\n"
          f"{r.stderr}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
