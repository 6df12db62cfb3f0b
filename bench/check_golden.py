#!/usr/bin/env python3
"""Pin a bench's stdout to its committed golden file.

Usage:
    check_golden.py GOLDEN.txt [--update] -- BENCH [ARGS...]

Runs BENCH, takes its stdout and compares it byte for byte with
GOLDEN.txt (normally bench/golden/<bench>.txt). The figure benches
report virtual time only, so their stdout is a pure function of the
code: any difference is a real change in a paper-facing number. Lines
containing "host-time" report wall-clock and are dropped before the
comparison (ablation_srpc prints one). BENCH inherits this script's
environment, so a toggle that must not move virtual time
(CRONUS_BACKEND=pmp, CRONUS_TRACE=1, ...) is checked by setting it
on the same command.

Fails (exit 1) when BENCH exits nonzero or its output differs; a
unified diff of golden vs. actual is printed. --update rewrites
GOLDEN.txt from the run instead -- only for a change that is meant to
move virtual time.
"""

import argparse
import difflib
import subprocess
import sys

HOST_TIME_MARKER = "host-time"


def main():
    argv = sys.argv[1:]
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    ap = argparse.ArgumentParser()
    ap.add_argument("golden")
    ap.add_argument("--update", action="store_true",
                    help="rewrite GOLDEN from this run")
    args = ap.parse_args(argv[:split])
    cmd = argv[split + 1:]
    if not cmd:
        print("check_golden: no bench command after --",
              file=sys.stderr)
        return 2

    proc = subprocess.run(cmd, stdout=subprocess.PIPE)
    text = proc.stdout.decode("utf-8", errors="replace")
    got = [line for line in text.splitlines(keepends=True)
           if HOST_TIME_MARKER not in line]
    if proc.returncode != 0:
        sys.stdout.writelines(got)
        print(f"check_golden: {' '.join(cmd)} exited with "
              f"{proc.returncode}", file=sys.stderr)
        return 1

    if args.update:
        with open(args.golden, "w") as f:
            f.writelines(got)
        print(f"check_golden: wrote {args.golden}")
        return 0

    with open(args.golden) as f:
        want = f.readlines()
    if got == want:
        print(f"check_golden: {args.golden} matches "
              f"({len(want)} lines)")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want, got, fromfile=args.golden, tofile="actual"))
    print(f"check_golden: output of {' '.join(cmd)} differs from "
          f"{args.golden}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
