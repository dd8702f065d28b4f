#!/usr/bin/env python3
"""Memory gate: run a command in a child process and bound its peak RSS.

Usage::

    python tools/rss_gate.py --max-mb 400 -- python -m repro report fig11 \\
        --opt size=250 --cache-dir none

The command's own output is discarded.  Prints the child's maximum
resident set size (``getrusage(RUSAGE_CHILDREN).ru_maxrss``) and wall
seconds, and exits 1 when the command fails or its peak exceeds
``--max-mb``.  ``src/`` goes in front of the child's ``PYTHONPATH``, so
the checkout's package is the one measured.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-mb", type=float, required=True,
                        help="the bound on the child's peak RSS, in MB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB (bound {args.max_mb:.0f} MB), "
          f"wall {wall:.1f} s, exit {done.returncode}")
    if done.returncode != 0:
        return 1
    return 0 if peak_mb <= args.max_mb else 1


if __name__ == "__main__":
    sys.exit(main())
