#!/usr/bin/env python3
"""Digest of the CLI's output on the benchmark's ``cli`` fixtures.

    python3 tools/cli_digest.py --src path/to/src > digest.txt

Writes the fixture files of ``perfbench/clirun.fixtures`` for seeds 1-3 into
a temporary directory and runs each of their commands, the timed ones and the
known-defect one (13 per seed, 39 in all), as a fresh ``pseudoherm`` process
whose ``PYTHONPATH`` is the given ``src`` directory.  Prints one line per
command: seed, label, exit code and the SHA-256 of stdout followed by
stderr.  The fixtures are built by this checkout's ``src`` and named by
relative paths, so two runs against two source trees are compared with
``diff``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory holding the pseudoherm package to run")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import clirun

    env = clirun.child_env(args.src.resolve())
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for seed in SEEDS:
            timed, _, defects = clirun.fixtures(seed, Path())
            for cmd in timed + defects:
                proc = subprocess.run([sys.executable, "-c", clirun.ENTRY, *cmd.argv],
                                      capture_output=True, env=env, timeout=300)
                digest = hashlib.sha256(proc.stdout + proc.stderr).hexdigest()
                print(f"{seed} {cmd.label} {proc.returncode} {digest}", flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
