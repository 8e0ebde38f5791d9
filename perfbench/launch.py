"""Run one topocert CLI call in this fresh interpreter under a probe.

    python3 perfbench/launch.py count|trace STATS_FILE -- CLI_ARGS...

The call goes through ``topocert.cli.main``, the same entry point as
``python -m topocert``; the probe (see tracer.py) writes what it saw to
STATS_FILE when the call exits, whatever the exit code.
"""

import sys

from tracer import Probe


def main() -> None:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: launch.py count|trace STATS_FILE -- CLI_ARGS...")
    mode, stats_path, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    probe = Probe(mode).install()
    import topocert.cli

    try:
        topocert.cli.main(argv)
    finally:
        probe.write(stats_path)


if __name__ == "__main__":
    main()
