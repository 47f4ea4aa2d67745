"""Run one raft-census command in this process and check its peak memory.

    PYTHONPATH=src python tests/peak_rss.py MAX_MB COMMAND [ARGS...]

Prints the command's exit code and the process's peak resident set size,
and exits 1 if the command failed or the peak exceeded MAX_MB megabytes
(MiB). Linux only: the peak is ``VmHWM`` from /proc/self/status. It is
not ``ru_maxrss``, because Linux carries into that the peak of the image
the process replaced at exec, so a child started by a large process (a
test runner) would report its parent's peak.
"""

import sys
from pathlib import Path

from raftcensus.cli import dispatch


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    limit_mb = float(argv[0])
    code = dispatch(argv[1:])
    peak_mb = peak_rss_mb()
    print(f"{argv[1]}: exit {code}, peak RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB)")
    return 0 if code == 0 and peak_mb <= limit_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
