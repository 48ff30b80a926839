#!/usr/bin/env python3
"""Peak memory of one ``density`` run on a Gaussian state, to compare two source trees.

    python scripts/density_peak_memory.py --n N [--src DIR]

Writes a Gaussian state spec (k0 = 2e6 N / 2**22, sigma = k0 / 20) and runs
``photonflux.cli.main`` on ``--grid N,1.0,1.0 density --time 0.25`` twice,
each time in a fresh Python process pinned to one CPU by affinity, so the
CSV tables are written with no fork.  photonflux is imported from ``DIR``
(default: the ``src`` of the checkout this script lives in).  Prints:

- ``peak_rss_mb``: the peak resident set of the plain run's process, in MiB;
- ``traced_b_per_bin``: the peak of the memory ``tracemalloc`` traces from
  the start of ``main`` to its end, in bytes per grid bin, from the second
  process.

N must be a power of two of at least 4096, so the pulse clears the grid edges.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _child(kind: str, n: int, src: Path, work: Path) -> None:
    """One density run in this process; prints its peak RSS in MiB or its traced peak in bytes per bin."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    from photonflux import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: photonflux imported from {cli.__file__}, not {src}")
    k0 = 2e6 * n / 2**22
    state = work / "state.json"
    state.write_text(json.dumps({"kind": "gaussian", "k0": k0, "sigma": k0 / 20.0}))
    argv = ["--grid", f"{n},1.0,1.0", "--out", str(work / kind), "density", "--state", str(state), "--time", "0.25"]
    if kind == "traced":
        import tracemalloc

        tracemalloc.start()
    if cli.main(argv) != 0:
        raise SystemExit("error: the density run failed")
    if kind == "traced":
        print(tracemalloc.get_traced_memory()[1] / n)
    else:
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, required=True, help="grid size, a power of two >= 4096")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory photonflux is imported from")
    parser.add_argument("--child", choices=("rss", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.n < 4096 or args.n & (args.n - 1):
        parser.error(f"--n must be a power of two >= 4096, got {args.n}")
    if args.child:
        _child(args.child, args.n, args.src, args.work)
        return 0

    print(f"density peak memory: N={args.n}, --time 0.25, one CPU")
    print(f"src               {args.src.resolve()}")
    for kind, label in (("rss", "peak_rss_mb"), ("traced", "traced_b_per_bin")):
        with tempfile.TemporaryDirectory() as tmp:  # one run's artifacts at a time
            proc = subprocess.run(
                [sys.executable, __file__, "--n", str(args.n), "--src", str(args.src), "--child", kind, "--work", tmp],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            print(f"{label:<17} {float(proc.stdout):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
