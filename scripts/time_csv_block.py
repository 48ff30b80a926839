#!/usr/bin/env python3
"""Time the CSV float formatter on the two tables the CLI writes most.

    python scripts/time_csv_block.py [--repeats R] [--compare FLOATREPR_PY ...]

Prints ``floatrepr.csv_block``'s cost in ns per value, the median over R
repeats, on two tables cut into the CSV writer's blocks of rows:

- ``localized``: the ``localized --dim 1`` table (u, re, im, rho), 50001x4,
  from ``localized_density_1d`` at k_max = 2;
- ``fields``: the ``density`` ``fields.csv`` table (x, re/im of A+ and E+),
  16384x5, from ``synthesize_fields`` on a Gaussian state at t = 0.3.

Each ``--compare`` file is another ``floatrepr.py`` (say, a parent
checkout's), loaded as a module of this process.  Its repeats alternate
with this checkout's, so both see the same host state, and each line also
gives its median as a ratio to this checkout's.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from photonflux import floatrepr, spectral  # noqa: E402
from photonflux.density import _CSV_BLOCK_ROWS, localized_density_1d  # noqa: E402


def tables() -> dict:
    """name -> list of (rows, columns) float64 blocks, as the CSV writer passes them."""
    k_max = 2.0
    u = np.linspace(-500.0 / k_max, 500.0 / k_max, 50001)
    rho = localized_density_1d(u, k_max)
    grid = spectral.KGrid1D(16384, 1.0, 1.0)
    fields = spectral.synthesize_fields(spectral.make_gaussian_state(8000.0, 250.0, grid), 0.3)
    a, e = fields.a_plus, fields.e_plus
    columns = {
        "localized": [u, rho.real, rho.imag, 2.0 * rho.real],
        "fields": [grid.x, a.real, a.imag, e.real, e.imag],
    }
    return {
        name: [np.stack([c[lo:lo + _CSV_BLOCK_ROWS] for c in cols], axis=1)
               for lo in range(0, len(cols[0]), _CSV_BLOCK_ROWS)]
        for name, cols in columns.items()
    }


def ns_per_value(csv_block, blocks) -> float:
    values = sum(block.size for block in blocks)
    start = time.perf_counter_ns()
    for block in blocks:
        csv_block(block)
    return (time.perf_counter_ns() - start) / values


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"floatrepr_{path.parent.name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=15, help="timed passes over each table per formatter")
    parser.add_argument("--compare", type=Path, nargs="*", default=[], help="other floatrepr.py files to time")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    formatters = {"this": floatrepr.csv_block, **{str(p): load(p).csv_block for p in args.compare}}
    print(f"csv_block ns per value, median of {args.repeats} repeats")
    for name, blocks in tables().items():
        expected = b"".join(map(floatrepr.csv_block, blocks))
        for label, csv_block in formatters.items():
            if b"".join(map(csv_block, blocks)) != expected:
                print(f"{name}: {label} renders different bytes")
                return 1
        times = {label: [] for label in formatters}
        order = list(formatters.items())
        for _ in range(args.repeats):
            for label, csv_block in order:
                times[label].append(ns_per_value(csv_block, blocks))
            order.reverse()
        base = statistics.median(times["this"])
        for label, samples in times.items():
            median = statistics.median(samples)
            print(f"  {name:9s} {median:7.1f} ns  x{median / base:5.2f}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
