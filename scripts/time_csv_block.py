#!/usr/bin/env python3
"""Time the CSV float formatter on the two tables the CLI writes most.

    python scripts/time_csv_block.py [--repeats R] [--compare FLOATREPR_PY ...]

Prints the CSV formatter's cost in ns per written value, the median over R
repeats, in one process:

- ``localized``: ``floatrepr.csv_block`` on the ``localized --dim 1`` table
  (u, re, im, rho), 50001x4, from ``localized_density_1d`` at k_max = 2, cut
  into the CSV writer's blocks of rows;
- ``fields``: the same on the ``density`` ``fields.csv`` table (x, re/im of
  A+ and E+), 16384x5, from ``synthesize_fields`` on a Gaussian state at
  t = 0.3;
- ``density-run``: the CSV writer's run pass over both tables of that
  ``density`` run, ``density.csv`` (x, rho, J) and ``fields.csv``, with
  ``x`` shared, so its slots are built once per block: 131072 written
  values from 114688 distinct ones.

Each ``--compare`` file is another ``floatrepr.py`` (say, a parent
checkout's), loaded as a module of this process; on ``density-run`` it
formats each table by its own ``csv_block``, ``x`` twice, as a writer with
one pass per table does.  Its repeats alternate with this checkout's, so
both see the same host state, and each line also gives its median as a
ratio to this checkout's.
"""

import argparse
import functools
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from photonflux import cli, density, floatrepr, spectral  # noqa: E402
from photonflux.cli import _CSV_BLOCK_ROWS  # noqa: E402
from photonflux.density import localized_density_1d  # noqa: E402


def tables() -> dict:
    """name -> (distinct float64 columns, each table's indices into them), as the CSV writer gets them."""
    k_max = 2.0
    u = np.linspace(-500.0 / k_max, 500.0 / k_max, 50001)
    rho = localized_density_1d(u, k_max)
    grid = spectral.KGrid1D(16384, 1.0, 1.0)
    state = spectral.make_gaussian_state(8000.0, 250.0, grid)
    fields = spectral.synthesize_fields(state, 0.3)
    a, e = fields.a_plus, fields.e_plus
    run = [grid.x, density.density_field(state, state, 0.3).rho, density.current_field(state, state, 0.3),
           a.real, a.imag, e.real, e.imag]
    return {
        "localized": ([u, rho.real, rho.imag, 2.0 * rho.real], [[0, 1, 2, 3]]),
        "fields": (run[:1] + run[3:], [[0, 1, 2, 3, 4]]),
        "density-run": (run, [[0, 1, 2], [0, 3, 4, 5, 6]]),
    }


def blocks(columns, table) -> list:
    """The table's (rows, columns) float64 blocks, as the CSV writer cuts them."""
    return [np.stack([columns[i][lo:lo + _CSV_BLOCK_ROWS] for i in table], axis=1)
            for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS)]


def per_table(csv_block, block_lists) -> list:
    """Each table's CSV rows, ``csv_block`` on each of its pre-cut blocks."""
    return [b"".join(map(csv_block, table_blocks)) for table_blocks in block_lists]


def run_pass(columns, layout) -> list:
    """Each table's CSV rows from the writer's run pass: every distinct column rendered once per block."""
    texts = [[] for _ in layout]
    cli._format_rows([text.append for text in texts], columns, layout, 0, len(columns[0]))
    return [b"".join(text) for text in texts]


def ns_per_value(render, values: int) -> float:
    start = time.perf_counter_ns()
    render()
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
    for name, (columns, layout) in tables().items():
        block_lists = [blocks(columns, table) for table in layout]
        renders = {label: functools.partial(per_table, csv_block, block_lists)
                   for label, csv_block in formatters.items()}
        if name == "density-run":
            renders["this"] = functools.partial(run_pass, columns, layout)
        expected = renders["this"]()
        for label, render in renders.items():
            if render() != expected:
                print(f"{name}: {label} renders different bytes")
                return 1
        values = len(columns[0]) * sum(map(len, layout))
        times = {label: [] for label in renders}
        order = list(renders.items())
        for _ in range(args.repeats):
            for label, render in order:
                times[label].append(ns_per_value(render, values))
            order.reverse()
        base = statistics.median(times["this"])
        for label, samples in times.items():
            median = statistics.median(samples)
            print(f"  {name:11s} {median:7.1f} ns  x{median / base:5.2f}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
