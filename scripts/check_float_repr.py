#!/usr/bin/env python3
"""Compare the CSV float formatter with Python's repr, value by value.

    python scripts/check_float_repr.py --count N --seed S
    python scripts/check_float_repr.py --count N --seed S --digest

Formats N random 64-bit patterns, read as doubles, and every edge class
(powers of two and of ten with their neighbours, repr's notation switch
points, integers near 2**53, subnormals, short decimals, runs of
consecutive integers and short decimals, 17-digit values with 3-digit
exponents, signed zeros, nan and infinities, each with both signs) through
``photonflux.floatrepr.csv_block``, compares every line with ``repr``
and prints the number of mismatches.  The exit status is 1 unless it is 0.

With ``--digest`` it prints only the sha256 of ``repr``'s lines for the N
random patterns, which a test can compare with the formatter's digest
instead of calling ``repr`` a million times.
"""

import argparse
import hashlib
import sys

import numpy as np

from photonflux.floatrepr import csv_block

CHUNK = 1 << 16


def edge_values() -> np.ndarray:
    """Every edge class, both signs; deterministic."""
    two = np.ldexp(1.0, np.arange(-1074, 1024))
    ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    five = np.array([float(f"5e{e}") for e in range(-324, 309)])
    switch = np.array([1e-5, 1e-4, 1e15, 1e16, 9999999999999998.0, 2.0**53 - 2, 2.0**53, 2.0**53 + 2])
    neighbours = np.concatenate([two, ten, switch])
    neighbours = np.concatenate([neighbours, np.nextafter(neighbours, 0.0), np.nextafter(neighbours, np.inf)])
    smallest = np.arange(1, 2001) * 5e-324
    largest = np.nextafter(2.2250738585072014e-308, 0.0) - np.arange(2000) * 5e-324
    rng = np.random.default_rng(0)
    subnormal = rng.integers(1, 1 << 52, 20000, dtype=np.uint64).view(np.float64)
    # 1 to 17 significant digits at every decimal exponent: the shortest
    # output lengths, where the digits' trailing zeros are dropped
    digits = rng.integers(1, 18, 20000)
    mantissa = rng.integers(10 ** (digits - 1), 10**digits, dtype=np.int64)
    exponent = rng.integers(-340, 310, 20000)
    short = np.array([float(f"{m}e{e}") for m, e in zip(mantissa.tolist(), exponent.tolist())])
    # 400 consecutive doubles up from each power of two 2**50..2**69 and of ten 1e-5..1e25: integers and
    # short decimals whose interval ends and centers are integers at the digit scale, so the shortest
    # digits hang on an excluded end, a left end that is kept, or a tie between two candidates
    starts = np.concatenate([2.0 ** np.arange(50, 70), [float(f"1e{e}") for e in range(-5, 26)]])
    consecutive = (starts.view(np.uint64)[:, None] + np.arange(400, dtype=np.uint64)).view(np.float64).ravel()
    # 17 significant digits and a 3-digit exponent: with the sign, the widest text, 25 bytes with its separator
    mantissa = rng.integers(10**16, 10**17, 2000, dtype=np.int64)
    exponent = rng.integers(100, 292, 2000) * rng.choice([-1, 1], 2000)
    widest = np.array([float(f"{m}e{e - 16}") for m, e in zip(mantissa.tolist(), exponent.tolist())])
    special = np.array([0.0, np.nan, np.inf])
    values = np.concatenate([neighbours, five, smallest, largest, subnormal, short, consecutive, widest, special])
    return np.concatenate([values, -values])


def random_values(count: int, seed: int):
    """``count`` random 64-bit patterns as doubles, in chunks.

    The patterns are PCG64's raw output, whose stream does not depend on the
    numpy version.
    """
    bits = np.random.default_rng(seed).bit_generator
    for start in range(0, count, CHUNK):
        yield bits.random_raw(min(CHUNK, count - start)).view(np.float64)


def repr_lines(values: np.ndarray) -> str:
    """One ``repr`` per value, each ending in a newline: what csv_block must produce."""
    return "\n".join(map(repr, values.tolist())) + "\n"


def mismatches(values: np.ndarray) -> list[tuple[str, str]]:
    """(formatter, repr) for each value the two render differently."""
    got = csv_block(values.reshape(-1, 1)).decode()
    expected = repr_lines(values)
    if got == expected:
        return []
    got_lines, expected_lines = got.splitlines(), expected.splitlines()
    if len(got_lines) != len(expected_lines):
        return [(f"{len(got_lines)} lines", f"{len(expected_lines)} lines")]
    return [(g, e) for g, e in zip(got_lines, expected_lines) if g != e]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--count", type=int, default=10**6, help="random 64-bit patterns")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--digest", action="store_true", help="print the sha256 of repr's lines and exit")
    args = parser.parse_args()

    if args.digest:
        digest = hashlib.sha256()
        for chunk in random_values(args.count, args.seed):
            digest.update(repr_lines(chunk).encode())
        print(digest.hexdigest())
        return 0

    edges = edge_values()
    print(f"float repr check: {args.count} random bit patterns (seed {args.seed}) and {len(edges)} edge values")
    bad = mismatches(edges)
    for chunk in random_values(args.count, args.seed):
        bad += mismatches(chunk)
    for got, expected in bad[:10]:
        print(f"  formatter {got!r} repr {expected!r}")
    print(f"mismatches: {len(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
