#!/usr/bin/env python3
"""Hash the artifacts of the benchmark workloads' ops, to compare two checkouts.

    python scripts/artifact_digest.py --workload W --seed S --ops N
        [--units natural|si] [--paper-convention]

Runs ops 0..N-1 of bench workload W at seed S, with the inputs that
``bench/workloads.py`` draws for them, through ``photonflux.cli.main`` of
the checkout this script lives in (its ``src``, whatever ``PYTHONPATH``
says).  Prints one line per op: its exit codes and the sha256 over the
exit codes, the stderr text, and every artifact's relative path and bytes.
The last line is the sha256 over all the op digests.  Two checkouts that
print the same lines produced byte-identical artifacts and the same exit
codes and error lines.

``--units`` adds that global flag to every call, and ``--paper-convention``
adds the flag to every ``circuit`` call.
"""

import argparse
import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from photonflux import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def op_digest(op, out: Path, units, paper_convention: bool) -> tuple:
    """(exit codes, sha256) of one op run into the empty directory ``out``."""
    h = hashlib.sha256()
    codes = []
    for argv in op.argvs(out):
        if paper_convention and "circuit" in argv:
            argv = [*argv, "--paper-convention"]
        if units is not None:
            argv = ["--units", units, *argv]
        err = io.StringIO()
        with redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        codes.append(code)
        h.update(f"exit {code}\n{err.getvalue()}".encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return codes, h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True, help="run ops 0..N-1")
    parser.add_argument("--units", choices=("natural", "si"), default=None)
    parser.add_argument("--paper-convention", action="store_true")
    args = parser.parse_args()
    if Path(cli.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"error: photonflux imported from {cli.__file__}, not {ROOT / 'src'}")

    workload = WORKLOADS[args.workload]
    print(f"artifact digests: {args.workload} seed {args.seed}, ops 0..{args.ops - 1}")
    combined = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        for index in range(args.ops):
            op = workload.make_op(args.seed, index, inputs)
            codes, digest = op_digest(op, Path(tmp) / f"op{index}", args.units, args.paper_convention)
            print(f"op {index:4d}  exit {','.join(map(str, codes))}  {digest}")
            combined.update(digest.encode())
    print(f"all      {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
