"""Closed-loop benchmark of the photonflux command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; photonflux is imported from its
``src`` directory and nowhere else.  One single-threaded process calls
``photonflux.cli.main(argv)`` in-process, one op at a time (one client, each
op starts when the previous one has finished), for ``S`` seconds on inputs
drawn from the seed.  Every op is checked by the workload's oracle; a few
ops are replayed and must give byte-identical artifacts.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``setup_s`` is the median over fresh interpreters of the time from process
start to the moment the first timed op could begin (imports, input
generation and one warm-up op).

``--trace 1`` reports the per-layer metrics: each op runs once plain and
once with span wrappers installed (see spans.py), the two artifact sets
must be byte-identical, and ``trace.overhead_pct`` compares the two
``op_ms_p50``.  No layer has a queue or threads, so no time-waited metric
exists.  The last stdout line is the JSON result.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from reference import REFERENCE_MS, kernel_ms
from spans import FUNCTIONS, METHODS, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10


def import_cli():
    """Import photonflux.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "photonflux" / "cli.py").is_file():
        raise SystemExit(f"error: no photonflux sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from photonflux import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: photonflux imported from {cli.__file__}, not {SRC}")
    return cli


class Inputs:
    """Op ``i`` of the run; the first ``pool`` are written before timing starts."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.dir = work / "inputs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ops = [workload.make_op(seed, i, self.dir) for i in range(workload.pool + 1)]

    def __getitem__(self, i: int):
        while i >= len(self.ops):
            self.ops.append(self.workload.make_op(self.seed, len(self.ops), self.dir))
        return self.ops[i]


def run_op(main, op, out: Path) -> tuple:
    """Time the op's CLI calls into a fresh ``out``; returns (ns, error or None)."""
    shutil.rmtree(out, ignore_errors=True)
    argvs = op.argvs(out)
    start = perf_counter_ns()
    try:
        for argv in argvs:
            code = main(argv)
            if code != 0:
                break
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return perf_counter_ns() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter_ns() - start
    return elapsed, (None if code == 0 else f"exit code {code}")


def check_op(workload, op, out: Path, error) -> list:
    if error is not None:
        return [error]
    try:
        return workload.check(op, out)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable result: {type(exc).__name__}: {exc}"]


def digest(out: Path) -> str:
    """sha256 over every artifact's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def setup(workload, seed: int, work: Path):
    """Everything before the first timed op: import, inputs, one warm-up op."""
    cli = import_cli()
    inputs = Inputs(workload, seed, work)
    out = work / "warmup"
    warm = inputs[0]
    _, error = run_op(cli.main, warm, out)
    problems = [f"warm-up op: {e}" for e in check_op(workload, warm, out, error)]
    kernel_ms()
    # A one-shot CLI process never runs a full collection over the imported
    # modules; keep the long-lived loop from doing so either.
    gc.collect()
    gc.freeze()
    return cli, inputs, problems


def setup_seconds(workload_name: str, seed: int) -> float:
    """Median setup time over fresh interpreters, timed from just before spawn."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload_name,
               "--seed", str(seed), "--setup-probe"]
        start = perf_counter_ns()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed\n{proc.stderr}")
        # perf_counter_ns is CLOCK_MONOTONIC, shared by parent and child
        samples.append((int(proc.stdout.split()[-1]) - start) / 1e9)
    return statistics.median(samples)


def tail_ms(times_ms: list) -> tuple:
    """Highest percentile with TAIL_BEYOND samples beyond it; the median if too few."""
    s = sorted(times_ms)
    n = len(s)
    if n >= 2 * TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return statistics.median(s), 50.0, n // 2


def measure(cli, workload, inputs, seconds: float, work: Path) -> dict:
    """Timed closed loop, then byte-for-byte replays of the first, middle and last op.

    The reference kernel runs right before each op, outside its timing.
    """
    out = work / "out"
    times_ms, kernel, failures, digests = [], [], [], {}
    deadline = perf_counter() + seconds
    i = 1
    while i == 1 or perf_counter() < deadline:
        op = inputs[i]
        kernel.append(kernel_ms())
        elapsed, error = run_op(cli.main, op, out)
        times_ms.append(elapsed / 1e6)
        errors = check_op(workload, op, out, error)
        if errors:
            failures.append((i, errors))
        else:
            digests[i] = digest(out)
        i += 1
    n = len(times_ms)
    for j in sorted({1, (n + 1) // 2, n}):
        if j not in digests:
            continue
        run_op(cli.main, inputs[j], work / "replay")
        if digest(work / "replay") != digests[j]:
            failures.append((j, ["replay artifacts differ"]))
    return {"times_ms": times_ms, "kernel_ms": kernel, "failures": failures}


def measure_traced(cli, workload, inputs, seconds: float, work: Path) -> dict:
    """Each op plain then traced; spans and counts from the traced copy."""
    tracer = Tracer()
    main_traced = tracer.wrap("cli.main", cli.main)
    plain_ms, traced_ms, failures, sizes = [], [], [], {}
    deadline = perf_counter() + seconds
    i = 1
    while i <= workload.count_ops or perf_counter() < deadline:
        op = inputs[i]
        elapsed, error = run_op(cli.main, op, work / "plain")
        plain_ms.append(elapsed / 1e6)
        tracer.op = i
        with tracer.installed():
            elapsed, traced_error = run_op(main_traced, op, work / "traced")
        traced_ms.append(elapsed / 1e6)
        errors = check_op(workload, op, work / "plain", error or traced_error)
        if errors:
            failures.append((i, errors))
        elif digest(work / "plain") != digest(work / "traced"):
            failures.append((i, ["traced artifacts differ from untraced"]))
        sizes[i] = artifact_bytes(work / "traced")
        i += 1
    return {"plain_ms": plain_ms, "traced_ms": traced_ms, "failures": failures,
            "tracer": tracer, "sizes": sizes}


def layer_values(workload, result: dict) -> dict:
    """Per-op layer metrics: self times over every traced op, counts over the first few."""
    per_op = result["tracer"].self_times()
    ops = sorted(per_op)
    counted = [op for op in ops if op <= workload.count_ops]
    names = ["cli.main"] + [f"{m}.{f}" for m, f, _ in FUNCTIONS]
    names += [f"{m}.{c}.{f}" for m, c, f, _ in METHODS]
    values = {}
    for name in names:
        total_self = sum(per_op[op][name][1] for op in ops if name in per_op[op])
        calls = sum(per_op[op][name][0] for op in counted if name in per_op[op])
        values[f"{name}.self_ms"] = total_self / 1e6 / len(ops)
        values[f"{name}.calls"] = calls / len(counted)
    counts = result["tracer"].counts
    for key in ("spectral.fft_points", "circuit.elements",
                "density.write_density_csv.bytes", "spectral.FieldSet.write_csv.bytes"):
        values[key] = sum(counts[op][key] for op in counted) / len(counted)
    values["cli.artifact_bytes"] = sum(result["sizes"][op] for op in counted) / len(counted)
    plain = statistics.median(result["plain_ms"])
    values["trace.overhead_pct"] = 100.0 * (statistics.median(result["traced_ms"]) - plain) / plain
    return values


def environment() -> dict:
    import numpy
    import scipy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "unknown")
    except OSError:
        env["cpu_model"] = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in sorted(caches.glob("index*")):
        try:
            levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    env["last_level_cache"] = max(levels)[1] if levels else "unknown"
    return env


def declared(metric_kind: str) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[metric_kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    metric_kind = "per_layer" if args.trace else "end_to_end"
    spec = declared(metric_kind)
    import_cli()
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            setup(workload, args.seed, work)
            print(perf_counter_ns())
            return 0
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
        cli, inputs, problems = setup(workload, args.seed, work)
        if args.trace:
            result = measure_traced(cli, workload, inputs, args.seconds, work)
            values = layer_values(workload, result)
            times_ms = result["plain_ms"]
        else:
            result = measure(cli, workload, inputs, args.seconds, work)
            times_ms = result["times_ms"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    n = len(times_ms)
    failed = len({i for i, _ in result["failures"]})
    for i, errors in result["failures"][:5]:
        problems.append(f"op {i}: " + "; ".join(errors))
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)

    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: {n} ops in {args.seconds:g} s, "
          f"one client, closed loop")
    if not args.trace:
        # each op's time at the reference host speed (see reference.py)
        ref_ms = [REFERENCE_MS * t / k for t, k in zip(times_ms, result["kernel_ms"])]
        values = {
            "ref_ops_per_s": n / (sum(ref_ms) / 1e3),
            "ref_op_ms_p50": statistics.median(ref_ms),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (n - failed) / n,
        }
        # wall-clock figures, printed but not bounded: see README.md
        tail, tail_q, beyond = tail_ms(times_ms)
        print(f"# ops_per_s {n / (sum(times_ms) / 1e3):.6g} 1/s")
        print(f"# op_ms_p50 {statistics.median(times_ms):.6g} ms")
        print(f"# op_ms_tail {tail:.6g} ms (p{tail_q:.1f}: {beyond} of {n} ops beyond it)")
        print(f"# failed_ratio {failed / n:g} ratio ({failed} of {n} ops)")
        print(f"# reference kernel median {statistics.median(result['kernel_ms']):.6g} ms "
              f"(REFERENCE_MS {REFERENCE_MS:g})")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
