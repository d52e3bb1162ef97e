"""Benchmark of choreo, end to end and per layer.

    python3 perfbench/run.py --workload descent|saddle|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; ``choreo`` is imported from its
``src`` directory.  One process, one caller, BLAS pinned to one thread.
The run repeats whole rounds of the workload's fixed operation list until
the next round would end after ``--seconds`` (at least one round), checks
every operation, and prints the metrics; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced rounds for the same time, and reports the
per-layer metrics and the tracing overhead.
"""

import os

# before numpy is imported anywhere: one BLAS thread, no multistart fan-out
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CHOREO_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def import_choreo() -> float:
    """Import choreo from this checkout's source tree; seconds taken."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    try:
        import choreo
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import choreo from {SRC}: {exc}")
    dt = perf_counter() - t0
    if Path(choreo.__file__).resolve().parent != SRC / "choreo":
        sys.exit(f"perfbench: imported choreo from {choreo.__file__}, not from {SRC}")
    return dt


def prepare(workload: str, seed: int, work: Path):
    import workloads

    ops = workloads.WORKLOADS[workload](seed, work)
    workloads.warm(workload)
    return ops


def run_round(ops) -> dict:
    """One pass over the operation list."""
    rec = {"timings": [], "iters": 0, "sweeps": 0, "refine_iters": 0, "artifact_bytes": 0}
    failures = []
    for op in ops:
        try:
            out = op.run()
            fails = out.fails
        except Exception as exc:  # a raising operation is a failed operation
            out, fails = None, [f"{type(exc).__name__}: {exc}"]
        if out is not None:
            rec["timings"] += out.timings
            for key in ("iters", "sweeps", "refine_iters", "artifact_bytes"):
                rec[key] += getattr(out, key)
        if fails:
            failures.append((op.name, op.known_fault, fails))
    rec["wall"] = sum(dt for _, dt in rec["timings"])
    rec["failures"] = failures
    return rec


def repeat(step, budget: float) -> list:
    """Call ``step`` until the next call would end after ``budget`` seconds
    (at least once); returns the results."""
    out = []
    t0 = perf_counter()
    while True:
        t_step = perf_counter()
        out.append(step())
        now = perf_counter()
        if (now - t0) + (now - t_step) > budget:
            return out


def mean_of(rounds, kind) -> float:
    """Mean seconds per call of one kind.  The calls of a round differ by
    orders of magnitude, so a median sits in a gap between clusters and
    jumps with the seed, and short calls feel every burst of load on a
    shared host; the mean is carried by the long calls, which average the
    bursts out."""
    return statistics.fmean(dt for r in rounds for k, dt in r["timings"] if k == kind)


def setup_probe(args) -> None:
    """Child process: fresh interpreter to first operation ready."""
    import_s = import_choreo()
    work = ROOT / ".perfbench_work" / f"setup-{os.getpid()}"
    try:
        prepare(args.workload, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"import_s": import_s}))


def measure_setup(args) -> tuple[float, float]:
    """Median wall seconds of fresh set-ups, and median import time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]  # fmt: skip
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        walls.append(perf_counter() - t0)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{done.stderr}")
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def environment() -> dict:
    import numpy

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def report(metrics: dict, units: dict) -> dict:
    if set(metrics) != set(units):
        odd = sorted(set(metrics) ^ set(units))
        sys.exit(f"perfbench: metrics {odd} disagree with BENCHMARK.json")
    out = {}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
        out[name] = {"value": value, "unit": units[name]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("descent", "saddle", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args)
        return 0

    import_choreo()
    setup_s, import_s = measure_setup(args)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        ops = prepare(args.workload, args.seed, work)
        if args.trace:
            import workloads
            from spans import Tracer

            tracer = Tracer()

            def traced_round():
                tracer.install()
                workloads.quiet = tracer.pause
                try:
                    return run_round(ops)
                finally:
                    tracer.uninstall()
                    workloads.quiet = contextlib.nullcontext

            # untraced and traced rounds alternate, so drift in the
            # machine's speed cancels from the overhead
            pairs = repeat(lambda: (run_round(ops), traced_round()), args.seconds)
            plain, traced = [p[0] for p in pairs], [p[1] for p in pairs]
            rounds = plain + traced
            per_round = {
                key: sum(r[key] for r in traced) / len(traced)
                for key in ("sweeps", "refine_iters", "artifact_bytes")
            }
            metrics = tracer.layer_metrics(len(traced), per_round)
            metrics["import.choreo.s"] = import_s
            walls = [statistics.median(r["wall"] for r in rs) for rs in (plain, traced)]
            print(f"wall_s untraced {walls[0]:.4g} s, traced {walls[1]:.4g} s")
            metrics["trace.overhead_s"] = walls[1] - walls[0]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            rounds = repeat(lambda: run_round(ops), args.seconds)
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(r["wall"] for r in rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "op_mean_s": mean_of(rounds, "op"),
                "cli_mean_s": mean_of(rounds, "cli"),
                "iters": float(statistics.median(r["iters"] for r in rounds)),
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it

    attempted = len(ops) * len(rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    unexpected = [f for r in rounds for f in r["failures"] if not f[1]]
    for name, known, fails in {f[0]: f for r in rounds for f in r["failures"]}.values():
        tag = "known fault" if known else "UNEXPECTED"
        print(f"FAILED ({tag}) {name}: {'; '.join(map(str, fails))}", file=sys.stderr)
    print(f"environment: {json.dumps(environment())}")
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of {len(ops)} ops")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": report(metrics, units),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
