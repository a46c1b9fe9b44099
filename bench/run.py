"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload euler_march --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the run repeats untraced passes for
``--seconds`` seconds, interleaved with fresh setup processes, and reports
the end-to-end metrics (medians over the passes and setups); with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Every pass is checked against the committed
reference; a pass that raises or fails its check counts in ``failed``.

The last line of standard output is the result object.  The line before it
records the environment.  Both, the per-pass figures and (traced) the spans
are also written under ``.bench_out/`` in the checkout.  Exit status 2 means
nothing could be measured (no library source, unknown workload, missing
reference) and no result is printed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_TIMEOUT_S = 120
# Share of an untraced run spent in setup processes.  One setup takes about
# 0.1 s and varies by tens of percent, so a run needs dozens for a steady median.
SETUP_SHARE = 0.2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """Nothing can be measured; the run exits with status 2."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_thread_pools() -> dict:
    """Cap the BLAS and OpenMP pools at ``nproc`` through the environment.

    Must run before numpy is imported; setup child processes inherit it.
    """
    limit = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        keep = current.isdigit() and 1 <= int(current) <= limit
        os.environ[var] = current if keep else str(limit)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_library():
    """Import roughflow from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "roughflow" / "__init__.py").is_file():
        raise BenchError(f"no roughflow source under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import roughflow
    if SRC not in pathlib.Path(roughflow.__file__).resolve().parents:
        raise BenchError(f"roughflow was imported from {roughflow.__file__}")
    return roughflow


def environment(seed: int, threads: dict) -> dict:
    import numpy
    import roughflow
    digest = hashlib.sha256()
    for path in sorted((SRC / "roughflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "roughflow": roughflow.__version__, "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "nproc": nproc(), "thread_pools": threads, "seed": seed}


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports roughflow and builds the inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"setup process failed: {done.stderr.strip()[-500:]}")
    return elapsed


def run_pass(run, check):
    """One timed pass: ``(wall_s, cpu_s, failures, output)``.

    The check runs after the clocks stop.  A pass that raises is a failed
    pass, not a failed run, so it is caught here and reported.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        output = run()
    except Exception as exc:  # noqa: BLE001 - every library error fails the pass
        output, failures = None, [f"raised {type(exc).__name__}: {exc}"]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if output is not None:
        try:
            failures = check(output)
        except Exception as exc:  # noqa: BLE001 - a malformed output fails the check
            failures = [f"check raised {type(exc).__name__}: {exc}"]
    return wall, cpu, failures, output


def measure(wl, inputs, reference, seconds: float, setup) -> dict:
    """Untraced passes for ``seconds``: the end-to-end figures.

    ``setup()`` times one fresh setup process.  After every pass, setups run
    until they have taken ``SETUP_SHARE`` of the time so far (at least one),
    so ``setup_s`` samples the machine across the whole run.
    """
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls, cpus, failures, setups = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() < start + seconds:
        wall, cpu, problems, output = run_pass(lambda: wl.run(inputs),
                                               lambda out: wl.check(out, reference))
        del output
        walls.append(wall)
        cpus.append(cpu)
        failures.append(problems)
        setups.append(setup())
        while sum(setups) < SETUP_SHARE * (time.perf_counter() - start):
            setups.append(setup())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
    return {"walls": walls, "cpus": cpus, "failures": failures, "setups": setups,
            "metrics": {"wall_s": (statistics.median(walls), "s"),
                        "cpu_s": (statistics.median(cpus), "s"),
                        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
                        "setup_s": (statistics.median(setups), "s")}}


def measure_traced(wl, inputs, reference, seconds: float, spans_path) -> dict:
    """Alternating untraced and traced passes for ``seconds``: per-layer figures."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, units, failures = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        wall, _, problems, output = run_pass(lambda: wl.run(inputs),
                                             lambda out: wl.check(out, reference))
        del output
        plain.append(wall)
        failures.append(problems)
        with tracer:
            wall, _, problems, output = run_pass(
                lambda: tracer.span(tracing.ROOT_SPAN, wl.run, inputs),
                lambda out: wl.check(out, reference))
        units.append(wl.units(output) if output is not None else {})
        del output
        traced.append(wall)
        failures.append(problems)
    tracer.save(spans_path)
    per_pass = [tracing.layer_metrics(summary, u) for summary, u in
                zip(tracing.pass_summaries(tracer.arrays()), units)]
    metrics = {}
    for name in per_pass[0]:
        unit = tracing.unit(name)
        # counts repeat exactly; median_low keeps them whole numbers
        middle = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = (middle([p[name] for p in per_pass]), unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return {"walls": plain, "traced_walls": traced, "failures": failures,
            "per_pass": per_pass, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (times setup_s)")
    args = parser.parse_args(argv)

    threads = pin_thread_pools()
    import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    seed = workloads.input_seed(args.seed)
    scratch = OUT_DIR / "tmp"
    if args.setup_only:
        wl.cleanup(wl.build(seed, wl.full, scratch))
        return 0

    try:
        reference = workloads.load_reference(wl.name, seed)
    except (OSError, KeyError) as exc:
        raise BenchError(f"no reference output: {exc}") from exc
    env = environment(args.seed, threads)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    inputs = wl.build(seed, wl.full, scratch)
    try:
        if args.trace:
            figures = measure_traced(wl, inputs, reference, args.seconds,
                                     OUT_DIR / f"{stem}_spans.npz")
        else:
            figures = measure(wl, inputs, reference, args.seconds,
                              lambda: setup_seconds(wl.name, args.seed))
    finally:
        wl.cleanup(inputs)

    failed = sum(1 for problems in figures["failures"] if problems)
    for k, problems in enumerate(figures["failures"]):
        for problem in problems:
            print(f"pass {k}: {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(figures["failures"]),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in figures["metrics"].items()}}
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"env": env, "result": result, "figures": figures}, handle, indent=1)
        handle.write("\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
