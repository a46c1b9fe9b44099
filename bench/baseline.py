"""Run the benchmark over several seeds and summarize it per workload.

    python3 bench/baseline.py --seeds 10 [--traced 2] [--out FILE]

Each workload runs once per seed 0..N-1, each run a separate ``run.py``
process.  For every end-to-end metric the summary gives the values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the interquartile distance as a share of the median.  ``--traced N`` adds N
traced runs per workload, at seed 0, and records whether their counts
repeated exactly.
``bench/baseline.json`` is this summary for the commit it names; later
changes compare their own runs against it.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def run_once(workload: str, seed: int, seconds: int, traced: int) -> dict:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1])}


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, spec["run_seconds"], 0)
                for seed in range(args.seeds)]
        summary["env"] = runs[0]["env"]
        entry = {"attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = summarize(values)
            line = entry["end_to_end"][metric["name"]]
            print(f"{workload:12s} {metric['name']:12s} median {line['median']:.6g} "
                  f"spread {line['spread']:.4f} (bound {metric['bound']})", flush=True)
        if args.traced:
            traced = [run_once(workload, 0, spec["run_seconds"], 1)
                      for _ in range(args.traced)]
            layers = [t["result"]["metrics"] for t in traced]
            entry["per_layer"] = {name: layers[0][name]["value"] for name in layers[0]}
            entry["counts_repeat"] = all(
                layer[name] == layers[0][name] for layer in layers
                for name in layer if not name.endswith("_s"))
            print(f"{workload:12s} traced counts repeat: {entry['counts_repeat']}",
                  flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
