"""Regenerate the committed reference outputs under ``bench/reference/``.

    python3 bench/make_reference.py [workload ...]

Runs every workload once at full size for each input seed and stores the
record its check compares against.  Only regenerate when the library's
intended output changes, and say so in the change that does it: the
references are what makes a faster pass also a correct one.
"""

import sys

import numpy as np

import run


def main(argv) -> int:
    run.pin_thread_pools()
    run.import_library()
    import workloads

    names = argv or sorted(workloads.WORKLOADS)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        wl = workloads.WORKLOADS[name]
        arrays = {}
        for seed in range(workloads.INPUT_SEEDS):
            inputs = wl.build(seed, wl.full, run.OUT_DIR / "tmp")
            try:
                output = wl.run(inputs)
            finally:
                wl.cleanup(inputs)
            failures = wl.check(output, None)
            if failures:
                raise SystemExit(f"{name} seed {seed}: {failures}")
            for key, value in wl.record(output).items():
                arrays[f"{seed}/{key}"] = np.asarray(value)
            print(f"{name} seed {seed}: ok", flush=True)
        np.savez_compressed(workloads.reference_path(name), **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
