"""The benchmark's four workloads: inputs from a seed, one pass, the output check.

Every workload is a whole recipe driven through roughflow's public API.  The
library modules are looked up as module attributes at call time
(``euler.solve_rough_euler``, not a name bound at import), so the traced run
can wrap them in place.

Inputs depend on an *input seed* ``seed % INPUT_SEEDS``.  Outputs for every
input seed at full size are committed under ``reference/``, so each pass of
each run is checked against a reference, whatever ``--seed`` the caller picks.
"""

import contextlib
import io
import json
import math
import os
import pathlib

import numpy as np

import roughflow.cli as cli
import roughflow.euler as euler
import roughflow.fields as fields
import roughflow.harness as harness
import roughflow.roughpath as roughpath

INPUT_SEEDS = 16
REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"
W0_MODES = ((1, 0, 1.0), (2, 1, 0.5))
TWO_PI = 2.0 * math.pi

# Positions and velocities may differ from the reference by reordered
# floating-point sums, amplified over the march; nothing else.
POSITION_ATOL = 1e-9
VELOCITY_RTOL = 1e-9
SCALAR_RTOL = 1e-8


def input_seed(seed: int) -> int:
    return int(seed) % INPUT_SEEDS


def _shear_driver(seed: int, steps: int):
    """2-d H = 0.5 fBm lift (p = 2.6) on [0, 1] with two unit-mode shears."""
    times = np.linspace(0.0, 1.0, steps + 1)
    values = roughpath.sample_fbm(0.5, steps, 1.0, dims=2, seed=seed)
    rough = roughpath.lift_piecewise_linear(times, values, 2.6)
    sigmas = (fields.ShearField(0.3, 1, 0), fields.ShearField(0.3, 1, 1))
    return times, roughpath.DriverPair(sigmas, rough, sign_convention=-1)


def _close(actual, expected, rtol, what, failures):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        failures.append(f"{what}: shape {actual.shape} != {expected.shape}")
        return
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    err = float(np.abs(actual - expected).max(initial=0.0))
    if not err <= rtol * scale:
        failures.append(f"{what}: off by {err:.3e} (allowed {rtol * scale:.3e})")


class Workload:
    """One recipe: ``build`` makes the inputs, ``run`` is one timed pass,
    ``record`` reduces the output to what the reference stores, and
    ``check`` returns the list of failed conditions (empty when correct)."""

    name = ""
    full: dict = {}
    tiny: dict = {}

    def build(self, seed: int, size: dict, scratch: pathlib.Path):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def record(self, output) -> dict:
        raise NotImplementedError

    def invariants(self, output) -> list:
        return []

    def compare(self, record: dict, reference: dict) -> list:
        raise NotImplementedError

    def units(self, output) -> dict:
        """Work units of one pass, for per-unit layer counts."""
        return {}

    def check(self, output, reference: dict | None) -> list:
        failures = self.invariants(output)
        if reference is not None and not failures:
            failures += self.compare(self.record(output), reference)
        return failures

    def cleanup(self, inputs) -> None:
        pass


class EulerMarch(Workload):
    """The ROADMAP reference solve: deposit, Biot–Savart and the Davie step."""

    name = "euler_march"
    full = {"resolution": 64, "particles": 128, "steps": 256}
    tiny = {"resolution": 16, "particles": 32, "steps": 16}
    particle_stride = 64
    grid_stride = 4

    def build(self, seed, size, scratch):
        times, driver = _shear_driver(seed, size["steps"])
        w0 = fields.vorticity_from_modes(list(W0_MODES), size["resolution"])
        return {"w0": w0, "driver": driver, "times": times,
                "particles": size["particles"]}

    def run(self, inputs):
        return euler.solve_rough_euler(
            inputs["w0"], inputs["driver"], inputs["times"],
            particles_per_side=inputs["particles"], store_times="steps")

    def record(self, traj):
        pos = traj.final.particles.positions
        u = traj.final.velocity
        s = self.grid_stride
        return {
            "positions": pos[::self.particle_stride],
            # torus-safe moments of every particle position
            "position_moments": np.array([np.cos(pos).mean(axis=0),
                                          np.sin(pos).mean(axis=0)]).ravel(),
            "velocity": u[:, ::s, ::s],
            "velocity_moments": np.array([np.square(u).sum(), np.abs(u).max()]),
        }

    def invariants(self, traj):
        if not traj.conservation_drift <= 1e-8:
            return [f"conservation_drift {traj.conservation_drift:.3e} > 1e-8"]
        return []

    def compare(self, rec, ref):
        failures = []
        delta = (rec["positions"] - ref["positions"] + math.pi) % TWO_PI - math.pi
        err = float(np.abs(delta).max())
        if not err <= POSITION_ATOL:
            failures.append(f"final positions off by {err:.3e}")
        _close(rec["position_moments"], ref["position_moments"], POSITION_ATOL,
               "position moments", failures)
        _close(rec["velocity"], ref["velocity"], VELOCITY_RTOL, "final velocity",
               failures)
        _close(rec["velocity_moments"], ref["velocity_moments"], VELOCITY_RTOL,
               "velocity moments", failures)
        return failures


class WeakLedger(EulerMarch):
    """The whole recipe: solve_rough_euler, then weak_remainder on every step."""

    name = "weak_ledger"
    full = {"resolution": 32, "particles": 64, "steps": 128}
    tiny = {"resolution": 32, "particles": 64, "steps": 16}

    def run(self, inputs):
        traj = super().run(inputs)
        return traj, euler.weak_remainder(traj)

    def record(self, output):
        wr = output[1]
        return {"variation_norm": np.array(wr.variation_norm),
                "scaling_slope": np.array(wr.scaling_slope)}

    def invariants(self, output):
        wr = output[1]
        if not wr.additivity_defect <= 1e-10:
            return [f"additivity_defect {wr.additivity_defect:.3e} > 1e-10"]
        return []

    def compare(self, rec, ref):
        failures = []
        for key in ("variation_norm", "scaling_slope"):
            _close(rec[key], ref[key], SCALAR_RTOL, key, failures)
        return failures

    def units(self, output):
        return {"snapshots": int(output[1].times.size)}


class FlowPair(Workload):
    """The flow_convergence experiment: ten solve_flow runs on a steady drift
    and the driver-difference control tables."""

    name = "flow_pair"
    full = {"resolution": 32, "particles": 48, "mesh": 128}
    tiny = {"resolution": 16, "particles": 8, "mesh": 16}

    def build(self, seed, size, scratch):
        config = harness.ExperimentConfig(
            "flow_convergence", resolution=size["resolution"],
            particles=size["particles"], meshes=(size["mesh"],), hurst=0.5,
            sigma=({"type": "constant", "value": (0.7, 0.0)},),
            w0_modes=W0_MODES, seeds=(seed,))
        return {"config": config}

    def run(self, inputs):
        return harness.run_flow_convergence(inputs["config"])

    def record(self, result):
        _, rows = result.table()
        return {"left": np.array([r["left"] for r in rows]),
                "right": np.array([r["right"] for r in rows])}

    def invariants(self, result):
        return [] if result.passed else ["flow_convergence did not pass"]

    def compare(self, rec, ref):
        failures = []
        for key in ("left", "right"):
            _close(rec[key], ref[key], SCALAR_RTOL, f"table column {key}", failures)
        return failures


class PvarCli(Workload):
    """``roughflow pvar`` in-process on a seeded random-walk CSV, plain and
    localized: the only path through cli and the unlocalized p-variation DP."""

    name = "pvar_cli"
    full = {"rows": 4000}
    tiny = {"rows": 200}
    commands = (("--p", "2.5"),
                ("--p", "2.5", "--localize", "power:1", "--L", "0.05"))

    def build(self, seed, size, scratch):
        rng = np.random.default_rng(seed)
        n = size["rows"]
        times = np.linspace(0.0, 1.0, n)
        values = np.cumsum(rng.standard_normal(n)) / math.sqrt(n)
        scratch.mkdir(parents=True, exist_ok=True)
        path = scratch / f"pvar_{seed}_{n}_{os.getpid()}.csv"
        with open(path, "w", encoding="ascii") as handle:
            handle.write("time,value\n")
            for t, v in zip(times, values):
                handle.write("%.17g,%.17g\n" % (t, v))
        return {"csv": str(path)}

    def run(self, inputs):
        outputs = []
        for extra in self.commands:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                status = cli.main(["pvar", inputs["csv"], *extra])
            outputs.append((status, buffer.getvalue()))
        return outputs

    def record(self, outputs):
        rec = {}
        for k, (_, text) in enumerate(outputs):
            parsed = json.loads(text)
            rec[f"value{k}"] = np.array(parsed["value"])
            rec[f"partition{k}"] = np.array(parsed["argmax_partition"], dtype=np.int64)
        return rec

    def invariants(self, outputs):
        failures = []
        for k, (status, text) in enumerate(outputs):
            if status != 0:
                failures.append(f"pvar command {k} exited with {status}")
                continue
            try:
                parsed = json.loads(text)
            except ValueError:
                failures.append(f"pvar command {k} printed no JSON: {text[:80]!r}")
                continue
            partition = parsed.get("argmax_partition")
            if not isinstance(parsed.get("value"), float) or not partition:
                failures.append(f"pvar command {k} output lacks value or partition")
        return failures

    def compare(self, rec, ref):
        failures = []
        for k in range(len(self.commands)):
            if rec[f"value{k}"] != ref[f"value{k}"]:
                failures.append(f"pvar command {k} value {float(rec[f'value{k}'])!r} "
                                f"!= reference {float(ref[f'value{k}'])!r}")
            if not np.array_equal(rec[f"partition{k}"], ref[f"partition{k}"]):
                failures.append(f"pvar command {k} partition differs from reference")
        return failures

    def cleanup(self, inputs):
        with contextlib.suppress(FileNotFoundError):
            os.remove(inputs["csv"])


WORKLOADS = {w.name: w for w in (EulerMarch(), WeakLedger(), FlowPair(), PvarCli())}


def reference_path(name: str) -> pathlib.Path:
    return REFERENCE_DIR / f"{name}.npz"


def load_reference(name: str, seed: int) -> dict:
    """The committed record for ``input_seed(seed)``; raises if it is missing."""
    prefix = f"{input_seed(seed)}/"
    with np.load(reference_path(name)) as data:
        ref = {key[len(prefix):]: data[key] for key in data.files
               if key.startswith(prefix)}
    if not ref:
        raise KeyError(f"no reference for {name} input seed {input_seed(seed)}")
    return ref
