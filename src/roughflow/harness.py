"""Reproducible experiment drivers behind the ``roughflow`` CLI.

Each experiment takes an :class:`ExperimentConfig`, runs a fixed recipe built
from the library layers, and returns an :class:`ExperimentResult` holding
CSV-ready tables, measured constants, and a boolean pass flag (the encoded
acceptance property of that experiment).  Runs are deterministic given
``(config, seed)``: meshes are processed sequentially, randomness enters only
through the seeded fBm sampler, and CSV cells are printed with ``%.17g`` so a
re-run reproduces the output files byte for byte.

Output layout under ``<out>/<experiment>/``::

    meta.json            config echo, config hash, library version,
                         measured constants, pass flag
    <table>.csv          one or more result tables
    mesh_<m>/final_field.csv
                         the final vorticity of each independent sub-run,
                         written with the result (``mesh_fields``)

Each experiment is registered once, by :func:`_experiment`: its name, its
tolerance keys with their defaults, and a body that maps ``(config, seed)``
to the pass flag, tables, measured constants and per-mesh final fields.
"""

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, HypothesisError
from .euler import (
    FourierTestFunctions,
    _fit_slope,
    _jsonable,
    solve_rough_euler,
    weak_remainder,
)
from .fields import (
    ConstantField,
    GradPerpField,
    SumField,
    VorticityGrid,
    _torus_distances,
    biot_savart,
    field_from_spec,
    load_field_csv,
    save_field_csv,
    vorticity_from_modes,
)
from .flow import (
    LAGRANGIAN_STABILITY_CONSTANT,
    FlowProblem,
    GridDrift,
    ParticleFlow,
    lagrangian_stability_bound,
    solve_flow,
)
from .roughpath import DriverPair, lift_piecewise_linear, sample_fbm, variation_control
from .variation import _default_localization

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _canonical(value):
    """Normalize parsed JSON so equal configs compare equal (lists→tuples)."""
    if isinstance(value, dict):
        return {str(k): _canonical(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise GridError(f"config values must be JSON scalars/lists/dicts, got {type(value)!r}")


@dataclass(frozen=True, eq=True)
class ExperimentConfig:
    """Plain-data description of one experiment.

    ``particles`` is the lattice side (``N_p = particles²``), matching the
    desk default ``N_p = 256²`` at ``particles=256``.  ``sigma`` holds catalog
    field specs (see :func:`roughflow.fields.field_from_spec`); ``w0_modes``
    is either a tuple of ``(k1, k2, amplitude[, phase])`` rows or a path to a
    saved field CSV.  ``tolerances`` collects the experiment's pass-criterion
    knobs; a key the experiment does not accept is a ``HypothesisError``.
    """

    experiment: str
    resolution: int = 64
    particles: int = 128
    horizon: float = 1.0
    hurst: float = 0.5
    meshes: tuple = (64, 128, 256)
    sigma: tuple = ({"type": "constant", "value": (0.6, 0.0)},)
    w0_modes: object = ((1, 0, 1.0),)
    seeds: tuple = (0,)
    tolerances: dict = field(default_factory=dict)
    output_dir: str = "runs"

    def __post_init__(self):
        for name in ("meshes", "sigma", "w0_modes", "seeds", "tolerances"):
            object.__setattr__(self, name, _canonical(getattr(self, name)))
        if self.experiment not in EXPERIMENTS:
            raise HypothesisError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        accepted = tuple(_TOLERANCE_DEFAULTS[self.experiment])
        unknown = sorted(set(self.tolerances) - set(accepted))
        if unknown:
            raise HypothesisError(
                f"unknown tolerance key(s) {unknown} for {self.experiment}; "
                f"accepted keys are {accepted}")
        if not (8 <= int(self.resolution) <= 1024):
            raise HypothesisError("resolution must lie in [8, 1024]")
        if not (2 <= int(self.particles) <= 4096):
            raise HypothesisError("particles (lattice side) must lie in [2, 4096]")
        if not (0.0 < float(self.horizon) <= 100.0):
            raise HypothesisError("horizon must lie in (0, 100]")
        if not (1.0 / 3.0 < float(self.hurst) <= 0.5):
            raise HypothesisError("hurst must lie in (1/3, 1/2], the range of "
                                  "sample_fbm and of level-2 rough paths")
        if len(self.meshes) < 1 or any(int(m) < 1 for m in self.meshes):
            raise HypothesisError("meshes must be positive segment counts")
        if len(self.sigma) < 1:
            raise HypothesisError("at least one sigma field spec is required")
        if len(self.seeds) < 1 or any(int(s) < 0 for s in self.seeds):
            raise HypothesisError("seeds must be nonnegative integers")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise GridError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, (bool, str)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


@dataclass
class ExperimentResult:
    experiment: str
    passed: bool
    tables: dict            # name -> (columns, rows-as-dicts)
    measured: dict          # measured constants, echoed into meta.json
    config: ExperimentConfig
    seed: int
    out_dir: str | None = None
    mesh_fields: dict = field(default_factory=dict)  # mesh -> final VorticityGrid

    def table(self, name: str = "table"):
        return self.tables[name]

    def write(self, out_root) -> str:
        from roughflow import __version__
        out = os.path.join(str(out_root), self.experiment)
        os.makedirs(out, exist_ok=True)
        for mesh, grid in self.mesh_fields.items():
            sub = os.path.join(out, f"mesh_{int(mesh):05d}")
            os.makedirs(sub, exist_ok=True)
            save_field_csv(grid, os.path.join(sub, "final_field.csv"))
        for name, (columns, rows) in self.tables.items():
            path = os.path.join(out, f"{name}.csv")
            with open(path, "w", encoding="ascii") as handle:
                handle.write(",".join(columns) + "\n")
                for row in rows:
                    handle.write(",".join(_format_cell(row[c]) for c in columns) + "\n")
        meta = {
            "experiment": self.experiment,
            "library_version": __version__,
            "config": self.config.to_dict(),
            "config_hash": self.config.config_hash,
            "seed": self.seed,
            "measured": _jsonable(self.measured),
            "passed": self.passed,
        }
        with open(os.path.join(out, "meta.json"), "w", encoding="ascii") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
            handle.write("\n")
        self.out_dir = out
        return out




# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _sigma_fields(config: ExperimentConfig):
    return tuple(field_from_spec(dict(spec)) for spec in config.sigma)


def _initial_vorticity(config: ExperimentConfig) -> VorticityGrid:
    if isinstance(config.w0_modes, str):
        return load_field_csv(config.w0_modes)
    return vorticity_from_modes(list(config.w0_modes), config.resolution)


def _p_from_hurst(hurst: float) -> float:
    """Variation exponent for lifts of H-fBm on ``(1/3, 1/2]``: ``1/H + 0.1``,
    or the midpoint of ``(1/H, 3)`` once that is smaller (``H < 1/2.8``), and
    at least 2; so ``1/H < p < 3`` for every admissible H."""
    return float(max(2.0, min(1.0 / hurst + 0.1, (1.0 / hurst + 3.0) / 2.0)))


@dataclass(frozen=True)
class _FbmSample:
    """One seeded H-fBm draw on ``mesh + 1`` uniform nodes of the horizon."""

    times: np.ndarray
    values: np.ndarray
    p_exponent: float

    @classmethod
    def draw(cls, config: ExperimentConfig, mesh: int, seed: int) -> "_FbmSample":
        values = sample_fbm(config.hurst, mesh, config.horizon,
                            dims=len(config.sigma), seed=seed)
        return cls(np.linspace(0.0, config.horizon, mesh + 1), values,
                   _p_from_hurst(config.hurst))

    def driver(self, sigmas, *, stride: int = 1, scale: float = 1.0) -> DriverPair:
        """Transport driver on every ``stride``-th node: the piecewise-linear
        lift of the sample times ``scale``.  Its grid is the step grid."""
        rough = lift_piecewise_linear(self.times[::stride],
                                      self.values[::stride] * scale, self.p_exponent)
        return DriverPair(sigmas, rough, sign_convention=-1)


def proxy_distance(values1, values2, family: FourierTestFunctions) -> float:
    """Negative-Sobolev proxy distance: sup over the unit test-function ball."""
    diff = np.asarray(values1, dtype=float) - np.asarray(values2, dtype=float)
    return float(np.abs(family.pair(diff) / family.w1_norms).max())


def _particle_sup(positions1, positions2) -> float:
    """Sup over shared labels of the nearest-image particle distance."""
    return float(_torus_distances(positions1, positions2).max())


def _nested_meshes(config: ExperimentConfig, what: str) -> list:
    """The config's meshes, increasing; ``GridError`` unless each divides the next."""
    meshes = sorted(int(m) for m in config.meshes)
    for coarse, fine in zip(meshes, meshes[1:]):
        if fine % coarse != 0:
            raise GridError(
                f"{what} meshes must be nested: {fine} is not a multiple of {coarse}")
    return meshes


def _count_inversions(column) -> int:
    return sum(1 for a, b in zip(column, column[1:]) if b > a)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


RUNNERS = {}
_TOLERANCE_DEFAULTS = {}  # experiment -> {accepted tolerance key: default}


def _experiment(**tolerance_defaults):
    """Register ``run_<name>(config, seed, tolerances)`` as experiment ``<name>``.

    The keyword arguments are the tolerance keys the experiment accepts, with
    their defaults; the body sees them merged with ``config.tolerances``.  It
    returns ``(passed, tables, measured, mesh_fields)``.  The registered
    runner ``run_<name>(config, *, seed=None, out_dir=None)`` checks the
    config's experiment, resolves the seed (``seed`` overrides
    ``config.seeds[0]``), and builds the result, writing it under ``out_dir``
    when one is given.
    """
    def register(body):
        name = body.__name__.removeprefix("run_")

        def run(config: ExperimentConfig, *, seed=None, out_dir=None
                ) -> ExperimentResult:
            if config.experiment != name:
                raise HypothesisError(f"config.experiment must be {name!r}")
            used_seed = int(config.seeds[0] if seed is None else seed)
            tolerances = {**tolerance_defaults, **config.tolerances}
            passed, tables, measured, mesh_fields = body(config, used_seed, tolerances)
            result = ExperimentResult(name, passed, tables, measured, config,
                                      used_seed, mesh_fields=mesh_fields)
            if out_dir is not None:
                result.write(out_dir)
            return result

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        RUNNERS[name] = run
        _TOLERANCE_DEFAULTS[name] = tolerance_defaults
        return run
    return register


@_experiment(max_inversions=1, rde_tolerance=0.01)
def run_wong_zakai(config, seed, tolerances):
    """Driver-approximation convergence for one sampled fBm path.

    Solves the transport problem with piecewise-linear lifts of the same
    sample at every mesh and reports distances between mesh solutions in the
    negative-Sobolev proxy and in particle sup-distance, plus the fitted
    log-log slope.  Pass criterion: the distance-to-finest column decreases
    with at most ``tolerances["max_inversions"]`` (default 1) inversions.
    For ``hurst = 0.5`` a scalar multiplicative sub-test against the exact
    exponential solution is appended as a second table.
    """
    if len(config.meshes) < 3:
        raise HypothesisError("need at least three driver meshes")
    meshes = _nested_meshes(config, "driver")
    sigmas = _sigma_fields(config)
    w0 = _initial_vorticity(config)

    finest = meshes[-1]
    fbm = _FbmSample.draw(config, finest, seed)
    finals = []
    for mesh in meshes:
        driver = fbm.driver(sigmas, stride=finest // mesh)
        run = solve_rough_euler(w0, driver, driver.rough_path.times,
                                particles_per_side=config.particles)
        finals.append(run.final)

    family = FourierTestFunctions(w0.N)
    rows = []
    consecutive = []
    for i, mesh in enumerate(meshes):
        to_finest = (proxy_distance(finals[i].vorticity.values,
                                    finals[-1].vorticity.values, family)
                     if i + 1 < len(meshes) else 0.0)
        if i + 1 < len(meshes):
            d_next = proxy_distance(finals[i].vorticity.values,
                                    finals[i + 1].vorticity.values, family)
            s_next = _particle_sup(finals[i].particles.positions,
                                   finals[i + 1].particles.positions)
            consecutive.append(d_next)
        else:
            d_next = 0.0
            s_next = 0.0
        rows.append({"mesh": mesh, "distance_to_finest": to_finest,
                     "distance_to_next": d_next, "particle_sup_to_next": s_next})

    column = [row["distance_to_finest"] for row in rows[:-1]]
    slope = _fit_slope([1.0 / m for m in meshes[:-1]], consecutive)
    passed = (_count_inversions(column) <= int(tolerances["max_inversions"])
              and column[-1] <= column[0])
    tables = {"table": (["mesh", "distance_to_finest", "distance_to_next",
                         "particle_sup_to_next"], rows)}
    measured = {"slope": slope, "coarsest_distance": column[0],
                "finest_distance": column[-1]}

    if config.hurst == 0.5:
        exact = math.exp(float(fbm.values[-1, 0]))
        rde_rows = []
        for mesh in meshes:
            z = fbm.values[::finest // mesh, 0]
            dz = np.diff(z)
            y = float(np.prod(1.0 + dz + 0.5 * dz * dz))
            rde_rows.append({"mesh": mesh, "terminal_value": y,
                             "error": abs(y - exact)})
        errors = [row["error"] for row in rde_rows]
        rde_tol = float(tolerances["rde_tolerance"])
        rde_passed = errors[-1] <= rde_tol * max(1.0, abs(exact)) \
            and errors[-1] <= errors[0]
        passed = passed and rde_passed
        tables["scalar_rde"] = (["mesh", "terminal_value", "error"], rde_rows)
        measured["rde_error"] = errors[-1]
        measured["rde_exact"] = exact

    mesh_fields = {mesh: final.vorticity for mesh, final in zip(meshes, finals)}
    return passed, tables, measured, mesh_fields


_PERTURBATION_KINDS = ("w0", "sigma", "driver")


@_experiment(perturbation_sizes=(0.2, 0.1, 0.05), perturbation_kinds=_PERTURBATION_KINDS)
def run_stability(config, seed, tolerances):
    """Solution-map continuity: perturb w0, σ, or the driver one at a time.

    The baseline row re-solves the unperturbed problem and must reproduce it
    exactly (determinism).  Pass criterion: for every kind the distance
    column decreases with the perturbation size and the zero-perturbation
    distance is exactly zero.
    """
    sizes = tuple(float(s) for s in tolerances["perturbation_sizes"])
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise HypothesisError("perturbation_sizes must be ≥ 2 positive values")
    sizes = tuple(sorted(sizes, reverse=True))
    kinds = tuple(tolerances["perturbation_kinds"])
    bad = [k for k in kinds if k not in _PERTURBATION_KINDS]
    if bad:
        raise HypothesisError(
            f"perturbation leaves the admissible class: unknown kind(s) {bad}; "
            f"supported kinds are {_PERTURBATION_KINDS}")

    sigmas = _sigma_fields(config)
    w0 = _initial_vorticity(config)
    fbm = _FbmSample.draw(config, int(sorted(config.meshes)[-1]), seed)
    base_driver = fbm.driver(sigmas)

    def solve(w, driver):
        return solve_rough_euler(w, driver, fbm.times,
                                 particles_per_side=config.particles).final

    base = solve(w0, base_driver)
    family = FourierTestFunctions(w0.N)

    def measure(final):
        return (proxy_distance(final.vorticity.values, base.vorticity.values,
                               family),
                _particle_sup(final.particles.positions,
                              base.particles.positions))

    rows = []
    self_distance, self_sup = measure(solve(w0, base_driver))
    rows.append({"kind": "none", "size": 0.0, "distance": self_distance,
                 "particle_sup": self_sup})

    per_kind = {}
    for kind in kinds:
        for size in sizes:
            if kind == "w0":
                final = solve(VorticityGrid(w0.values * (1.0 + size)), base_driver)
            elif kind == "sigma":
                bumped = (SumField(sigmas[0], GradPerpField(size, (1, 1))),
                          ) + sigmas[1:]
                final = solve(w0, fbm.driver(bumped))
            else:  # driver
                final = solve(w0, fbm.driver(sigmas, scale=1.0 + size))
            distance, sup = measure(final)
            rows.append({"kind": kind, "size": size, "distance": distance,
                         "particle_sup": sup})
            per_kind.setdefault(kind, []).append(distance)

    passed = self_distance == 0.0 and self_sup == 0.0
    for kind, column in per_kind.items():
        passed = passed and all(b <= a for a, b in zip(column, column[1:]))
    measured = {"self_distance": self_distance,
                "response": {k: max(d / s for d, s in zip(col, sizes))
                             for k, col in per_kind.items()}}
    return (passed, {"table": (["kind", "size", "distance", "particle_sup"], rows)},
            measured, {})


@_experiment(n_steps=16, l1_tolerance=1e-3)
def run_steady_check(config, seed, tolerances):
    """Drift-free transport of a steady state (driver forced to zero).

    The driver is forced to zero, so ``config.hurst`` is not read; like every
    config it must still lie in ``(1/3, 1/2]``.

    Pass criterion: the area-averaged L¹ distance of every stored deposit to
    the analytic initial field stays below ``tolerances["l1_tolerance"]``
    (default 1e-3).
    """
    w0 = _initial_vorticity(config)
    times = np.linspace(0.0, config.horizon, int(tolerances["n_steps"]) + 1)
    rough = lift_piecewise_linear(np.array([0.0, config.horizon]),
                                  np.zeros((2, 1)), 2.5)
    driver = DriverPair((ConstantField((0.0, 0.0)),), rough, sign_convention=-1)
    run = solve_rough_euler(w0, driver, times,
                            particles_per_side=config.particles,
                            store_times="steps")
    rows = []
    reference = w0.values
    first = run.states[0].vorticity.values
    for state in run.states:
        rows.append({
            "time": state.time,
            "l1_drift_vs_initial_field": float(
                np.abs(state.vorticity.values - reference).mean()),
            "l1_drift_vs_first_deposit": float(
                np.abs(state.vorticity.values - first).mean()),
        })
    tolerance = float(tolerances["l1_tolerance"])
    worst = max(row["l1_drift_vs_initial_field"] for row in rows)
    tables = {"table": (["time", "l1_drift_vs_initial_field",
                         "l1_drift_vs_first_deposit"], rows)}
    measured = {"worst_drift": worst, "tolerance": tolerance,
                "conservation_drift": run.conservation_drift,
                "sup_excess": run.sup_excess}
    return worst <= tolerance, tables, measured, {}


@_experiment(slope_band=0.3, stability_band=0.2)
def run_remainder_scan(config, seed, tolerances):
    """Weak-remainder regularity scan over nested step grids.

    The driver is sampled at the coarsest mesh; finer meshes refine only the
    step grid, and every call shares one absolute localization threshold so
    the localized variation values are comparable.  Pass criterion: every
    log-log slope sits within ``3/p ± slope_band`` and consecutive variation
    values stay within ``±stability_band`` (defaults 0.3 and 0.2, the
    a-priori-estimate scaling at Brownian regularity).
    """
    meshes = _nested_meshes(config, "step")
    sigmas = _sigma_fields(config)
    w0 = _initial_vorticity(config)
    fbm = _FbmSample.draw(config, meshes[0], seed)
    driver = fbm.driver(sigmas)
    threshold = _default_localization(variation_control(driver.rough_path, fbm.times),
                                      fbm.times, fbm.p_exponent).threshold

    rows = []
    mesh_fields = {}
    for mesh in meshes:
        times = np.linspace(0.0, config.horizon, mesh + 1)
        run = solve_rough_euler(w0, driver, times,
                                particles_per_side=config.particles,
                                store_times="steps")
        report = weak_remainder(run, threshold=threshold)
        rows.append({"mesh": mesh,
                     "variation_norm": report.variation_norm,
                     "scaling_slope": report.scaling_slope,
                     "additivity_defect": report.additivity_defect,
                     "quadrature_error": report.quadrature_error})
        mesh_fields[mesh] = run.final.vorticity

    slope_target = 3.0 / fbm.p_exponent
    slope_band = float(tolerances["slope_band"])
    stability_band = float(tolerances["stability_band"])
    norms = [row["variation_norm"] for row in rows]
    ratios = [b / a for a, b in zip(norms, norms[1:])]
    passed = (all(np.isfinite(n) and n > 0 for n in norms)
              and all(abs(row["scaling_slope"] - slope_target) <= slope_band
                      for row in rows)
              and all(1 - stability_band <= r <= 1 + stability_band
                      for r in ratios)
              and all(row["additivity_defect"] <= 1e-10 for row in rows))
    measured = {"slope_target": slope_target, "threshold": threshold,
                "ratios": tuple(ratios)}
    tables = {"table": (["mesh", "variation_norm", "scaling_slope",
                         "additivity_defect", "quadrature_error"], rows)}
    return passed, tables, measured, mesh_fields


@_experiment(perturbation_sizes=(0.1, 0.05))
def run_flow_convergence(config, seed, tolerances):
    """Two-flow stability: measured sup-distance vs. the evaluated bound.

    Runs the base flow (steady Biot-Savart drift of ``w0`` plus the rough
    driver) once, against perturbed twins — identical (a determinism check
    of the solver), drift shifted by a constant δ, and initial data shifted
    by δ — and checks domination by the Osgood-type right side with the
    frozen library constant.
    """
    sigmas = _sigma_fields(config)
    w0 = _initial_vorticity(config)
    fbm = _FbmSample.draw(config, int(sorted(config.meshes)[-1]), seed)
    times = fbm.times
    driver = fbm.driver(sigmas)
    velocity = biot_savart(VorticityGrid(w0.values - w0.mean))
    drift = GridDrift(np.array([0.0]), [velocity])
    initial = ParticleFlow.lattice(config.particles, w0)
    sizes = tuple(float(s) for s in tolerances["perturbation_sizes"])

    pos1 = solve_flow(FlowProblem(drift, driver, initial, times),
                      store_times="steps").positions_array()

    def run_pair(drift2, initial2, u_diff):
        pos2 = solve_flow(FlowProblem(drift2, driver, initial2, times),
                          store_times="steps").positions_array()
        left = _particle_sup(pos1, pos2)
        # the bound is ``constant · (…)``, so scaling the unit-constant value
        # reproduces the library-constant one bit for bit
        raw = lagrangian_stability_bound(times, pos1, pos2, driver, driver,
                                         u_diff_sup=u_diff, constant=1.0)
        return left, LAGRANGIAN_STABILITY_CONSTANT * raw, raw

    rows = []
    ratios = []
    left0, right0, _ = run_pair(drift, initial, 0.0)
    rows.append({"case": "identical", "size": 0.0, "left": left0,
                 "right": right0})
    for size in sizes:
        bumped = velocity.copy()
        bumped[0] += size                 # constant shift: ‖u¹−u²‖_∞ = size
        shifted = GridDrift(np.array([0.0]), [bumped])
        left, right, raw = run_pair(shifted, initial, size)
        rows.append({"case": "drift_shift", "size": size, "left": left,
                     "right": right})
        ratios.append(left / raw if raw > 0 else 0.0)
    for size in sizes:
        moved = initial.with_positions(initial.positions + np.array([size, 0.0]),
                                       time=0.0)
        left, right, raw = run_pair(drift, moved, 0.0)
        rows.append({"case": "initial_shift", "size": size, "left": left,
                     "right": right})
        ratios.append(left / raw if raw > 0 else 0.0)

    passed = left0 == 0.0 and all(row["left"] <= row["right"] for row in rows)
    measured = {"constant_used": LAGRANGIAN_STABILITY_CONSTANT,
                "max_ratio_vs_unit_constant": max(ratios) if ratios else 0.0}
    return passed, {"table": (["case", "size", "left", "right"], rows)}, measured, {}


EXPERIMENTS = tuple(RUNNERS)


def run_experiment(config: ExperimentConfig, *, seed=None, out_dir=None
                   ) -> ExperimentResult:
    """Dispatch on ``config.experiment``."""
    return RUNNERS[config.experiment](config, seed=seed, out_dir=out_dir)
