"""roughflow: rough-path driven transport on the 2-d torus.

Layers, bottom up:

* :mod:`roughflow.variation` — superadditive controls, (localized)
  p-variation, the rough Gronwall bound;
* :mod:`roughflow.roughpath` — level-2 rough paths (lifts, Chen bookkeeping,
  fBm sampling, reversal, CSV round trips) and driver bundles;
* :mod:`roughflow.fields` — periodic vorticity grids, Biot-Savart,
  interpolation/deposition, divergence-free field catalog;
* :mod:`roughflow.flow` — Davie-scheme particle flows (forward/inverse/
  vorticity-coupled);
* :mod:`roughflow.euler` — the rough 2-d Euler particle solver, viscous
  reference solver, weak-remainder diagnostics;
* :mod:`roughflow.harness` — reproducible experiment drivers behind the
  ``roughflow`` CLI.
"""

__version__ = "0.1.0"

from .errors import (
    ControlError,
    GridError,
    HypothesisError,
    InfeasibleLocalizationError,
    QuadratureError,
    RoughFlowError,
    StepSizeError,
    UndersamplingError,
)
from .variation import (
    Control,
    Localization,
    localized_p_variation,
    p_variation,
    rough_gronwall_bound,
)
from .roughpath import (
    DriverPair,
    RoughPath,
    difference_variation_control,
    lift_piecewise_linear,
    load_rough_path_csv,
    reverse_rough_path,
    sample_fbm,
    save_rough_path_csv,
    variation_control,
)
from .fields import (
    ConstantField,
    GradPerpField,
    ShearField,
    SumField,
    VectorField,
    VorticityGrid,
    biot_savart,
    deposit,
    field_from_spec,
    gamma,
    interpolate,
    interpolate_velocity,
    kernel_log_lipschitz_check,
    load_field_binary,
    load_field_csv,
    save_field_binary,
    save_field_csv,
    vorticity_from_modes,
)
from .flow import (
    CallableDrift,
    FlowProblem,
    FlowTrajectory,
    GridDrift,
    InverseFlowResult,
    LAGRANGIAN_STABILITY_CONSTANT,
    ParticleFlow,
    SteadyDrift,
    ZeroDrift,
    as_drift,
    davie_step,
    lagrangian_stability_bound,
    load_particles_binary,
    load_particles_csv,
    save_particles_binary,
    save_particles_csv,
    solve_flow,
    solve_inverse_flow,
    solve_nonlocal_flow,
)
from .euler import (
    EulerState,
    EulerTrajectory,
    FourierTestFunctions,
    RunArchive,
    ViscousTrajectory,
    WeakRemainder,
    load_run,
    save_run,
    solve_rough_euler,
    solve_viscous_reference,
    weak_remainder,
)
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    run_flow_convergence,
    run_remainder_scan,
    run_stability,
    run_steady_check,
    run_wong_zakai,
)

__all__ = [
    "__version__",
    "RoughFlowError", "GridError", "ControlError", "InfeasibleLocalizationError",
    "HypothesisError", "StepSizeError", "UndersamplingError", "QuadratureError",
    "Control", "Localization", "p_variation", "localized_p_variation",
    "rough_gronwall_bound",
    "RoughPath", "DriverPair", "lift_piecewise_linear", "reverse_rough_path",
    "sample_fbm", "variation_control", "difference_variation_control",
    "save_rough_path_csv", "load_rough_path_csv",
    "VectorField", "ConstantField", "ShearField", "GradPerpField", "SumField",
    "field_from_spec", "VorticityGrid", "biot_savart", "deposit",
    "gamma", "interpolate", "interpolate_velocity", "kernel_log_lipschitz_check",
    "vorticity_from_modes", "save_field_csv", "load_field_csv",
    "save_field_binary", "load_field_binary",
    "ZeroDrift", "SteadyDrift", "CallableDrift", "GridDrift", "as_drift",
    "ParticleFlow", "FlowProblem", "FlowTrajectory", "davie_step", "solve_flow",
    "InverseFlowResult", "solve_inverse_flow", "solve_nonlocal_flow",
    "lagrangian_stability_bound", "LAGRANGIAN_STABILITY_CONSTANT",
    "save_particles_csv", "load_particles_csv",
    "save_particles_binary", "load_particles_binary",
    "EulerState", "EulerTrajectory", "solve_rough_euler",
    "ViscousTrajectory", "solve_viscous_reference",
    "FourierTestFunctions", "WeakRemainder", "weak_remainder",
    "RunArchive", "save_run", "load_run",
    "EXPERIMENTS", "ExperimentConfig", "ExperimentResult", "run_experiment",
    "run_wong_zakai", "run_stability", "run_steady_check",
    "run_remainder_scan", "run_flow_convergence",
]
