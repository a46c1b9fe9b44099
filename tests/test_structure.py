"""Source structure: shared helpers (torus, JSON, partition DP, admissibility)
are defined exactly once, and the option surface of the solver entry points
is pinned."""

import ast
import inspect
import pathlib

import pytest

import roughflow
from roughflow import euler, flow, roughpath, sewing, variation

SOURCE = pathlib.Path(roughflow.__file__).resolve().parent


def definitions(name):
    """Modules of ``src/roughflow`` that define ``name`` (def or assignment)."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            found += [path.name for t in targets if t == name]
    return found


@pytest.mark.parametrize("name", ["TWO_PI", "_nearest_image", "_jsonable",
                                  "_partition_dp", "_admissible_mask",
                                  "_torus_distances", "_log_lipschitz_ratio",
                                  "_fit_slope", "_time_tol", "_read_table",
                                  "_read_header"])
def test_helper_is_defined_once(name):
    assert len(definitions(name)) == 1, definitions(name)


def test_flow_draws_random_numbers_in_one_place():
    # every drift-contract estimate and check samples through _sample_norms
    tree = ast.parse((SOURCE / "flow.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "default_rng"]
    assert len(calls) == 1


# Every parameter of these entry points is set by some caller; an option
# that nothing sets is a constant instead.  Adding one is a deliberate edit.
PINNED_PARAMETERS = {
    euler.solve_rough_euler: ("w0", "driver", "step_times", "particles_per_side",
                              "interpolation", "mollify_eta", "store_times"),
    flow.solve_nonlocal_flow: ("w0", "driver", "step_times", "particles_per_side",
                               "interpolation", "mollify_eta", "store_times",
                               "drift_callback"),
    euler.solve_viscous_reference: ("w0", "sigmas", "path", "nu", "dt",
                                    "store_times", "max_principle_tol"),
    euler.weak_remainder: ("trajectory", "threshold", "quadrature_tol",
                           "interpolation"),
    euler.solution_variation_diagnostic: ("trajectory", "remainder"),
    euler.save_run: ("trajectory", "root", "name", "binary", "config"),
    flow.CallableDrift: ("fn", "sup_norm", "log_lipschitz", "time_span"),
    flow.GridDrift: ("times", "snapshots", "interpolation", "mollify_eta"),
    flow.GridDrift.measure_log_lipschitz: ("self",),
    flow.FlowProblem.check: ("self",),
    flow.solve_flow: ("problem", "store_times", "diagnostic_particles", "check"),
    flow.solve_inverse_flow: ("problem", "t"),
    flow.load_particles_csv: ("path",),
    flow.load_particles_binary: ("path",),
    roughpath.RoughPath.chen_defect_scan: ("self", "n_triples"),
    roughpath.DriverPair: ("sigma_fields", "rough_path", "sign_convention"),
    sewing.sew: ("times", "germ", "zeta", "control", "localization",
                 "coherence_cap"),
    variation.rough_gronwall_bound: ("G0", "omega1", "omega2", "omega3", "L", "C",
                                     "k", "k_prime", "C_prime"),
    variation.Control.check: ("self",),
    variation.Control.superadditivity_defect: ("self",),
}


@pytest.mark.parametrize("entry", list(PINNED_PARAMETERS),
                         ids=lambda entry: entry.__qualname__)
def test_entry_point_parameters_are_pinned(entry):
    assert tuple(inspect.signature(entry).parameters) == PINNED_PARAMETERS[entry]
