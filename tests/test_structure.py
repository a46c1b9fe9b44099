"""Source structure: shared helpers (torus, JSON, partition DP, admissibility)
are defined exactly once, the partition DP is the only DP loop, the option
surface of the solver entry points is pinned and every option on it is set
by a caller, every public name is reached by a claim or kept for a stated
reason, every layer the traced benchmark wraps exists, and every registered
mutant still applies to the source."""

import ast
import importlib
import inspect
import pathlib

import pytest

import roughflow
from roughflow import euler, flow, roughpath, variation

from mutants import MUTANTS

SOURCE = pathlib.Path(roughflow.__file__).resolve().parent
CHECKOUT = pathlib.Path(__file__).resolve().parents[1]
BENCH = CHECKOUT / "bench"


def defined_names(node):
    """Names that ``node`` defines: a def's or class's, or an assignment's."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in nodes if isinstance(t, ast.Name)]
    return []


def definitions(name):
    """Modules of ``src/roughflow`` that define ``name`` (def or assignment)."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            found += [path.name for t in defined_names(node) if t == name]
    return found


@pytest.mark.parametrize("name", ["TWO_PI", "_mod_two_pi", "_nearest_image", "_jsonable",
                                  "_partition_dp", "_admissible_mask",
                                  "_torus_distances", "_log_lipschitz_ratio",
                                  "_fit_slope", "_time_tol", "_read_table",
                                  "_read_header"])
def test_helper_is_defined_once(name):
    assert len(definitions(name)) == 1, definitions(name)


def outside_function(tree, name):
    """The nodes of ``tree`` that do not lie inside the function ``name``."""
    inside = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name == name for n in ast.walk(f)}
    return [n for n in ast.walk(tree) if id(n) not in inside]


def test_torus_reduction_goes_through_mod_two_pi():
    # np.mod pays a division per entry; _mod_two_pi is bitwise the same and
    # skips it on the ranges particle positions live in.  Padded grids are
    # built in place (fields._padded_upsample), never by np.pad.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in outside_function(tree, "_mod_two_pi"):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(node.op, ast.Mod) \
                    and "TWO_PI" in referenced_names(node.right if isinstance(
                        node, ast.BinOp) else node.value):
                found.append(f"{path.name}:{node.lineno} % TWO_PI")
            if isinstance(node, ast.Attribute) and node.attr in ("mod", "remainder",
                                                                 "fmod", "pad") \
                    and isinstance(node.value, ast.Name) and node.value.id == "np":
                found.append(f"{path.name}:{node.lineno} np.{node.attr}")
    assert found == []


def test_upsample_is_replaced_not_forked():
    # _padded_upsample's pruned inverse (1-d ifft, then 1-d irfft written in
    # place) is the library's one spectral upsample.  No module calls
    # irfft2 or irfftn, whose out= numpy 2.4.6 fills with wrong values.
    assert definitions("_padded_upsample") == ["fields.py"]
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                    for a in n.names}
        found += [f"{path.name} {name}" for name in ("irfft2", "irfftn")
                  if name in referenced_names(tree) | imported]
    assert found == []


def test_ledger_contraction_makes_no_blas_call():
    # A threaded OpenBLAS product leaves its second thread spinning between
    # snapshots: the weak ledger then burned about 60% more CPU time than
    # wall time.  The contractions are two-operand einsums instead.
    tree = ast.parse((SOURCE / "euler.py").read_text())
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
              and n.name == "_particle_pairings")
    matmul = [n.lineno for n in ast.walk(fn)
              if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)]
    assert matmul == []
    assert referenced_names(fn) & {"dot", "matmul", "tensordot", "vdot", "inner"} == set()


def test_partition_dp_is_the_only_dp_loop():
    # Candidate pruning (turning nodes, admissible rows) feeds the one DP and
    # must not grow a second one.  A DP step is an argmax, or a max along an
    # axis: every one in variation.py lies in _partition_dp, which each
    # partition supremum calls.
    tree = ast.parse((SOURCE / "variation.py").read_text())
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    for name in ("p_variation", "localized_p_variation", "_all_windows_dp"):
        assert "_partition_dp" in referenced_names(functions[name]), name

    def along_axis(call):
        # np.max(a, axis) or a.max(axis), positionally or by keyword
        positional = 2 if getattr(call.func.value, "id", None) == "np" else 1
        return len(call.args) >= positional or any(k.arg == "axis" for k in call.keywords)

    def dp_steps(nodes):
        return [f"variation.py:{n.lineno} {n.func.attr}" for n in nodes
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and (n.func.attr in ("argmax", "nanargmax")
                     or n.func.attr in ("max", "amax", "nanmax") and along_axis(n))]

    assert len(dp_steps(ast.walk(functions["_partition_dp"]))) >= 2
    assert dp_steps(outside_function(tree, "_partition_dp")) == []


def test_flow_draws_random_numbers_in_one_place():
    # every drift-contract estimate and check samples through _sample_norms
    tree = ast.parse((SOURCE / "flow.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "default_rng"]
    assert len(calls) == 1


# The parameters of these entry points; adding one is a deliberate edit.
# Each option (a parameter with a default) must be set by some call outside
# the tests (test_every_option_is_set_by_a_caller): an option that only tests
# set is a constant instead.
PINNED_PARAMETERS = {
    euler.solve_rough_euler: ("w0", "driver", "step_times", "particles_per_side",
                              "store_times"),
    flow.solve_nonlocal_flow: ("w0", "driver", "step_times", "particles_per_side",
                               "store_times"),
    euler.solve_viscous_reference: ("w0", "sigmas", "path", "nu", "dt",
                                    "store_times", "max_principle_tol"),
    euler.weak_remainder: ("trajectory", "threshold"),
    euler.solution_variation_diagnostic: ("trajectory", "remainder"),
    euler.save_run: ("trajectory", "root", "name", "binary", "config"),
    flow.CallableDrift: ("fn", "sup_norm", "log_lipschitz", "time_span"),
    flow.FlowProblem: ("drift", "driver", "initial", "step_times"),
    flow.GridDrift: ("times", "snapshots"),
    flow.GridDrift.measure_log_lipschitz: ("self",),
    flow.FlowProblem.check: ("self",),
    flow.solve_flow: ("problem", "store_times", "diagnostic_particles", "check"),
    flow.solve_inverse_flow: ("problem", "t"),
    flow.load_particles_csv: ("path",),
    flow.load_particles_binary: ("path",),
    roughpath.RoughPath.chen_defect_scan: ("self", "n_triples"),
    roughpath.DriverPair: ("sigma_fields", "rough_path", "sign_convention"),
    variation.rough_gronwall_bound: ("G0", "omega1", "omega2", "omega3", "L", "C",
                                     "k", "k_prime", "C_prime"),
    variation.Control.check: ("self",),
    variation.Control.superadditivity_defect: ("self",),
}


@pytest.mark.parametrize("entry", list(PINNED_PARAMETERS),
                         ids=lambda entry: entry.__qualname__)
def test_entry_point_parameters_are_pinned(entry):
    assert tuple(inspect.signature(entry).parameters) == PINNED_PARAMETERS[entry]


# Options of pinned entry points that no call outside the tests sets, each
# with the reason it stays.
KEPT_OPTIONS = {
    (flow.solve_flow, "diagnostic_particles"):
        "the flow's measured a-priori variation estimate (FlowDiagnostics)",
    (roughpath.RoughPath.chen_defect_scan, "n_triples"):
        "sample size of the Chen check load_rough_path_csv runs; tests scan more",
}


def calls(paths):
    """``(callee, call, enclosing)`` for every call in ``paths``: the name it
    calls (``f`` of ``f(...)`` or ``x.f(...)``) and the names of the
    definitions it lies inside."""
    found = []

    def visit(node, enclosing):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            found.append((callee, node, enclosing))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), frozenset())
    return found


def unset_options():
    """``(entry, option)`` for each option of a pinned entry point that no
    call in ``src/roughflow`` (outside the entry's own definition), in the
    harness, the CLI or ``bench/*.py`` passes, by keyword or by position.
    Entry points in ``KEPT`` are exempt."""
    sites = calls([*sorted(SOURCE.glob("*.py")), *sorted(BENCH.glob("*.py"))])
    unset = set()
    for entry in PINNED_PARAMETERS:
        if entry.__name__ in KEPT:
            continue
        params = inspect.signature(entry).parameters
        # a method is called on an instance, which fills ``self``
        positional = [n for n, p in params.items() if n != "self" and p.kind in (
            p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]

        def passes(call, name):
            return (any(k.arg == name for k in call.keywords)
                    or name in positional and positional.index(name) < len(call.args))

        for name, param in params.items():
            if param.default is not param.empty and not any(
                    callee == entry.__name__ and entry.__name__ not in enclosing
                    and passes(call, name) for callee, call, enclosing in sites):
                unset.add((entry, name))
    return unset


def test_every_option_is_set_by_a_caller():
    unset = unset_options()
    assert sorted(f"{e.__qualname__}.{n}" for e, n in unset - set(KEPT_OPTIONS)) == []
    # a KEPT_OPTIONS entry is needed: some caller sets every other option
    assert sorted(f"{e.__qualname__}.{n}" for e, n in set(KEPT_OPTIONS) - unset) == []


def test_traced_layers_exist():
    # bench/tracing.py wraps each (module, qualified name) of its LAYERS; a
    # layer that is renamed or removed breaks only the traced benchmark run.
    # Methods are looked up in the class's own namespace, as the tracer does.
    tree = ast.parse((BENCH / "tracing.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    missing = []
    for _, module, qualname in layers:
        owner, _, name = qualname.rpartition(".")
        scope = vars(importlib.import_module(module))
        if owner:
            scope = vars(scope[owner]) if owner in scope else {}
        if not callable(scope.get(name)):
            missing.append(f"{module}:{qualname}")
    assert missing == []


# Public names that no experiment, CLI command or bench workload reaches, each
# with the reason it stays.  Everything else in ``roughflow.__all__`` must be
# reached, so unused code cannot grow back unnoticed.
KEPT = {
    "rough_gronwall_bound": "north star: the rough Gronwall bound",
    "solution_variation_diagnostic": "north star: weak-formulation diagnostics",
    "solve_inverse_flow": "readout: w_t = w0 ∘ φ_t⁻¹ on the grid",
    "solve_viscous_reference": "readout: the Eulerian cross-solver",
    "save_rough_path_csv": "file format", "load_rough_path_csv": "file format",
    "save_field_binary": "file format", "load_field_binary": "file format",
    "save_particles_csv": "file format", "load_particles_csv": "file format",
    "save_particles_binary": "file format", "load_particles_binary": "file format",
    "save_run": "file format", "load_run": "file format",
    "interpolate": "readout: w0 evaluated at the inverse-flow points φ_t⁻¹(x)",
    "interpolate_velocity": "readout: a stored velocity at any points, bitwise "
                            "what the march's frozen GridDrift evaluated",
    "kernel_log_lipschitz_check": "open: reached by tests only",
}


def referenced_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def reached_names(roots):
    """Closure of ``roots`` under the name references of the top-level
    definitions of ``src/roughflow`` (a class's methods belong to the class)."""
    refs = {}
    for path in SOURCE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            for name in defined_names(node):
                refs.setdefault(name, set()).update(referenced_names(node))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += refs.get(name, ())
    return reached


def test_every_public_name_is_reached():
    from roughflow import harness

    roots = set(KEPT) | {f"run_{name}" for name in harness.EXPERIMENTS}
    for path in [SOURCE / "harness.py", SOURCE / "cli.py", *BENCH.glob("*.py")]:
        roots |= referenced_names(ast.parse(path.read_text(), str(path)))
    reached = reached_names(roots)
    assert [n for n in roughflow.__all__ if n not in reached] == []
    # a KEPT entry is needed: without it the name would not be reached
    unneeded = reached_names(roots - set(KEPT))
    assert [n for n in KEPT if n in unneeded or n not in roughflow.__all__] == []


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_every_mutant_applies_once(mutant):
    # read from the checkout, not from the imported package: the mutation
    # runner imports a mutated copy, whose file no longer holds ``old``
    text = (CHECKOUT / "src" / "roughflow" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
