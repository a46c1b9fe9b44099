"""Source structure: shared helpers (torus, JSON, partition DP, admissibility)
are defined exactly once."""

import ast
import pathlib

import pytest

import roughflow

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
                                  "_fit_slope"])
def test_helper_is_defined_once(name):
    assert len(definitions(name)) == 1, definitions(name)
