"""Registered mutants of ``src/roughflow``: plain-text substitutions that each
break one layer a claim rests on, with the tier-1 test expected to fail first.

``tests/run_mutants.py`` applies each mutant to a temporary copy of ``src/``
and runs tier-1 against it with ``-x``.  The rule: every registered mutant is
killed by tier-1.  ``tests/test_structure.py::test_every_mutant_applies_once``
checks that each ``old`` string occurs exactly once in its file, so the
registry cannot rot silently when code moves.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str      # path under src/roughflow
    old: str       # occurs exactly once in ``file``
    new: str
    layer: str     # what the substitution breaks
    killer: str    # node id of the tier-1 test expected to fail first


_SECOND_LEVEL = "step = step + _second_level(sigmas, S, x, A)"
_CLOSED_FORM = ("tests/test_flow.py::TestAnalyticCases::"
                "test_step_matches_the_second_level_closed_form[0]")

MUTANTS = (
    Mutant("second_level_dropped", "flow.py", _SECOND_LEVEL, "step = step",
           "Davie step without its second-level term", _CLOSED_FORM),
    Mutant("second_level_transposed", "flow.py", _SECOND_LEVEL,
           "step = step + _second_level(sigmas, S, x, A.T)",
           "Davie step with 𝕫ᵀ, the Lévy area's sign flipped", _CLOSED_FORM),
    Mutant("second_level_symmetrized", "flow.py", _SECOND_LEVEL,
           "step = step + _second_level(sigmas, S, x, 0.5 * (A + A.T))",
           "Davie step with Sym 𝕫, the Lévy area dropped", _CLOSED_FORM),
    Mutant("ledger_without_area_term", "euler.py",
           'driver_terms = np.einsum("ijab,iabf->ijf", AA, PSS)',
           "driver_terms = np.zeros((n, n, F))",
           "weak ledger without its 𝕫·σσ∇∇ψ (AA·PSS) term",
           "tests/test_euler.py::TestWeakRemainder::"
           "test_matches_closed_form_on_exact_trajectory"),
    Mutant("biot_savart_sign_flipped", "fields.py", "psi_hat = -what * inv",
           "psi_hat = what * inv", "Biot-Savart velocity with its sign flipped",
           "tests/test_fields.py::TestBiotSavart::test_single_mode_closed_form"),
)
