"""nablacheck: proof search for a two-level definitional logic.

The logic has definitions read as fixed points, λ-tree term syntax, a
fresh-name quantifier ∇ alongside ∀ and ∃, and one prover that runs in
three modes: Level 0 enumerates answer substitutions, Level 0 on the left
of an implication does case analysis over them, and Level 1, whose
implication rule checks every case, adds ∀ and =>.  Tabling caches closed
subgoals, turns inductive loops into failure and coinductive loops into
success, and exports the finished table as a certificate.
"""

from .engine import Answer, Result, State, prove, solve, solve_iter
from .logic import DefSet
from .parser import (
    parse_file,
    parse_formula,
    parse_query,
    parse_term,
    print_formula,
    print_term,
)
from .terms import BACKEND, equal_modulo, normalize

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "DefSet",
    "Answer",
    "Result",
    "State",
    "__version__",
    "equal_modulo",
    "normalize",
    "parse_file",
    "parse_formula",
    "parse_query",
    "parse_term",
    "print_formula",
    "print_term",
    "prove",
    "solve",
    "solve_iter",
]
