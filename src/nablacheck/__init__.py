"""nablacheck: proof search for a two-level definitional logic.

The logic has definitions read as fixed points, λ-tree term syntax, a
fresh-name quantifier ∇ alongside ∀ and ∃, and two cooperating provers: a
Level-0 prover that enumerates answer substitutions and a Level-1 prover
whose implication rule checks every Level-0 answer.  Tabling caches closed
subgoals, turns inductive loops into failure and coinductive loops into
success, and exports the finished table as a certificate.
"""

from .engine import Answer, Result, State, prove0, prove1, solve, solve_iter
from .logic import DefSet, classify
from .parser import (
    parse_file,
    parse_formula,
    parse_query,
    parse_term,
    print_formula,
    print_term,
)
from .terms import BACKEND, Signature, equal_modulo, normalize

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "DefSet",
    "Answer",
    "Result",
    "Signature",
    "State",
    "__version__",
    "classify",
    "equal_modulo",
    "normalize",
    "parse_file",
    "parse_formula",
    "parse_query",
    "parse_term",
    "print_formula",
    "print_term",
    "prove0",
    "prove1",
    "solve",
    "solve_iter",
]
