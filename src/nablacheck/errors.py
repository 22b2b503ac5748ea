"""Exception types shared across the package.

Everything user-facing derives from NablaCheckError so the CLI can map the
whole family onto the "inconclusive" exit path without enumerating causes.
"""

from __future__ import annotations


class NablaCheckError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(NablaCheckError):
    def __init__(self, message, filename=None, line=None, column=None):
        self.filename = filename
        self.line = line
        self.column = column
        where = ""
        if filename is not None:
            where = f"{filename}:"
        if line is not None:
            where += f"{line}:"
            if column is not None:
                where += f"{column}:"
        super().__init__(f"{where} {message}" if where else message)


def _show_term(t, limit=160):
    """Render a term for an error message; must never raise."""
    try:
        from .parser import CONS, print_term

        s = print_term(t, prec=CONS)
    except Exception:
        s = repr(t)
    if len(s) > limit:
        s = s[: limit - 4] + " ..."
    return s


class NormalizationDepthExceeded(NablaCheckError):
    """A term did not reach a normal form within the reduction budget.

    The term the failing normalization started from is attached on the way
    out so the message can show what diverged.
    """

    def __init__(self, budget, term=None):
        self.budget = budget
        self.term = term
        super().__init__(budget)

    def __str__(self):
        msg = (
            f"no normal form within {self.budget} reduction steps "
            "(the term may have no normal form)"
        )
        if self.term is not None:
            msg += f": {_show_term(self.term)}"
        return msg


class NonPatternError(NablaCheckError):
    """A unification subproblem fell outside the pattern fragment.

    Carries the offending subproblem, shown pretty-printed in the message.
    This is an error surfaced to the user, never a silent failure.
    """

    def __init__(self, lhs, rhs, reason=""):
        self.lhs = lhs
        self.rhs = rhs
        self.reason = reason
        super().__init__(reason)

    def __str__(self):
        msg = self.reason or "unification subproblem outside the pattern fragment"
        if self.lhs is not None and self.rhs is not None:
            msg += f": {_show_term(self.lhs)} = {_show_term(self.rhs)}"
        return msg


class BudgetExceeded(NablaCheckError):
    """A proof-search resource limit ran out.

    There are two limits: the per-query step budget and the bound on
    choice points open at once (engine.MAX_CHOICE_POINTS).  budget is the
    step budget in force; the message names the limit.
    """

    def __init__(self, budget, detail=None):
        self.budget = budget
        super().__init__(
            detail
            or f"proof search exceeded the step budget ({budget} steps)"
        )


class NonGroundAntecedent(NablaCheckError):
    """An implication's antecedent contained an unbound logic variable.

    Enumerating such an antecedent would conflate the existential and
    universal readings of the variable, so it is rejected.
    """

    def __init__(self, formula=None):
        self.formula = formula
        super().__init__("unbound logic variable on the left of an implication")


class OuterVariableEscape(NablaCheckError):
    """Proving an implication's consequent bound a variable from outside.

    Accepting the proof would weaken "one witness for every antecedent
    answer" to "some witness per answer", so it is rejected instead.
    """

    def __init__(self, detail=None):
        super().__init__(
            detail
            or "proving the consequent of an implication bound a variable "
            "quantified outside the implication"
        )


class LevelError(NablaCheckError):
    """A definition clause body exceeds the level its head allows."""


class IllFormedFormula(NablaCheckError):
    """A formula violates the two-level grammar (e.g. a level-1 antecedent)."""
