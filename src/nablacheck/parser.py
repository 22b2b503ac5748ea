"""Concrete syntax: lexer, parser, and pretty-printer.

    % a definition file
    memb X (X::L).
    memb X (Y::L) := memb X L.
    #table inductive memb.
    #assert memb a (a::b::nil).

Tokens starting with an uppercase letter (or underscore) are clause or query
variables; lowercase tokens are constants or predicate names, except when
bound by forall/exists/nabla or a λ (written `x\\ body`).  Application is
juxtaposition; `::` is the list constructor; `=` builds an equation between
terms; `/\\`, `\\/`, `=>` are the connectives in decreasing binding strength
with `=>` associating right; quantifier bodies extend as far right as
possible.  `%` starts a comment.

Query variables (free uppercase names in a query or assertion) desugar into
a top-level existential prefix in first-occurrence order, which is how the
engine knows to report their witnesses.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .logic import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Nabla,
    Or,
    Top,
    formula_terms,
)
from .nodes import (
    App,
    Bound,
    ClauseVar,
    Const,
    EigenVar,
    Lam,
    NablaIndex,
    Term,
    Var,
    app,
)
from .terms import deref

KEYWORDS = {"forall", "exists", "nabla", "true"}

# Deepest nesting of terms and formulas (parentheses, λs, quantifiers, `=>`)
# the parser accepts.  Each level costs it at most five interpreter frames,
# so a refused input fails with a ParseError only under a recursion limit
# above 25,000 frames, such as the one a State sets (38,000 at the default
# max_depth).  Under the interpreter's default limit, parsing before any
# State exists raises RecursionError at 248 nested parentheses (a known
# defect, see ROADMAP).  Lists (`::`) do not nest.
MAX_NESTING = 5000

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<directive>\#[a-z_]+)
    | (?P<name>[a-z][A-Za-z0-9_']*)
    | (?P<uvar>[A-Z_][A-Za-z0-9_']*)
    | (?P<int>\d+)
    | (?P<string>"[^"\n]*")
    | (?P<punct>:=|::|=>|/\\|\\/|[()\\.=])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(text, filename=None):
    tokens = []
    pos = 0
    line = 1
    bol = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}",
                filename,
                line,
                pos - bol + 1,
            )
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            if kind == "name" and tok in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, tok, line, pos - bol + 1))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            bol = pos + tok.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - bol + 1))
    return tokens


# ---------------------------------------------------------------------------
# Directives and file items
# ---------------------------------------------------------------------------

class Directive:
    __slots__ = ("line",)


class LevelDirective(Directive):
    __slots__ = ("pred", "level")

    def __init__(self, pred, level, line):
        self.pred = pred
        self.level = level
        self.line = line


class TableDirective(Directive):
    __slots__ = ("pred", "mode")

    def __init__(self, mode, pred, line):
        self.mode = mode
        self.pred = pred
        self.line = line


class AssertDirective(Directive):
    __slots__ = ("formula", "positive")

    def __init__(self, formula, positive, line):
        self.formula = formula
        self.positive = positive
        self.line = line


class IncludeDirective(Directive):
    __slots__ = ("path",)

    def __init__(self, path, line):
        self.path = path
        self.line = line


class ClearTablesDirective(Directive):
    __slots__ = ()

    def __init__(self, line):
        self.line = line


class ShowTableDirective(Directive):
    __slots__ = ("pred",)

    def __init__(self, pred, line):
        self.pred = pred
        self.line = line


class ClauseItem:
    __slots__ = ("pred", "head_args", "body", "var_names", "line")

    def __init__(self, pred, head_args, body, var_names, line):
        self.pred = pred
        self.head_args = head_args
        self.body = body
        self.var_names = var_names
        self.line = line


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens, filename=None):
        self.toks = tokens
        self.pos = 0
        self.filename = filename
        self.bound: list[str] = []  # innermost binder last
        self.clause_vars: list[str] = []
        self.depth = 0  # open term() and formula() calls
        # Positions of '(' tokens where a parenthesized term failed to
        # parse; funit takes the formula route there at once.
        self.not_terms: set[int] = set()

    # Token plumbing -------------------------------------------------------

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, text=None):
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise self.error(f"expected {want!r}, found {t.text!r}")
        return self.next()

    def at(self, kind, text=None):
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def error(self, message):
        t = self.peek()
        return ParseError(message, self.filename, t.line, t.col)

    def descend(self):
        """Enter one nesting level; callers step back out on return.

        A ParseError leaves the count raised; funit, the one place that
        backtracks over a failed parse, restores it.
        """
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nested more than {MAX_NESTING} levels deep")

    # Terms ----------------------------------------------------------------

    def term(self) -> Term:
        self.descend()
        # A binder: name followed by a backslash.
        t = self.peek()
        if t.kind in ("name", "uvar") and self.toks[self.pos + 1].kind == "punct" \
                and self.toks[self.pos + 1].text == "\\":
            name = self.next().text
            self.next()  # backslash
            self.bound.append(name)
            try:
                body = self.term()
            finally:
                self.bound.pop()
            result = Lam(body, name)
        else:
            result = self.cons_term()
        self.depth -= 1
        return result

    def cons_term(self) -> Term:
        # `::` associates right; a loop, so list length costs no depth.
        items = [self.app_term()]
        while self.at("punct", "::"):
            self.next()
            items.append(self.app_term())
        t = items.pop()
        while items:
            t = App(Const("::"), (items.pop(), t))
        return t

    def app_term(self) -> Term:
        head = self.primary()
        args = []
        while True:
            t = self.peek()
            if t.kind in ("name", "uvar", "int") or (
                t.kind == "punct" and t.text == "("
            ):
                args.append(self.primary())
            else:
                break
        return app(head, args)

    def primary(self) -> Term:
        t = self.peek()
        if t.kind == "punct" and t.text == "(":
            start = self.pos
            self.next()
            try:
                inner = self.term()
                self.expect("punct", ")")
            except ParseError:
                self.not_terms.add(start)
                raise
            return inner
        if t.kind == "name":
            self.next()
            return self.resolve(t.text)
        if t.kind == "uvar":
            self.next()
            return self.resolve(t.text)
        if t.kind == "int":
            self.next()
            return Const(t.text)
        raise self.error(f"expected a term, found {t.text!r}")

    def resolve(self, name) -> Term:
        for i in range(len(self.bound) - 1, -1, -1):
            if self.bound[i] == name:
                return Bound(len(self.bound) - 1 - i)
        if name[0].isupper() or name[0] == "_":
            if name not in self.clause_vars:
                self.clause_vars.append(name)
            return ClauseVar(name)
        return Const(name)

    # Formulas ---------------------------------------------------------------

    def formula(self) -> Formula:
        self.descend()
        f = self.disjunction()
        if self.at("punct", "=>"):
            self.next()
            f = Imp(f, self.formula())
        self.depth -= 1
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.at("punct", "\\/"):
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.funit()
        while self.at("punct", "/\\"):
            self.next()
            f = And(f, self.funit())
        return f

    def funit(self) -> Formula:
        t = self.peek()
        if t.kind == "kw":
            if t.text == "true":
                self.next()
                return Top()
            return self.quantified()
        # Try the term route (atom or equation); fall back to a
        # parenthesized formula, since '(' is ambiguous between the two.
        # Where a parenthesized term already failed, the term route fails
        # again, so go straight to the formula: nested parenthesized
        # formulas would otherwise be reparsed as terms once per level.
        if self.pos not in self.not_terms:
            mark = (self.pos, self.depth)
            try:
                return self.atom_or_eq()
            except ParseError:
                if self.depth > MAX_NESTING:
                    raise
                self.pos, self.depth = mark
                if not self.at("punct", "("):
                    raise
        self.next()
        f = self.formula()
        self.expect("punct", ")")
        return f

    def quantified(self) -> Formula:
        kw = self.next().text
        ctor = {"forall": Forall, "exists": Exists, "nabla": Nabla}[kw]
        names = []
        while self.peek().kind in ("name", "uvar"):
            names.append(self.next().text)
        if not names:
            raise self.error(f"{kw} needs at least one variable name")
        self.expect("punct", ".")
        self.bound.extend(names)
        try:
            body = self.formula()
        finally:
            del self.bound[len(self.bound) - len(names):]
        for name in reversed(names):
            body = ctor(name, body)
        return body

    def atom_or_eq(self) -> Formula:
        lhs = self.cons_term()
        if self.at("punct", "="):
            self.next()
            rhs = self.cons_term()
            return Eq(lhs, rhs)
        name, args = _atom_parts(lhs)
        if name is None:
            raise self.error("expected a formula")
        return Atom(name, args)

    # Items ------------------------------------------------------------------

    def item(self):
        """One clause, directive, or query, consuming the closing dot."""
        t = self.peek()
        if t.kind == "directive":
            return self.directive()
        self.clause_vars = []
        line = t.line
        head = self.app_term()
        hname, hargs = _atom_parts(head)
        if hname is None:
            raise self.error("a clause head must be a predicate applied to terms")
        if self.at("punct", ":="):
            self.next()
            body = self.formula()
        else:
            body = Top()
        self.expect("punct", ".")
        return ClauseItem(hname, hargs, body, tuple(self.clause_vars), line)

    def directive(self):
        t = self.next()
        line = t.line
        name = t.text
        if name == "#level":
            pred = self.expect("name").text
            level = int(self.expect("int").text)
            self.expect("punct", ".")
            return LevelDirective(pred, level, line)
        if name == "#table":
            mode = self.expect("name").text
            pred = self.expect("name").text
            self.expect("punct", ".")
            return TableDirective(mode, pred, line)
        if name in ("#assert", "#assert_not"):
            self.clause_vars = []
            f = self.formula()
            self.expect("punct", ".")
            f = close_query_vars(f, self.clause_vars)
            return AssertDirective(f, name == "#assert", line)
        if name == "#include":
            path = self.expect("string").text[1:-1]
            self.expect("punct", ".")
            return IncludeDirective(path, line)
        if name == "#clear_tables":
            self.expect("punct", ".")
            return ClearTablesDirective(line)
        if name == "#show_table":
            pred = self.expect("name").text
            self.expect("punct", ".")
            return ShowTableDirective(pred, line)
        raise self.error(f"unknown directive {name}")


def _atom_parts(t):
    head = t
    args = ()
    if type(head) is App:
        head, args = head.head, head.args
    if type(head) is Const:
        return head.name, args
    return None, ()


def close_query_vars(f, names):
    """Wrap free query variables into a top-level existential prefix."""
    if not names:
        return f
    k = len(names)

    def walk_term(t, depth):
        tt = type(t)
        if tt is ClauseVar:
            i = names.index(t.name)
            return Bound(depth + (k - 1 - i))
        if tt is Lam:
            return Lam(walk_term(t.body, depth + 1), t.hint)
        if tt is App:
            return app(
                walk_term(t.head, depth),
                tuple(walk_term(a, depth) for a in t.args),
            )
        return t

    def walk(g, depth):
        tg = type(g)
        if tg is Atom:
            return Atom(g.pred, tuple(walk_term(a, depth) for a in g.args))
        if tg is Eq:
            return Eq(walk_term(g.lhs, depth), walk_term(g.rhs, depth))
        if tg is And or tg is Or or tg is Imp:
            return tg(walk(g.left, depth), walk(g.right, depth))
        if tg is Exists or tg is Forall or tg is Nabla:
            return tg(g.name, walk(g.body, depth + 1))
        return g

    out = walk(f, 0)
    for name in reversed(names):
        out = Exists(name, out)
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_term(text, filename=None) -> Term:
    """Parse one term.  Uppercase names become ClauseVar placeholders."""
    p = _Parser(tokenize(text, filename), filename)
    t = p.term()
    p.expect("eof")
    return t


def _formula_to_eof(p):
    """A formula, an optional closing dot, and nothing after it."""
    f = p.formula()
    if p.at("punct", "."):
        p.next()
    p.expect("eof")
    return f


def parse_formula(text, filename=None) -> Formula:
    """Parse one formula; uppercase names stay ClauseVar placeholders."""
    return _formula_to_eof(_Parser(tokenize(text, filename), filename))


def parse_query(text, filename=None) -> Formula:
    """Parse a query: free uppercase names become a top-level ∃ prefix."""
    p = _Parser(tokenize(text, filename), filename)
    return close_query_vars(_formula_to_eof(p), p.clause_vars)


def parse_file(text, filename=None):
    """Parse a definition file into a list of clause and directive items."""
    p = _Parser(tokenize(text, filename), filename)
    items = []
    while not p.at("eof"):
        items.append(p.item())
    return items


def parse_interaction(text, filename=None):
    """Parse one REPL input: either a directive or a query formula."""
    p = _Parser(tokenize(text, filename), filename)
    if p.at("directive"):
        d = p.directive()
        p.expect("eof")
        return d
    return close_query_vars(_formula_to_eof(p), p.clause_vars)


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

def _const_names(t, acc):
    tt = type(t)
    if tt is Const:
        acc.add(t.name)
    elif tt is Lam:
        _const_names(t.body, acc)
    elif tt is App:
        _const_names(t.head, acc)
        for a in t.args:
            _const_names(a, acc)
    elif isinstance(t, Var) and t.binding is not None:
        _const_names(t.binding, acc)


def _fresh_name(hint, avoid):
    name = hint or "x"
    if name not in avoid:
        return name
    i = 1
    while f"{name}{i}" in avoid:
        i += 1
    return f"{name}{i}"


def print_term(t, env=None, prec=0, avoid=None, keyed=False) -> str:
    """Render a term so that it reparses to the same structure.

    Precedence contexts: 0 open (λ may appear bare), 1 an infix operand
    (cons fine, λ parenthesized), 2 the left side of `::`, 3 an argument
    position (only atoms bare).  env carries enclosing binder names,
    innermost last.  Unbound variables print as name_id so distinct
    variables never collide on the page.  With keyed set they print as
    name@E<id> (eigenvariables) or name@L<id> (logic variables) instead, a
    form no constant can spell; table keys use it, so a variable and a
    constant such as x_0 never share a key.
    """
    if env is None:
        env = []
    if avoid is None:
        avoid = set()
        _const_names(t, avoid)
    t = deref(t)
    tt = type(t)
    if tt is Const:
        return t.name
    if tt is Bound:
        i = t.index
        if i < len(env):
            return env[len(env) - 1 - i]
        return f"_b{i - len(env)}"
    if tt is NablaIndex:
        return f"#{t.index}"
    if tt is ClauseVar:
        return t.name
    if isinstance(t, Var):
        if keyed:
            kind = "E" if isinstance(t, EigenVar) else "L"
            return f"{t.name}@{kind}{t.id}"
        return f"{t.name}_{t.id}"
    if tt is Lam:
        name = _fresh_name(t.hint, avoid | set(env))
        body = print_term(t.body, env + [name], 0, avoid, keyed)
        s = f"{name}\\ {body}"
        return f"({s})" if prec >= 1 else s
    # application
    if type(t.head) is Const and t.head.name == "::" and len(t.args) == 2:
        left = print_term(t.args[0], env, 2, avoid, keyed)
        right = print_term(t.args[1], env, 1, avoid, keyed)
        s = f"{left}::{right}"
        return f"({s})" if prec >= 2 else s
    head = print_term(t.head, env, 3, avoid, keyed)
    parts = [head] + [print_term(a, env, 3, avoid, keyed) for a in t.args]
    s = " ".join(parts)
    return f"({s})" if prec >= 3 else s


def print_formula(f, env=None, prec=0, avoid=None) -> str:
    """Render a formula with minimal parentheses.

    Precedence: => (1, right-assoc) < \\/ (2) < /\\ (3) < atoms.
    Quantifiers extend maximally right, so they parenthesize like prec 1.
    """
    if env is None:
        env = []
    if avoid is None:
        avoid = set()
        for t in formula_terms(f):
            _const_names(t, avoid)
    tf = type(f)
    if tf is Top:
        return "true"
    if tf is Atom:
        if not f.args:
            return f.pred
        parts = [f.pred] + [print_term(a, env, 3, avoid) for a in f.args]
        return " ".join(parts)
    if tf is Eq:
        return (
            print_term(f.lhs, env, 1, avoid)
            + " = "
            + print_term(f.rhs, env, 1, avoid)
        )
    if tf is Imp:
        s = (
            print_formula(f.left, env, 2, avoid)
            + " => "
            + print_formula(f.right, env, 1, avoid)
        )
        return f"({s})" if prec > 1 else s
    if tf is Or:
        s = (
            print_formula(f.left, env, 2, avoid)
            + " \\/ "
            + print_formula(f.right, env, 3, avoid)
        )
        return f"({s})" if prec > 2 else s
    if tf is And:
        s = (
            print_formula(f.left, env, 3, avoid)
            + " /\\ "
            + print_formula(f.right, env, 4, avoid)
        )
        return f"({s})" if prec > 3 else s
    # quantifier
    kw = {Exists: "exists", Forall: "forall", Nabla: "nabla"}[tf]
    name = _fresh_name(f.name, avoid | set(env))
    body = print_formula(f.body, env + [name], 1, avoid)
    s = f"{kw} {name}. {body}"
    return f"({s})" if prec > 1 else s


def print_substitution(pairs) -> str:
    """Render an answer substitution: `X = t, Y = s`, or `yes` when empty."""
    if not pairs:
        return "yes"
    return ", ".join(f"{name} = {print_term(t)}" for name, t in pairs)
