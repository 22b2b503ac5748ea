"""Concrete syntax: lexer, parser, and pretty-printer.

    % a definition file
    memb X (X::L).
    memb X (Y::L) := memb X L.
    #table inductive memb.
    #assert memb a (a::b::nil).

Tokens starting with an uppercase letter (or underscore) are clause or query
variables; lowercase tokens are constants or predicate names, except when
bound by forall/exists/nabla or a λ (written `x\\ body`).  `%` starts a
comment.

Clauses, formulas and terms are one expression language, with one operator
table (loosest first):

    level  operator            assoc   operand levels
    0      head := body        none    7, 2          a clause
    1      x\\ body             prefix  1             λ
    2      forall x y. body    prefix  2             also exists, nabla
    2      =>                  right   3, 2
    3      \\/                  left    3, 4
    4      /\\                  left    4, 5
    5      =                   none    6, 6
    6      ::                  right   7, 6
    7      f a b               left    8, 8          application
    8      names, numbers, true, ( )

A node of level L stands bare where its context asks for level L or less
and in parentheses elsewhere.  A prefix body extends as far right as it
can; a λ may open only a level-1 context (a whole term, the inside of
parentheses, a λ body), a quantifier any context up to level 5.  The
parser builds a raw tree by this table; the reader turns it into a Formula
or a Term, refusing a node where its sort cannot stand (a λ as a formula,
`/\\` inside a term); the printer parenthesizes by the same table.

Query variables (free uppercase names in a query or assertion) desugar into
a top-level existential prefix in first-occurrence order, which is how the
engine knows to report their witnesses.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .logic import (
    And, Atom, Eq, Exists, Forall, Formula, Imp, Nabla, Or, Top, formula_terms,
)
from .nodes import (
    App, Bound, ClauseVar, Const, EigenVar, Lam, NablaIndex, Term, Var, app,
)
from .terms import deref

KEYWORDS = {"forall", "exists", "nabla", "true"}

# Deepest nesting the parser accepts, counted on its own stack: each open
# parenthesis, λ, quantifier and right operand of `=>` is a level, and so
# is a clause body; list length and chains of `/\` or `\/` are not.  The
# engine still recurses once per level, so the bound stays.
MAX_NESTING = 5000

# The levels of the operator table, loosest first.
CLAUSE, OPEN, IMP, OR, AND, EQ, CONS, APP, ATOM = range(9)

# Infix operator -> (level, left operand level, right operand level).
# Application is juxtaposition; " " names it in raw trees.
_INFIX = {
    ":=": (CLAUSE, APP, IMP),
    "=>": (IMP, OR, IMP),
    "\\/": (OR, OR, AND),
    "/\\": (AND, AND, EQ),
    "=": (EQ, CONS, CONS),
    "::": (CONS, APP, CONS),
    " ": (APP, ATOM, ATOM),
}
# Prefix binder -> (level, which is its body's, highest level it may open).
_BINDERS = {"\\": (OPEN, OPEN),
            "forall": (IMP, EQ), "exists": (IMP, EQ), "nabla": (IMP, EQ)}
# What opens a nesting level.
_NESTS = {"(", "=>", *_BINDERS}
# The operators that build formulas, and their names for the printer.
_FORMULAS = {"/\\": And, "\\/": Or, "=>": Imp, "=": Eq,
             "forall": Forall, "exists": Exists, "nabla": Nabla}
_NAMES = {cls: op for op, cls in _FORMULAS.items()}
_LEAVES = {"name", "uvar", "int"}  # token kinds that are operands

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
    line = 1
    bol = 0  # where the current line starts
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            newlines = text.count("\n", start, pos)
            if newlines:
                line += newlines
                bol = text.rindex("\n", start, pos) + 1
        elif kind != "comment":
            tok = m.group()
            if kind == "name" and tok in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, tok, line, start - bol + 1))
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", filename,
                         line, pos - bol + 1)
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

# What the reader is asked for, and, offset by _BUILD, the step that builds
# a node once its operands are read.
_TERM, _FORMULA, _BUILD = 0, 1, 2


class _Parser:
    def __init__(self, tokens, filename=None):
        self.toks = tokens
        self.pos = 0
        self.filename = filename
        self.bound: list[str] = []  # innermost binder last
        self.clause_vars: dict[str, int] = {}  # name -> first-occurrence rank
        self.query_vars = None  # [(Bound, rank)] while closing a query

    # Token plumbing -------------------------------------------------------

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, text=None):
        t = self.toks[self.pos]
        if t.kind != kind or (text is not None and t.text != text):
            raise self.error(f"expected {text or kind!r}, found {t.text!r}")
        return self.next()

    def at(self, kind, text=None):
        t = self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def error(self, message, tok=None):
        t = self.toks[self.pos] if tok is None else tok
        return ParseError(message, self.filename, t.line, t.col)

    # One expression -------------------------------------------------------

    def expr(self, level, depth):
        """The raw tree of the expression at the current token, in a
        context of the given level and nesting depth.

        A leaf is its Token; any other node is a tuple (operator, token,
        left, right): (" ", head's token, head, [arguments]) for an
        application, (binder, token, [names], body) for a λ or quantifier.
        Parentheses leave no node.  Each open operator waits on the stack
        for its right operand."""
        toks = self.toks
        pos = self.pos
        stack = []  # (operator, token, left, the context's level)
        while True:
            # An operand starts at pos.
            if depth > MAX_NESTING:
                raise self.error(f"nested more than {MAX_NESTING} levels deep",
                                 toks[pos])
            t = toks[pos]
            kind = t.kind
            pos += 1
            if t.text == "(":
                op, left, inner = "(", None, OPEN
            elif kind == "kw" and t.text != "true" \
                    and _BINDERS[t.text][1] >= level:
                op, left, inner = t.text, [], _BINDERS[t.text][0]
                while toks[pos].kind == "name" or toks[pos].kind == "uvar":
                    left.append(toks[pos].text)
                    pos += 1
                self.pos = pos
                if not left:
                    raise self.error(f"{op} needs at least one variable name")
                self.expect("punct", ".")
                pos = self.pos
            elif (kind == "name" or kind == "uvar") and toks[pos].text == "\\" \
                    and _BINDERS["\\"][1] >= level:
                op, left, inner = "\\", [t.text], OPEN
                pos += 1
            elif kind in _LEAVES or kind == "kw" and t.text == "true":
                node, op = t, None
            else:
                raise self.error(f"expected a term, found {t.text!r}", t)
            if op is not None:
                stack.append((op, t, left, level))
                level = inner
                depth += 1
                continue
            # The operand so far is node: extend it by what binds at level or
            # tighter, and close what waits for it.
            while True:
                t = toks[pos]
                kind = t.kind
                if (kind in _LEAVES or t.text == "(") and level <= APP:
                    if type(node) is Token:
                        node = (" ", node, node, [])
                    elif node[0] != " ":
                        node = (" ", node[1], node, [])
                    if kind in _LEAVES:
                        node[3].append(t)
                        pos += 1
                        continue
                    stack.append((" ", t, node, level))
                    level = ATOM
                    break
                if t.text in _INFIX:
                    op = t.text
                    row = _INFIX[op]
                    if row[0] >= level:
                        stack.append((op, t, node, level))
                        level = row[2]
                        pos += 1
                        if op in _NESTS:
                            depth += 1
                        break
                if not stack:
                    self.pos = pos
                    return node
                op, tok, left, level = stack.pop()
                if op == " ":
                    left[3].append(node)
                    node = left
                    continue
                if op != "(":
                    node = (op, tok, left, node)
                elif t.text != ")":
                    raise self.error(f"expected ')', found {t.text!r}", t)
                else:
                    pos += 1
                if op in _NESTS:
                    depth -= 1

    # Reading a raw tree ---------------------------------------------------

    def read(self, root, want):
        """The Term (want _TERM) or Formula (want _FORMULA) a raw tree
        stands for, read left to right on an explicit stack: binder names
        are resolved in scope and each node is built once, after its
        operands."""
        bound = self.bound
        out = []
        todo = [(root, want)]
        while todo:
            node, want = todo.pop()
            if type(node) is Token:
                kind = node.kind
                if kind == "kw":  # true
                    if want == _TERM:
                        raise self.error("expected a term, found 'true'", node)
                    out.append(Top())
                    continue
                if kind == "int" or kind == "name" and node.text not in bound:
                    t = Const(node.text)
                else:
                    t = self.resolve(node.text)
            elif want < _BUILD:
                op = node[0]
                if want == _TERM and op in _FORMULAS:
                    raise self.error(f"expected a term, found {op!r}", node[1])
                if want == _FORMULA and op == "\\":
                    raise self.error("expected a formula", node[1])
                todo.append((node, want + _BUILD))
                if op == " ":
                    for a in reversed(node[3]):
                        todo.append((a, _TERM))
                    todo.append((node[2], _TERM))
                elif op in _BINDERS:
                    bound.extend(node[2])
                    todo.append((node[3], want))
                else:
                    sub = _TERM if op == "=" or op == "::" else _FORMULA
                    todo.append((node[3], sub))
                    todo.append((node[2], sub))
                continue
            else:
                want -= _BUILD
                op = node[0]
                if op in _BINDERS:
                    names = node[2]
                    del bound[len(bound) - len(names):]
                    t = out.pop()
                    if op == "\\":
                        t = Lam(t, names[0])
                    else:
                        for name in reversed(names):
                            t = _FORMULAS[op](name, t)
                    out.append(t)
                    continue
                if op == " ":
                    n = len(node[3]) + 1
                    head, args = out[-n], out[1 - n:]
                    del out[-n:]
                    if want == _FORMULA and type(head) is Const:
                        out.append(Atom(head.name, args))
                        continue
                    t = app(head, args)
                else:
                    right = out.pop()
                    left = out.pop()
                    if op != "::":
                        out.append(_FORMULAS[op](left, right))
                        continue
                    t = App(Const("::"), (left, right))
                node = node[1]
            if want == _FORMULA:  # a term in a formula's place: an atom
                name, args = _atom_parts(t)
                if name is None:
                    raise self.error("expected a formula", node)
                t = Atom(name, args)
            out.append(t)
        return out[0]

    def resolve(self, name) -> Term:
        bound = self.bound
        if name in bound:
            return Bound(bound[::-1].index(name))
        if name[0].isupper() or name[0] == "_":
            rank = self.clause_vars.setdefault(name, len(self.clause_vars))
            if self.query_vars is None:
                return ClauseVar(name)
            b = Bound(len(bound))
            self.query_vars.append((b, rank))
            return b
        return Const(name)

    def query(self, node):
        """Read a formula and close its free query variables into a top-level
        ∃ prefix: each occurrence is read as a Bound at its binder depth,
        then raised by the number of later query variables, whose ∃ the
        prefix puts inside its own."""
        self.clause_vars = {}
        self.query_vars = []
        f = self.read(node, _FORMULA)
        k = len(self.clause_vars)
        for b, rank in self.query_vars:
            b.index += k - 1 - rank
        self.query_vars = None
        for name in reversed(list(self.clause_vars)):
            f = Exists(name, f)
        return f

    # Items ------------------------------------------------------------------

    def item(self):
        """One clause, directive, or query, consuming the closing dot."""
        t = self.toks[self.pos]
        if t.kind == "directive":
            return self.directive()
        self.clause_vars = {}
        _, head_level, body_level = _INFIX[":="]
        hname, hargs = _atom_parts(self.read(self.expr(head_level, 0), _TERM))
        if hname is None:
            raise self.error("a clause head must be a predicate applied to terms")
        body = Top()
        if self.at("punct", ":="):
            self.next()
            body = self.read(self.expr(body_level, 1), _FORMULA)
        self.expect("punct", ".")
        return ClauseItem(hname, hargs, body, tuple(self.clause_vars), t.line)

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
            node = self.expr(IMP, 1)
            self.expect("punct", ".")
            return AssertDirective(self.query(node), name == "#assert", line)
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

    def formula_to_eof(self):
        """A formula's raw tree, an optional closing dot, and nothing else."""
        node = self.expr(IMP, 1)
        if self.at("punct", "."):
            self.next()
        self.expect("eof")
        return node


def _atom_parts(t):
    head, args = (t.head, t.args) if type(t) is App else (t, ())
    if type(head) is Const:
        return head.name, args
    return None, ()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_term(text, filename=None) -> Term:
    """Parse one term.  Uppercase names become ClauseVar placeholders."""
    p = _Parser(tokenize(text, filename), filename)
    node = p.expr(OPEN, 1)
    p.expect("eof")
    return p.read(node, _TERM)


def parse_formula(text, filename=None) -> Formula:
    """Parse one formula; uppercase names stay ClauseVar placeholders."""
    p = _Parser(tokenize(text, filename), filename)
    return p.read(p.formula_to_eof(), _FORMULA)


def parse_query(text, filename=None) -> Formula:
    """Parse a query: free uppercase names become a top-level ∃ prefix."""
    p = _Parser(tokenize(text, filename), filename)
    return p.query(p.formula_to_eof())


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
    return p.query(p.formula_to_eof())


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

def _const_names(roots):
    acc = set()
    stack = list(roots)
    while stack:
        t = stack.pop()
        tt = type(t)
        if tt is Const:
            acc.add(t.name)
        elif tt is Lam:
            stack.append(t.body)
        elif tt is App:
            stack.append(t.head)
            stack.extend(t.args)
        elif isinstance(t, Var) and t.binding is not None:
            stack.append(t.binding)
    return acc


def _fresh_name(base, avoid, used, i):
    """The first of base, base1, base2, ... from suffix i on that is in
    neither avoid nor used, and its suffix."""
    fresh = f"{base}{i}" if i else base
    while fresh in avoid or fresh in used:
        i += 1
        fresh = f"{base}{i}"
    return fresh, i


def _render(root, level, avoid, keyed=False):
    """Render a term or formula in a context of the given level, with the
    parentheses the operator table asks for, on an explicit stack.  A string
    on the stack is output, None leaves a binder's scope."""
    out = []
    env = []  # binder names in scope, innermost last; all distinct
    names = set()
    # A binder takes the first name its base spells, base, base1, ..., that
    # is neither in scope nor to be avoided.  low[base] is a suffix below
    # which every candidate is one of those, so the search starts there;
    # saved holds, per binder in scope, its base and the low[base] its
    # entry found, which is right again once the binder leaves its scope.
    low = {}
    saved = []
    todo = [(root, level)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        if item is None:
            names.remove(env.pop())
            base, start = saved.pop()
            low[base] = start
            continue
        t, level = item
        if isinstance(t, Var):
            t = deref(t)
        tt = type(t)
        if tt is App and type(t.head) is Const and t.head.name == "::" \
                and len(t.args) == 2:
            own, left, right = _INFIX["::"]
            parts = [(t.args[1], right), "::", (t.args[0], left)]
        elif tt is App or tt is Atom:
            own, left, right = _INFIX[" "]
            parts = []
            for a in reversed(t.args):
                parts += ((a, right), " ")
            parts.append(t.pred if tt is Atom else (t.head, left))
        elif tt is Lam or tt is Exists or tt is Forall or tt is Nabla:
            kw = "\\" if tt is Lam else _NAMES[tt]
            own = _BINDERS[kw][0]
            base = (t.hint if tt is Lam else t.name) or "x"
            start = low.get(base, 0)
            name, i = _fresh_name(base, avoid, names, start)
            low[base] = i + 1
            saved.append((base, start))
            head = f"{name}\\ " if tt is Lam else f"{kw} {name}. "
            parts = [None, (t.body, own), head]
            env.append(name)
            names.add(name)
        elif tt in _NAMES:  # =, /\, \/, =>
            op = _NAMES[tt]
            own, left, right = _INFIX[op]
            l, r = (t.lhs, t.rhs) if tt is Eq else (t.left, t.right)
            parts = [(r, right), f" {op} ", (l, left)]
        else:
            out.append(_leaf(t, env, keyed))
            continue
        todo += [")", *parts, "("] if level > own else parts
    return "".join(out)


def _leaf(t, env, keyed):
    tt = type(t)
    if tt is Const or tt is ClauseVar:
        return t.name
    if tt is Bound:
        i = t.index
        return env[len(env) - 1 - i] if i < len(env) else f"_b{i - len(env)}"
    if tt is NablaIndex:
        return f"#{t.index}"
    if tt is Top:
        return "true"
    if keyed:
        return f"{t.name}@{'E' if isinstance(t, EigenVar) else 'L'}{t.id}"
    return f"{t.name}_{t.id}"


def print_term(t, prec=OPEN, keyed=False) -> str:
    """Render a term so that it reparses to the same structure, in a
    context of level prec of the operator table.  Unbound variables print
    as name_id so distinct variables never collide on the page.  With keyed
    set they print as name@E<id> (eigenvariables) or name@L<id> (logic
    variables) instead, a form no constant can spell; table keys use it, so
    a variable and a constant such as x_0 never share a key.
    """
    t = deref(t)
    if type(t) is Const:
        return t.name
    return _render(t, prec, _const_names((t,)), keyed)


def print_formula(f) -> str:
    """Render a formula with the parentheses the operator table asks for."""
    return _render(f, OPEN, _const_names(formula_terms(f)))


def print_substitution(pairs) -> str:
    """Render an answer substitution: `X = t, Y = s`, or `yes` when empty."""
    if not pairs:
        return "yes"
    return ", ".join(f"{name} = {print_term(t)}" for name, t in pairs)
