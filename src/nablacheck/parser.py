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

The lexer reads the text a line at a time, one findall per line, and
makes no object per token: the tokens are three parallel lists, their
texts, kinds and line numbers, and the parser holds token indices.  A
token's column is found again, from its line's text alone, only when an
error is reported there.

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
parser reads by this table and builds each Term or Formula in the same
pass, as soon as its operands are read; the printer parenthesizes by the
same table.  An operand's sort is checked when its operator takes it: a
connective or `true` where a term stands, or a λ or a term not headed by
a constant where a formula stands, is an error at that point, so it can
be reported before a syntax error later in the input.

Query variables (free uppercase names in a query or assertion) desugar into
a top-level existential prefix in first-occurrence order, which is how the
engine knows to report their witnesses.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import ParseError
from .logic import And, Atom, Eq, Exists, Forall, Formula, Imp, Nabla, Or, Top
from .nodes import (
    App, Bound, ClauseVar, Const, EigenVar, Lam, NablaIndex, Term, Var, app,
)
from .terms import deref

KEYWORDS = {"forall", "exists", "nabla", "true"}

# Deepest nesting the parser accepts, counted on its own stack: each open
# parenthesis, λ, quantifier and right operand of `=>` is a level, and so
# is a clause body; list length and chains of `/\` or `\/` are not.  No
# part of the parser or the engine recurses once per level; the bound is a
# plain limit on how deeply input may nest.
MAX_NESTING = 5000

# The levels of the operator table, loosest first.
CLAUSE, OPEN, IMP, OR, AND, EQ, CONS, APP, ATOM = range(9)

# Infix operator -> (level, left operand level, right operand level).
# Application is juxtaposition; " " names it on the parser's stack.
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
_CONS = Const("::")

# One token per match on one line, the commonest kinds first: a name, a
# number, a two-character operator, a comment, which runs to the end of the
# line, a directive, a string, or else any one character that is not
# whitespace, so findall skips only whitespace.
_TOKEN = re.compile(r"""[A-Za-z_][A-Za-z0-9_']*|\d+|:=|::|=>|/\\|\\/|"""
                    r"""%.*|\#[a-z_]+|"[^"]*"|\S""")
_findall = _TOKEN.findall
# A token's kind by its first character.  A character missing here starts
# a token only as a stray one, or as a number in other digits than 0-9.
_KIND = {c: "name" for c in "abcdefghijklmnopqrstuvwxyz"}
_KIND.update((c, "uvar") for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_KIND.update((c, "int") for c in "0123456789")
_KIND.update((c, "punct") for c in "()\\.=:/")
_KIND["#"] = "directive"
_KIND['"'] = "string"
# The first characters above that are a token alone only as a stray one:
# no `#` without a directive name, `"` without its closing quote, `:` or `/`
# outside an operator.
_STRAY = {"#", '"', ":", "/"}
_MARKED = _STRAY | KEYWORDS  # texts the kind of their first character misses


def tokenize(text, filename=None):
    """The tokens of text as three parallel lists, (texts, kinds, lines):
    each token's text, its kind (name, uvar, kw, int, string, punct,
    directive) and its line, with an "eof" token last.  Comments and
    whitespace leave no token.  A stray character is a ParseError, raised
    before any parsing, at the first one in the text."""
    texts = []
    lines = []
    n = 0
    for line in text.split("\n"):
        n += 1
        found = _findall(line)
        if found:
            if found[-1][0] == "%":
                found.pop()
            texts += found
            lines += [n] * len(found)
    kinds = list(map(_KIND.get, map(itemgetter(0), texts)))
    if None in kinds or not _MARKED.isdisjoint(texts):
        for i, t in enumerate(texts):
            if kinds[i] is None and t[0].isdecimal():
                kinds[i] = "int"
            elif kinds[i] is None or t in _STRAY:
                what = (f"byte {ord(t) - 0xDC00:#04x}"  # read surrogateescaped
                        if "\udc80" <= t <= "\udcff" else f"character {t!r}")
                raise ParseError(f"unexpected {what}", filename,
                                 lines[i], _column(text, texts, lines, i))
            elif t in KEYWORDS:
                kinds[i] = "kw"
    texts.append("")
    kinds.append("eof")
    lines.append(n)
    return texts, kinds, lines


def _column(text, texts, lines, i):
    """The column of token i, found again from the text of its line alone:
    the start of the line's match for it, or the line's end for eof."""
    n = lines[i]
    line = text.split("\n", n)[n - 1]
    if not texts[i]:  # eof
        return len(line) + 1
    first = i
    while first and lines[first - 1] == n:
        first -= 1
    return [m.start() for m in _TOKEN.finditer(line)][i - first] + 1


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
    def __init__(self, text, filename=None):
        self.texts, self.kinds, self.lines = tokenize(text, filename)
        self.text = text
        self.pos = 0  # the index of the current token
        self.filename = filename
        self.binders = 0  # how many binders are in scope
        self.places: dict[str, list[int]] = {}  # name -> its binders' depths
        self.clause_vars: dict[str, int] = {}  # name -> first-occurrence rank
        self.query_vars = None  # [(Bound, rank)] while closing a query

    # Token plumbing -------------------------------------------------------

    def expect(self, kind, text=None):
        """The current token's text, once it is of this kind (and text);
        the next token becomes current."""
        pos = self.pos
        found = self.texts[pos]
        if self.kinds[pos] != kind or (text is not None and found != text):
            raise self.error(f"expected {text or kind!r}, found {found!r}")
        self.pos = pos + 1
        return found

    def error(self, message, i=None):
        """A ParseError at token i, by default the current one."""
        if i is None:
            i = self.pos
        return ParseError(message, self.filename, self.lines[i],
                          _column(self.text, self.texts, self.lines, i))

    def finish(self, result):
        """result, once an optional closing dot and the end of input follow."""
        if self.texts[self.pos] == "." and self.kinds[self.pos] == "punct":
            self.pos += 1
        if self.kinds[self.pos] != "eof":
            self.expect("eof")  # raises
        return result

    # One expression -------------------------------------------------------

    def expr(self, level, depth, want):
        """want(node, token) of the expression at the current token, in a
        context of the given level and nesting depth.

        Each operator builds its Term or Formula as soon as its operands are
        read, taking each by its sort (term or formula), and an operand
        comes with the index of the token an error in it is reported at.
        An application stays a list, head then arguments, and a free
        lowercase name its text, until what takes it reads it as a term or
        an atom (a predicate's name makes no constant).  A binder's names are
        in scope (self.places, counted by self.binders) from the binder
        to the end of its body, and parentheses leave no node; an open
        operator waits on the stack."""
        texts = self.texts
        kinds = self.kinds
        places = self.places
        leaf = self.leaf
        term = self.term
        infix = _INFIX.get
        pos = self.pos
        stack = []  # (operator, token, left, left's token, context's level)
        while True:
            # An operand starts at pos.
            if depth > MAX_NESTING:
                raise self.error(f"nested more than {MAX_NESTING} levels deep",
                                 pos)
            t = pos
            kind = kinds[pos]
            text = texts[pos]
            pos += 1
            if text == "(":
                op, left, inner = "(", None, OPEN
            elif kind == "kw" and text != "true" \
                    and _BINDERS[text][1] >= level:
                op, left, inner = text, [], _BINDERS[text][0]
                while kinds[pos] == "name" or kinds[pos] == "uvar":
                    left.append(texts[pos])
                    pos += 1
                self.pos = pos
                if not left:
                    raise self.error(f"{op} needs at least one variable name")
                self.expect("punct", ".")
                pos = self.pos
                for name in left:
                    places.setdefault(name, []).append(self.binders)
                    self.binders += 1
            elif (kind == "name" or kind == "uvar") and texts[pos] == "\\" \
                    and _BINDERS["\\"][1] >= level:
                op, left, inner = "\\", text, OPEN
                pos += 1
                places.setdefault(left, []).append(self.binders)
                self.binders += 1
            elif kind == "name" and not places.get(text):
                node, tok, op = text, t, None
            elif kind in _LEAVES or kind == "kw" and text == "true":
                node, tok, op = leaf(kind, text), t, None
            else:
                raise self.error(f"expected a term, found {text!r}", t)
            if op is not None:
                stack.append((op, t, left, None, level))
                level = inner
                depth += 1
                continue
            # The operand so far is node: extend it by what binds at level or
            # tighter, and close what waits for it.
            while True:
                kind = kinds[pos]
                text = texts[pos]
                if (kind in _LEAVES or text == "(") and level <= APP:
                    if type(node) is not list:
                        node = [node if type(node) is str
                                else term(node, tok)]
                    if kind in _LEAVES:
                        node.append(Const(text) if kind == "name" and not
                                    places.get(text) else leaf(kind, text))
                        pos += 1
                        continue
                    stack.append((" ", pos, node, tok, level))
                    level = ATOM
                    break
                row = infix(text)
                if row is not None and row[0] >= level:
                    stack.append((text, pos, node, tok, level))
                    level = row[2]
                    pos += 1
                    if text in _NESTS:
                        depth += 1
                    break
                if not stack:
                    self.pos = pos
                    return want(node, tok)
                op, optok, left, ltok, level = stack.pop()
                if op == "::":
                    node = App(_CONS, (term(left, ltok), term(node, tok)))
                    tok = optok
                    continue
                if op == " ":
                    left.append(term(node, tok))
                    node, tok = left, ltok
                    continue
                if op == "(":
                    if text != ")":
                        raise self.error(f"expected ')', found {text!r}", pos)
                    pos += 1
                else:
                    if op == "\\":
                        self.binders -= 1
                        places[left].pop()
                        node = Lam(term(node, tok), left)
                    elif op in _BINDERS:
                        self.binders -= len(left)
                        for name in left:
                            places[name].pop()
                        node = self.formula(node, tok)
                        for name in reversed(left):
                            node = _FORMULAS[op](name, node)
                    else:
                        sort = term if op == "=" else self.formula
                        node = _FORMULAS[op](sort(left, ltok), sort(node, tok))
                    tok = optok
                if op in _NESTS:
                    depth -= 1

    # Operands by sort -------------------------------------------------------

    def leaf(self, kind, name):
        """The node a name, number or true stands for, with the binders in
        scope (expr keeps a free lowercase name as its text); a free
        uppercase name is a clause variable, or in a query a Bound that
        query() closes."""
        if kind == "kw":  # true
            return Top()
        places = self.places.get(name)
        if places:
            return Bound(self.binders - 1 - places[-1])
        if kind == "int" or kind == "name":
            return Const(name)
        rank = self.clause_vars.setdefault(name, len(self.clause_vars))
        if self.query_vars is None:
            return ClauseVar(name)
        b = Bound(self.binders)
        self.query_vars.append((b, rank))
        return b

    def term(self, node, tok):
        """node as a Term: a name's text is its constant, an application
        list is applied, a formula refused."""
        if type(node) is str:
            return Const(node)
        if type(node) is list:
            head = node[0]
            return app(Const(head) if type(head) is str else head, node[1:])
        if isinstance(node, Formula):
            op = "true" if type(node) is Top else _NAMES[type(node)]
            raise self.error(f"expected a term, found {op!r}", tok)
        return node

    def formula(self, node, tok):
        """node as a Formula: a term headed by a constant reads as an atom."""
        if isinstance(node, Formula):
            return node
        name, args = _atom_parts(node)
        if name is None:
            raise self.error("expected a formula", tok)
        return Atom(name, args)

    def head(self, node, tok):
        """A clause head's predicate name and arguments."""
        name, args = _atom_parts(
            node if type(node) is list else self.term(node, tok))
        if name is None:
            raise self.error("a clause head must be a predicate applied to terms")
        return name, args

    def query(self):
        """Read a formula and close its free query variables into a top-level
        ∃ prefix: each occurrence is read as a Bound at its binder depth,
        then raised by the number of later query variables, whose ∃ the
        prefix puts inside its own."""
        self.clause_vars = {}
        self.query_vars = []
        f = self.expr(IMP, 1, self.formula)
        k = len(self.clause_vars)
        for b, rank in self.query_vars:
            b.index += k - 1 - rank
        self.query_vars = None
        for name in reversed(self.clause_vars):
            f = Exists(name, f)
        return f

    # Items ------------------------------------------------------------------

    def item(self):
        """One clause, directive, or query, consuming the closing dot."""
        if self.kinds[self.pos] == "directive":
            return self.directive()
        line = self.lines[self.pos]
        self.clause_vars = {}
        _, head_level, body_level = _INFIX[":="]
        hname, hargs = self.expr(head_level, 0, self.head)
        body = Top()
        if self.texts[self.pos] == ":=":  # only an operator spells it
            self.pos += 1
            body = self.expr(body_level, 1, self.formula)
        self.expect("punct", ".")
        return ClauseItem(hname, hargs, body, tuple(self.clause_vars), line)

    def directive(self):
        line = self.lines[self.pos]
        name = self.expect("directive")
        if name == "#level":
            pred = self.expect("name")
            d = LevelDirective(pred, int(self.expect("int")), line)
        elif name == "#table":
            mode = self.expect("name")
            d = TableDirective(mode, self.expect("name"), line)
        elif name in ("#assert", "#assert_not"):
            d = AssertDirective(self.query(), name == "#assert", line)
        elif name == "#include":
            d = IncludeDirective(self.expect("string")[1:-1], line)
        elif name == "#clear_tables":
            d = ClearTablesDirective(line)
        elif name == "#show_table":
            d = ShowTableDirective(self.expect("name"), line)
        else:
            raise self.error(f"unknown directive {name}")
        self.expect("punct", ".")
        return d


def _atom_parts(node):
    """The predicate name and arguments of node, a term, a name's text or
    an application list, read as an atom, or None and () when its head is
    no constant."""
    head, args = (node[0], tuple(node[1:])) if type(node) is list \
        else (node, ())
    if type(head) is str:
        return head, args
    if type(head) is App:
        head, args = head.head, head.args + args
    if type(head) is Const:
        return head.name, args
    return None, ()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_term(text, filename=None) -> Term:
    """Parse one term.  Uppercase names become ClauseVar placeholders."""
    p = _Parser(text, filename)
    t = p.expr(OPEN, 1, p.term)
    p.expect("eof")
    return t


def parse_formula(text, filename=None) -> Formula:
    """Parse one formula; uppercase names stay ClauseVar placeholders."""
    p = _Parser(text, filename)
    return p.finish(p.expr(IMP, 1, p.formula))


def parse_query(text, filename=None) -> Formula:
    """Parse a query: free uppercase names become a top-level ∃ prefix."""
    p = _Parser(text, filename)
    return p.finish(p.query())


def parse_file(text, filename=None):
    """Parse a definition file into a list of clause and directive items."""
    p = _Parser(text, filename)
    items = []
    while p.kinds[p.pos] != "eof":
        items.append(p.item())
    return items


def parse_interaction(text, filename=None):
    """Parse one REPL input: either a directive or a query formula."""
    p = _Parser(text, filename)
    if p.kinds[p.pos] == "directive":
        d = p.directive()
        p.expect("eof")
        return d
    return p.finish(p.query())


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

def _const_names(roots):
    """The names of the constants in roots, terms or formulas."""
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
        elif tt is Atom:
            stack.extend(t.args)
        elif tt is Eq:
            stack += (t.lhs, t.rhs)
        elif tt is And or tt is Or or tt is Imp:
            stack += (t.left, t.right)
        elif tt is Exists or tt is Forall or tt is Nabla:
            stack.append(t.body)
    return acc


def _fresh_name(base, avoid, used, i):
    """The first of base, base1, base2, ... from suffix i on that is in
    neither avoid nor used, and its suffix."""
    fresh = f"{base}{i}" if i else base
    while fresh in avoid or fresh in used:
        i += 1
        fresh = f"{base}{i}"
    return fresh, i


def _render(root, level, keyed=False):
    """Render a term or formula in a context of the given level, with the
    parentheses the operator table asks for, on an explicit stack.  A string
    on the stack is output, None leaves a binder's scope.  Binders take
    names no constant of root spells, read at the first binder met, so a
    term without one is walked once."""
    out = []
    avoid = None
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
            if avoid is None:
                avoid = _const_names((root,))
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

    Binders take names no constant of the term spells (_const_names).
    """
    t = deref(t)
    if type(t) is Const:
        return t.name
    return _render(t, prec, keyed)


def print_formula(f) -> str:
    """Render a formula with the parentheses the operator table asks for."""
    return _render(f, OPEN)


def print_substitution(pairs) -> str:
    """Render an answer substitution: `X = t, Y = s`, or `yes` when empty."""
    if not pairs:
        return "yes"
    return ", ".join(f"{name} = {print_term(t)}" for name, t in pairs)
