"""Text formats for schemes, automata and annotated witness schemes.

Scheme files have sections `terminals:`, `nonterminals:`, `start:` and
`rules:`; automata files have `states:`, `initial:`, `colors:` and
`delta:`.  `#` starts a comment.  Annotated schemes reuse the scheme
grammar with terminal tokens `a@{k:c.q,...}->q` and nonterminal tokens
`F@<type>`, where a type is a state or `{c.<type>,...}-><type>` and the
neutral color prints as `e`.  Both token forms are written and read here
(`terminal_symbol`, `nonterminal_symbol`, `decode_terminal_symbol`,
`parse_itype`), with the `AnnotatedHors` they name.

Two pieces serve every grammar.  `_sections` reads the sections of a file
and yields each entry line, or the rest of a header line, with its section
and position.  `_Tokens` is a cursor over the tokens of one sort, rule,
formula, type or list of states.  Errors carry the 1-based line and column
of the offending token; an error at the end of the text points one column
past its last character.
"""

from __future__ import annotations

import re
from typing import NamedTuple, NoReturn

from .automata import (Apt, Atom, EPSILON, FALSE, Formula, Profile, TRUE,
                       conj, disj, format_color)
from .itypes import (ArrowType, ColoredSet, IType, StateType, colored_set,
                     format_itype)
from .syntax import (Arrow, GROUND, Hors, NonTerminal, Rule, SimpleType, Term,
                     Terminal, TreePrefix, Var, apply, format_sort,
                     format_term, format_tree)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# A token pattern matches what it skips, then the token as group 1.
_SORT_TOKEN = re.compile(r"\s*(->|[()]|o|\S+)")
# Identifiers, annotated ones carrying braces, colons, dots and arrows after
# the @, and parentheses.
_EXPR_TOKEN = re.compile(r"\s*([()]|[A-Za-z][A-Za-z0-9_]*"
                         r"(?:@[A-Za-z0-9_@{},.:>-]*)?)")
_FORMULA_TOKEN = re.compile(r"\s*(true|false|/\\|\\/|[(),]|\d+"
                            r"|[A-Za-z][A-Za-z0-9_]*)")
# A type skips nothing: any other character, a space included, is a token
# of its own, which the type grammar rejects.
_TYPE_TOKEN = re.compile(r"((?:e|\d+)\.|->|[{},]|[A-Za-z][A-Za-z0-9_]*|.)",
                         re.DOTALL)
_COLOR_DOT = re.compile(r"(e|\d+)\.")
_WORD = re.compile(r"\s*(\S+)")
_COLOR_ENTRY = re.compile(r"[^,\s][^,]*")
_TRANSITION = re.compile(r"(\S+)\s+(\S+)\s*->\s*(.*)$")


class _Tokens:
    """A cursor over the tokens of `text`, which starts at index `offset` of
    line `line`.  It holds `(token, column)` pairs with 1-based columns,
    then the end sentinel `(None, column)` one past the text.  `token_re`
    matches one token as its group 1, after what it skips; trailing
    whitespace ends the text, and any other character that starts no token
    is an error named `bad`."""

    def __init__(self, text: str, token_re: re.Pattern, line: int,
                 offset: int = 0, bad: str = "unexpected character"):
        self.line = line
        self.toks: list[tuple[str | None, int]] = []
        end = 0
        for m in token_re.finditer(text):
            if m.start() != end:
                break
            self.toks.append((m.group(1), offset + m.start(1) + 1))
            end = m.end()
        rest = text[end:].lstrip()
        if rest:
            raise ParseError(f"{bad} {rest[0]!r}", line,
                             offset + len(text) - len(rest) + 1)
        self.toks.append((None, offset + len(text) + 1))
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i][0]

    def take(self) -> tuple[str | None, int]:
        """The next pair; the cursor stays on the end sentinel."""
        tok = self.toks[self.i]
        if tok[0] is not None:
            self.i += 1
        return tok

    def fail(self, msg: str, col: int | None = None) -> NoReturn:
        """Raise at `col`, by default at the next token."""
        raise ParseError(msg, self.line,
                         self.toks[self.i][1] if col is None else col)


def _sections(text: str, names: tuple[str, ...], single: str):
    """Yield `(section, lineno, line, col)` for each entry of `text`, where
    `line` is without its comment and `line[col - 1:]` is the entry.  A
    header `name:` may carry its first entry; the section `single` holds one
    entry only."""
    # Section headers have no space before the colon; declaration lines
    # conventionally do (`name : arity`).
    header = re.compile(r"\s*(" + "|".join(names) + r"):\s*")
    section = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        m = header.match(line)
        if m:
            section = m.group(1)
            if m.end() == len(line):
                continue
            col = m.end() + 1
        else:
            col = len(line) - len(line.lstrip()) + 1
        if section is None:
            raise ParseError(f"text outside any section: {line.strip()!r}",
                             no, 1)
        yield section, no, line, col
        if section == single:
            section = None


# ---------------------------------------------------------------------------
# Sorts

def parse_sort(text: str, lineno: int = 0, offset: int = 0) -> SimpleType:
    """`offset` is the index of `text` in its line: errors carry the 1-based
    column of the offending token, or one past the end of `text`."""
    cur = _Tokens(text, _SORT_TOKEN, lineno, offset)
    # The domains read so far of each open group's arrow chain: the text,
    # then one group per open parenthesis.
    groups: list[list[SimpleType]] = [[]]
    while True:
        t, col = cur.take()
        if t is None:
            cur.fail("sort expected", col)
        if t == "(":
            groups.append([])
            continue
        if t != "o":
            cur.fail(f"bad sort token {t!r}", col)
        sort: SimpleType = GROUND
        while cur.peek() != "->":
            # The group's chain ends here; arrows associate to the right.
            for domain in reversed(groups.pop()):
                sort = Arrow(domain, sort)
            if not groups:
                if cur.peek() is not None:
                    cur.fail(f"trailing sort token {cur.peek()!r}")
                return sort
            if cur.peek() != ")":
                cur.fail("')' expected in sort")
            cur.take()
        cur.take()
        groups[-1].append(sort)


# ---------------------------------------------------------------------------
# Scheme files

def parse_hors(text: str) -> Hors:
    return _parse_hors(text)[0]


def _parse_hors(text: str) -> tuple[Hors, dict[str, tuple[int, int]]]:
    """The scheme, and the line and column of each declared name."""
    terminals: dict[str, int] = {}
    nonterminals: dict[str, SimpleType] = {}
    rules: dict[str, Rule] = {}
    where: dict[str, tuple[int, int]] = {}
    start: str | None = None
    for section, no, line, col in _sections(
            text, ("terminals", "nonterminals", "start", "rules"), "start"):
        entry = line[col - 1:]
        if section == "terminals":
            name, _, arity = entry.rpartition(":")
            name, arity = name.strip(), arity.strip()
            if not name or not arity.isdigit():
                raise ParseError("expected 'name : arity'", no, col)
            if name in terminals:
                raise ParseError(f"terminal '{name}' declared twice", no, col)
            if name in nonterminals:
                raise ParseError(f"terminal '{name}' already declared as a "
                                 "nonterminal", no, col)
            terminals[name] = int(arity)
            where[name] = (no, col)
        elif section == "nonterminals":
            name, _, sort_text = entry.rpartition(":")
            name, sort_text = name.strip(), sort_text.strip()
            if not name or not sort_text:
                raise ParseError("expected 'name : sort'", no, col)
            if name in nonterminals:
                raise ParseError(f"nonterminal '{name}' declared twice", no,
                                 col)
            if name in terminals:
                raise ParseError(f"nonterminal '{name}' already declared as "
                                 "a terminal", no, col)
            nonterminals[name] = parse_sort(sort_text, no,
                                            len(line) - len(sort_text))
            where[name] = (no, col)
        elif section == "start":
            start = entry
        else:
            if "=" not in entry:
                raise ParseError("expected 'F x1 ... xn = body'", no, col)
            eq = line.index("=", col - 1)
            head = _Tokens(line[col - 1:eq], _EXPR_TOKEN, no,
                           col - 1).toks[:-1]
            if not head:
                raise ParseError("malformed rule head", no, col)
            for t, c in head:
                if t in "()":
                    raise ParseError("malformed rule head", no, c)
            fname, head_col = head[0]
            if fname not in nonterminals:
                raise ParseError(f"rule for undeclared nonterminal '{fname}'",
                                 no, head_col)
            if fname in rules:
                raise ParseError(f"second rule for nonterminal '{fname}'",
                                 no, head_col)
            sort = nonterminals[fname]
            binders = []
            for b, c in head[1:]:
                if not isinstance(sort, Arrow):
                    raise ParseError(f"too many binders for '{fname}'", no, c)
                binders.append((b, sort.domain))
                sort = sort.codomain
            body = _Tokens(line[eq + 1:], _EXPR_TOKEN, no, eq + 1)
            rules[fname] = Rule(tuple(binders), _parse_body(
                body, {b for b, _ in binders}, terminals, nonterminals))

    if start is None:
        raise ParseError("missing start symbol", 1, 1)
    return Hors(terminals=terminals, nonterminals=nonterminals, rules=rules,
                start=start), where


def _parse_body(cur: _Tokens, binders: set[str], terminals: dict,
                nonterminals: dict) -> Term:
    """Application associates to the left.  Each open parenthesis, the whole
    body first, holds the operands read in it so far."""
    groups: list[list[Term]] = [[]]
    while True:
        tok, col = cur.take()
        if tok is None:
            cur.fail("expression expected", col)
        if tok == "(":
            groups.append([])
            continue
        if tok == ")":
            cur.fail("unexpected ')'", col)
        if tok in binders:
            groups[-1].append(Var(tok))
        elif tok in terminals:
            groups[-1].append(Terminal(tok))
        elif tok in nonterminals:
            groups[-1].append(NonTerminal(tok))
        else:
            cur.fail(f"unknown name '{tok}'", col)
        while cur.peek() in (None, ")"):
            t = apply(*groups.pop())
            if not groups:
                if cur.peek() is not None:
                    cur.fail(f"trailing token {cur.peek()!r}")
                return t
            if cur.peek() is None:
                cur.fail("')' expected")
            cur.take()
            groups[-1].append(t)


def print_hors(h: Hors) -> str:
    lines = ["terminals:"]
    for a, n in h.terminals.items():
        lines.append(f"  {a} : {n}")
    lines.append("nonterminals:")
    for f, s in h.nonterminals.items():
        lines.append(f"  {f} : {format_sort(s)}")
    lines.append(f"start: {h.start}")
    lines.append("rules:")
    for f, rule in h.rules.items():
        binders = "".join(f" {b}" for b, _ in rule.binders)
        lines.append(f"  {f}{binders} = {format_term(rule.body)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Automaton files

def _parse_formula(cur: _Tokens) -> Formula:
    """`/\\` binds tighter than `\\/`.  Each open group, the whole formula
    first, holds the conjuncts of each of its disjuncts read so far."""
    def take(expected=None):
        tok, col = cur.take()
        if tok is None:
            cur.fail("formula ends unexpectedly" if expected is None
                     else f"{expected!r} expected", col)
        if expected is not None and tok != expected:
            cur.fail(f"expected {expected!r}, found {tok!r}", col)
        return tok, col

    groups: list[list[list[Formula]]] = [[[]]]
    while True:
        tok, col = take()
        if tok == "(" and not (cur.peek() or "").isdigit():
            groups.append([[]])
            continue
        if tok in ("true", "false"):
            groups[-1][-1].append(TRUE if tok == "true" else FALSE)
        elif tok == "(":
            d, _ = take()
            take(",")
            q, _ = take()
            take(")")
            groups[-1][-1].append(Atom(int(d), q))
        else:
            cur.fail(f"unexpected formula token {tok!r}", col)
        while cur.peek() not in ("/\\", "\\/"):
            f = disj(*(conj(*c) for c in groups.pop()))
            if not groups:
                if cur.peek() is not None:
                    cur.fail(f"trailing formula token {cur.peek()!r}")
                return f
            take(")")
            groups[-1][-1].append(f)
        if take()[0] == "\\/":
            groups[-1].append([])


def parse_apt(text: str, terminals: dict[str, int]) -> Apt:
    """The automaton over the ranked alphabet `terminals`, the scheme's."""
    states: list[str] = []
    initial: str | None = None
    omega: dict[str, int] = {}
    color_at: dict[str, tuple[int, int]] = {}
    delta: dict[tuple[str, str], Formula] = {}

    for section, no, line, col in _sections(
            text, ("states", "initial", "colors", "delta"), "initial"):
        if section == "states":
            for q, c in _Tokens(line[col - 1:], _WORD, no, col - 1).toks[:-1]:
                if q in states:
                    raise ParseError(f"state '{q}' listed twice", no, c)
                states.append(q)
        elif section == "initial":
            initial = line[col - 1:]
        elif section == "colors":
            for entry in _COLOR_ENTRY.finditer(line, col - 1):
                c = entry.start() + 1
                m = re.fullmatch(r"([A-Za-z][A-Za-z0-9_]*)\s*->\s*(\d+)",
                                 entry.group().rstrip())
                if not m:
                    raise ParseError("expected 'state -> color'", no, c)
                if m.group(1) in omega:
                    raise ParseError(f"second color for state '{m.group(1)}'",
                                     no, c)
                omega[m.group(1)] = int(m.group(2))
                color_at[m.group(1)] = (no, c)
        else:
            m = _TRANSITION.match(line, col - 1)
            if not m:
                raise ParseError("expected 'state symbol -> formula'", no, col)
            q, a = m.group(1), m.group(2)
            if a not in terminals:
                raise ParseError(f"transition for unknown symbol '{a}'", no,
                                 m.start(2) + 1)
            if (q, a) in delta:
                raise ParseError(f"second transition for state '{q}' and "
                                 f"symbol '{a}'", no, col)
            delta[(q, a)] = _parse_formula(_Tokens(
                m.group(3), _FORMULA_TOKEN, no, m.start(3),
                "bad formula character"))

    if not states:
        raise ParseError("missing states", 1, 1)
    if initial is None:
        raise ParseError("missing initial state", 1, 1)
    for q, (no, col) in color_at.items():
        if q not in states:
            raise ParseError(f"color for unlisted state '{q}'", no, col)
    for q in states:
        omega.setdefault(q, 0)
    return Apt(states=tuple(states), terminals=dict(terminals), delta=delta,
               omega=omega, initial=initial)


# ---------------------------------------------------------------------------
# Annotated schemes

class AnnotatedHors(NamedTuple):
    """A scheme over the annotated alphabet, plus decoding tables.

    `terminal_info` maps an annotated symbol to (original symbol, profile,
    state); `nonterminal_info` maps an annotated nonterminal to (original
    nonterminal, intersection type).  Coercion helpers introduced while
    rebuilding rule bodies carry no entry.
    """

    hors: Hors
    terminal_info: dict[str, tuple[str, Profile, str]]
    nonterminal_info: dict[str, tuple[str, IType]]


def terminal_symbol(a: str, profile: Profile, q: str) -> str:
    entries = []
    for k, component in enumerate(profile, start=1):
        for c, q2 in component:
            entries.append(f"{k}:{format_color(c)}.{q2}")
    return f"{a}@{{{','.join(entries)}}}->{q}"


def nonterminal_symbol(name: str, ty: IType) -> str:
    return f"{name}@{format_itype(ty)}"


def _parse_color(text: str):
    """A color token the caller matched as `e` or digits."""
    return EPSILON if text == "e" else int(text)


def parse_itype(text: str, lineno: int = 0, offset: int = 0) -> IType:
    """`offset` is the index of `text` in its line: errors carry 1-based
    columns.  The reader keeps its open sets on a list, so no nesting
    depth meets Python's recursion limit."""
    cur = _Tokens(text, _TYPE_TOKEN, lineno, offset)
    # Open sets, innermost last: a list of the pairs read so far, ending in
    # the color whose type is being read, or a set awaiting its result.
    groups: list[list | ColoredSet] = []
    while True:
        # A type starts here.
        tok, col = cur.take()
        if tok == "{":
            groups.append([])
        elif tok is None or not _IDENT.fullmatch(tok):
            cur.fail("state expected in type", col)
        else:
            t = StateType(tok)
            while groups and isinstance(groups[-1], ColoredSet):
                t = ArrowType(groups.pop(), t)
            if not groups:
                break
            groups[-1][-1] = (groups[-1][-1], t)
            if cur.peek() == ",":
                cur.take()
        # Inside the innermost open set: its next color, or its end.
        if cur.peek() not in ("}", None):
            c, c_col = cur.take()
            m = _COLOR_DOT.fullmatch(c)
            if not m:
                cur.fail("'color.type' expected", c_col)
            groups[-1].append(_parse_color(m.group(1)))
            continue
        if cur.take()[0] is None:
            cur.fail("'}' expected in type")
        if cur.peek() != "->":
            cur.fail("'->' expected in type")
        cur.take()
        groups[-1] = colored_set(groups[-1])
    tok, col = cur.take()
    if tok is not None:
        cur.fail(f"trailing type text {text[col - offset - 1:]!r}", col)
    return t


_TERMINAL_TOKEN = re.compile(
    r"^([A-Za-z][A-Za-z0-9_]*)@\{([^}]*)\}->([A-Za-z][A-Za-z0-9_]*)$")


def decode_terminal_symbol(sym: str, arity: int, lineno: int = 0,
                           col: int = 0) -> tuple[str, Profile, str]:
    """Errors are reported at `lineno` and `col`, where `sym` is declared."""
    m = _TERMINAL_TOKEN.match(sym)
    if not m:
        raise ParseError(f"bad annotated terminal {sym!r}", lineno, col)
    a, entries, q = m.group(1), m.group(2), m.group(3)
    per_dir: dict[int, list] = {}
    if entries:
        for part in entries.split(","):
            em = re.match(r"^(\d+):(e|\d+)\.([A-Za-z][A-Za-z0-9_]*)$", part)
            if not em:
                raise ParseError(f"bad profile entry {part!r}", lineno, col)
            # Directions start at 1 and ascend.
            k, least = int(em.group(1)), max(per_dir, default=1)
            if k < least:
                raise ParseError(f"profile direction {k} below {least} in "
                                 f"{sym!r}", lineno, col)
            per_dir.setdefault(k, []).append(
                (_parse_color(em.group(2)), em.group(3)))
    n = max(per_dir, default=0)
    profile = tuple(tuple(per_dir.get(k, [])) for k in range(1, n + 1))
    if sum(len(c) for c in profile) != arity:
        raise ParseError(f"profile arity mismatch for {sym!r}", lineno, col)
    return a, profile, q


def parse_annotated(text: str) -> AnnotatedHors:
    h, where = _parse_hors(text)
    terminal_info = {}
    for sym, arity in h.terminals.items():
        terminal_info[sym] = decode_terminal_symbol(sym, arity, *where[sym])
    nonterminal_info = {}
    for name in h.nonterminals:
        if "@" in name:
            orig, _, ty_text = name.partition("@")
            no, col = where[name]
            nonterminal_info[name] = (orig, parse_itype(ty_text, no,
                                                        col + len(orig)))
    return AnnotatedHors(h, terminal_info, nonterminal_info)


def print_annotated(g: AnnotatedHors) -> str:
    return print_hors(g.hors)


# ---------------------------------------------------------------------------
# Trees

def print_tree(t: TreePrefix) -> str:
    return format_tree(t)


def tree_to_dot(t: TreePrefix) -> str:
    """One DOT node per position of the tree, numbered in preorder; a
    node's edge to its parent follows the lines of its subtree."""
    lines = ["digraph tree {", "  node [fontname=\"monospace\"];"]
    counter = 0
    # A tree with its parent's DOT name, or the parent's edge line, which is
    # emitted once the whole subtree below it has been.
    work: list[tuple[TreePrefix, str | None] | str] = [(t, None)]
    while work:
        item = work.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, parent = item
        me = f"n{counter}"
        counter += 1
        label = "_|_" if node.is_bottom else node.label.replace("\"", "'")
        shape = "plaintext" if node.is_bottom else "box"
        lines.append(f"  {me} [label=\"{label}\", shape={shape}];")
        if parent is not None:
            work.append(f"  {parent} -> {me};")
        work.extend((child, me) for child in reversed(node.children))
    lines.append("}")
    return "\n".join(lines) + "\n"
