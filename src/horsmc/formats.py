"""Text formats for schemes, automata and annotated witness schemes.

Scheme files have sections `terminals:`, `nonterminals:`, `start:` and
`rules:`; automata files have `states:`, `initial:`, `colors:` and
`delta:`.  `#` starts a comment.  Annotated schemes reuse the scheme
grammar with terminal tokens `a@{k:c.q,...}->q` and nonterminal tokens
`F@<type>`, where a type is a state or `{c.<type>,...}-><type>` and the
neutral color prints as `e`.
"""

from __future__ import annotations

import re

from .automata import (Apt, Atom, EPSILON, FALSE, Formula, TRUE, FAnd, FOr,
                       atoms_of, format_formula)
from .itypes import ArrowType, ColoredSet, IType, StateType, colored_set
from .selection import AnnotatedHors, Profile
from .syntax import (App, Arrow, GROUND, Hors, NonTerminal, Rule, SimpleType,
                     Term, Terminal, TreePrefix, Var, format_sort,
                     format_term, format_tree)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# After an @ an annotated token may carry braces, colons, dots and arrows.
_ANNOT_TAIL = re.compile(r"[A-Za-z0-9_@{},.:>-]*")


def _strip_comment(line: str) -> str:
    i = line.find("#")
    return line if i < 0 else line[:i]


def _logical_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if line.strip():
            yield no, line


def _lex_expr(s: str, lineno: int, offset: int = 0):
    """Tokens of a rule body: identifiers (possibly annotated) and parens."""
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            out.append((ch, lineno, offset + i + 1))
            i += 1
            continue
        m = _IDENT.match(s, i)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", lineno,
                             offset + i + 1)
        end = m.end()
        if end < len(s) and s[end] == "@":
            m2 = _ANNOT_TAIL.match(s, end)
            end = m2.end()
        out.append((s[i:end], lineno, offset + i + 1))
        i = end
    return out


# ---------------------------------------------------------------------------
# Sorts

def parse_sort(text: str, lineno: int = 0, offset: int = 0) -> SimpleType:
    """`offset` is the index of `text` in its line: errors carry the 1-based
    column of the offending token, or of the end of `text`."""
    tokens = [(m.group(), offset + m.start() + 1)
              for m in re.finditer(r"->|[()]|o|\S+", text)]
    tokens.append((None, offset + len(text) + 1))
    pos = [0]

    def atom() -> SimpleType:
        t, col = tokens[pos[0]]
        if t is None:
            raise ParseError("sort expected", lineno, col)
        if t == "o":
            pos[0] += 1
            return GROUND
        if t == "(":
            pos[0] += 1
            inner = sort()
            if tokens[pos[0]][0] != ")":
                raise ParseError("')' expected in sort", lineno,
                                 tokens[pos[0]][1])
            pos[0] += 1
            return inner
        raise ParseError(f"bad sort token {t!r}", lineno, col)

    def sort() -> SimpleType:
        left = atom()
        if tokens[pos[0]][0] == "->":
            pos[0] += 1
            return Arrow(left, sort())
        return left

    result = sort()
    t, col = tokens[pos[0]]
    if t is not None:
        raise ParseError(f"trailing sort token {t!r}", lineno, col)
    return result


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
    section = None
    # Section headers have no space before the colon; declaration lines
    # conventionally do (`name : arity`).
    section_re = re.compile(r"^(terminals|nonterminals|start|rules):(.*)$")

    for no, line in _logical_lines(text):
        stripped = line.strip()
        m = section_re.match(stripped)
        if m:
            section = m.group(1)
            rest = m.group(2).strip()
            if section == "start" and rest:
                start = rest
                section = None
            continue
        if section == "terminals":
            name, _, arity = stripped.rpartition(":")
            name, arity = name.strip(), arity.strip()
            col = line.index(stripped) + 1
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
            name, _, sort_text = stripped.rpartition(":")
            name, sort_text = name.strip(), sort_text.strip()
            col = line.index(stripped) + 1
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
            start = stripped
            section = None
        elif section == "rules":
            indent = len(line) - len(stripped)
            if "=" not in stripped:
                raise ParseError("expected 'F x1 ... xn = body'", no,
                                 indent + 1)
            eq = line.index("=")
            head_tokens = _lex_expr(line[indent:eq], no, indent)
            if not head_tokens:
                raise ParseError("malformed rule head", no, indent + 1)
            for t, _, col in head_tokens:
                if t in "()":
                    raise ParseError("malformed rule head", no, col)
            fname, _, head_col = head_tokens[0]
            if fname not in nonterminals:
                raise ParseError(f"rule for undeclared nonterminal '{fname}'",
                                 no, head_col)
            if fname in rules:
                raise ParseError(f"second rule for nonterminal '{fname}'",
                                 no, head_col)
            sort = nonterminals[fname]
            binders = []
            for b, _, col in head_tokens[1:]:
                if not isinstance(sort, Arrow):
                    raise ParseError(f"too many binders for '{fname}'", no,
                                     col)
                binders.append((b, sort.domain))
                sort = sort.codomain
            body = _parse_body(line[eq + 1:], no, eq + 1,
                               {b for b, _ in binders}, terminals,
                               nonterminals)
            rules[fname] = Rule(tuple(binders), body)
        else:
            raise ParseError(f"text outside any section: {stripped!r}", no, 1)

    if start is None:
        raise ParseError("missing start symbol", 1, 1)
    return Hors(terminals=terminals, nonterminals=nonterminals, rules=rules,
                start=start), where


def _parse_body(src: str, lineno: int, offset: int, binders: set[str],
                terminals: dict, nonterminals: dict) -> Term:
    tokens = _lex_expr(src, lineno, offset)
    pos = [0]

    def atom() -> Term:
        if pos[0] >= len(tokens):
            raise ParseError("expression expected", lineno, offset + len(src))
        tok, ln, col = tokens[pos[0]]
        if tok == "(":
            pos[0] += 1
            inner = expr()
            if pos[0] >= len(tokens) or tokens[pos[0]][0] != ")":
                raise ParseError("')' expected", ln, col)
            pos[0] += 1
            return inner
        if tok == ")":
            raise ParseError("unexpected ')'", ln, col)
        pos[0] += 1
        if tok in binders:
            return Var(tok)
        if tok in terminals:
            return Terminal(tok)
        if tok in nonterminals:
            return NonTerminal(tok)
        raise ParseError(f"unknown name '{tok}'", ln, col)

    def expr() -> Term:
        t = atom()
        while pos[0] < len(tokens) and tokens[pos[0]][0] != ")":
            t = App(t, atom())
        return t

    result = expr()
    if pos[0] != len(tokens):
        tok, ln, col = tokens[pos[0]]
        raise ParseError(f"trailing token {tok!r}", ln, col)
    return result


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

def _parse_formula(src: str, lineno: int, offset: int) -> Formula:
    token_re = re.compile(r"\s*(true|false|/\\|\\/|[(),]|\d+|[A-Za-z][A-Za-z0-9_]*)")
    tokens = []
    i = 0
    while i < len(src):
        if src[i].isspace():
            i += 1
            continue
        m = token_re.match(src, i)
        if not m:
            raise ParseError(f"bad formula character {src[i]!r}", lineno,
                             offset + i + 1)
        tokens.append((m.group(1), offset + m.start(1) + 1))
        i = m.end()
    pos = [0]

    def peek():
        return tokens[pos[0]][0] if pos[0] < len(tokens) else None

    def take(expected=None):
        if pos[0] >= len(tokens):
            raise ParseError("formula ends unexpectedly", lineno,
                             offset + len(src))
        tok, col = tokens[pos[0]]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", lineno, col)
        pos[0] += 1
        return tok, col

    def atom() -> Formula:
        tok, col = take()
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        if tok == "(":
            if peek() is not None and peek().isdigit():
                d, _ = take()
                take(",")
                q, _ = take()
                take(")")
                return Atom(int(d), q)
            inner = disjunction()
            take(")")
            return inner
        raise ParseError(f"unexpected formula token {tok!r}", lineno, col)

    def conjunction() -> Formula:
        left = atom()
        while peek() == "/\\":
            take()
            left = FAnd(left, atom())
        return left

    def disjunction() -> Formula:
        left = conjunction()
        while peek() == "\\/":
            take()
            left = FOr(left, conjunction())
        return left

    f = disjunction()
    if pos[0] != len(tokens):
        tok, col = tokens[pos[0]]
        raise ParseError(f"trailing formula token {tok!r}", lineno, col)
    return f


def parse_apt(text: str, terminals: dict[str, int] | None = None) -> Apt:
    states: list[str] = []
    initial: str | None = None
    omega: dict[str, int] = {}
    color_at: dict[str, tuple[int, int]] = {}
    delta: dict[tuple[str, str], Formula] = {}
    symbols: dict[str, int] = dict(terminals) if terminals else {}
    infer_arities = terminals is None
    section = None
    section_re = re.compile(r"^(states|initial|colors|delta):(.*)$")

    for no, line in _logical_lines(text):
        stripped = line.strip()
        m = section_re.match(stripped)
        if m:
            section = m.group(1)
            rest = m.group(2).strip()
            if rest:
                if section == "states":
                    _apt_states(line, line.index(":") + 1, no, states)
                elif section == "initial":
                    initial = rest
                else:
                    _apt_entry(section, line, line.index(":") + 1, no,
                               omega, color_at, delta, symbols)
            if section in ("initial",) and rest:
                section = None
            continue
        if section == "states":
            _apt_states(line, 0, no, states)
        elif section == "initial":
            initial = stripped
            section = None
        elif section in ("colors", "delta"):
            _apt_entry(section, line, 0, no, omega, color_at, delta, symbols)
        else:
            raise ParseError(f"text outside any section: {stripped!r}", no, 1)

    if not states:
        raise ParseError("missing states", 1, 1)
    if initial is None:
        raise ParseError("missing initial state", 1, 1)
    for q, (no, col) in color_at.items():
        if q not in states:
            raise ParseError(f"color for unlisted state '{q}'", no, col)
    for q in states:
        omega.setdefault(q, 0)
    if infer_arities:
        for (_, a), f in delta.items():
            dirs = [d for d, _ in atoms_of(f)]
            symbols[a] = max(symbols.get(a, 0), max(dirs, default=0))
    m_ = Apt(states=tuple(states), terminals=symbols, delta=delta,
             omega=omega, initial=initial)
    return m_


def _apt_states(line: str, start: int, no: int, states: list[str]) -> None:
    """Append the state names on `line` from `start`; a repeat is an error."""
    for tok in re.finditer(r"\S+", line[start:]):
        q = tok.group()
        if q in states:
            raise ParseError(f"state '{q}' listed twice", no,
                             start + tok.start() + 1)
        states.append(q)


def _apt_entry(section: str, line: str, start: int, no: int, omega: dict,
               color_at: dict, delta: dict, symbols: dict) -> None:
    """Read the color entries or the transition on `line` from `start`."""
    if section == "colors":
        for entry in re.finditer(r"[^,\s][^,]*", line[start:]):
            col = start + entry.start() + 1
            part = entry.group().rstrip()
            m = re.match(r"^([A-Za-z][A-Za-z0-9_]*)\s*->\s*(\d+)$", part)
            if not m:
                raise ParseError("expected 'state -> color'", no, col)
            if m.group(1) in omega:
                raise ParseError(f"second color for state '{m.group(1)}'",
                                 no, col)
            omega[m.group(1)] = int(m.group(2))
            color_at[m.group(1)] = (no, col)
    else:
        m = re.compile(r"\s*(\S+)\s+(\S+)\s*->\s*(.*)$").match(line, start)
        col = len(line) - len(line[start:].lstrip()) + 1
        if not m:
            raise ParseError("expected 'state symbol -> formula'", no, col)
        q, a = m.group(1), m.group(2)
        if (q, a) in delta:
            raise ParseError(f"second transition for state '{q}' and "
                             f"symbol '{a}'", no, col)
        delta[(q, a)] = _parse_formula(m.group(3), no, m.start(3))
        symbols.setdefault(a, 0)


def print_apt(m: Apt) -> str:
    lines = ["states: " + " ".join(m.states),
             f"initial: {m.initial}",
             "colors:"]
    for q in m.states:
        lines.append(f"  {q} -> {m.omega[q]}")
    lines.append("delta:")
    for (q, a), f in m.delta.items():
        lines.append(f"  {q} {a} -> {format_formula(f)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Annotated schemes

def _parse_color(text: str):
    """A color token the caller matched as `e` or digits."""
    return EPSILON if text == "e" else int(text)


def parse_itype(text: str, lineno: int = 0, offset: int = 0) -> IType:
    """`offset` is the index of `text` in its line: errors carry 1-based
    columns."""
    pos = [0]

    def itype() -> IType:
        if pos[0] < len(text) and text[pos[0]] == "{":
            u = cset()
            if not text.startswith("->", pos[0]):
                raise ParseError("'->' expected in type", lineno,
                                 offset + pos[0] + 1)
            pos[0] += 2
            return ArrowType(u, itype())
        m = _IDENT.match(text, pos[0])
        if not m:
            raise ParseError("state expected in type", lineno,
                             offset + pos[0] + 1)
        pos[0] = m.end()
        return StateType(m.group(0))

    def cset() -> ColoredSet:
        assert text[pos[0]] == "{"
        pos[0] += 1
        pairs = []
        while pos[0] < len(text) and text[pos[0]] != "}":
            m = re.compile(r"(e|\d+)\.").match(text, pos[0])
            if not m:
                raise ParseError("'color.type' expected", lineno,
                                 offset + pos[0] + 1)
            c = _parse_color(m.group(1))
            pos[0] = m.end()
            pairs.append((c, itype()))
            if pos[0] < len(text) and text[pos[0]] == ",":
                pos[0] += 1
        if pos[0] >= len(text):
            raise ParseError("'}' expected in type", lineno,
                             offset + pos[0])
        pos[0] += 1
        return colored_set(pairs)

    t = itype()
    if pos[0] != len(text):
        raise ParseError(f"trailing type text {text[pos[0]:]!r}", lineno,
                         offset + pos[0] + 1)
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
            per_dir.setdefault(int(em.group(1)), []).append(
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
    lines = ["digraph tree {", "  node [fontname=\"monospace\"];"]
    counter = [0]

    def visit(node: TreePrefix) -> str:
        me = f"n{counter[0]}"
        counter[0] += 1
        label = "_|_" if node.is_bottom else node.label.replace("\"", "'")
        shape = "plaintext" if node.is_bottom else "box"
        lines.append(f"  {me} [label=\"{label}\", shape={shape}];")
        for child in node.children:
            cid = visit(child)
            lines.append(f"  {me} -> {cid};")
        return me

    visit(t)
    lines.append("}")
    return "\n".join(lines) + "\n"
