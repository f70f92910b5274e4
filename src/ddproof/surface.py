"""Concrete syntax: scanner, parsers and printers.

Formulas are written in a plain ASCII notation,

    forall x. ~P(x) & #a = $c -> (lam y. Q(y)) (iota z. R(z, x))

with `#name` for parameters, `$name` for constants, bare names for bound
variables and 0-ary predicates, and connective precedence

    ~  >  &  >  |  >  ->  >  <->

where the arrows associate to the right, `&`/`|` to the left, `=` binds
tighter than `~`, and binders (`forall x.`, `exists x.`, `lam x.`,
`iota x.`) take the longest scope to the right. A description `iota x. ...`
is only legal as the argument of a parenthesized abstract `(lam x. ...)`.

Sequents separate comma-separated sides with `=>`. Proofs are
s-expressions, one node per line when pretty-printed:

    (foralll (seq (forall x. P(x)) (P($c))) :term $c
      (ax (seq (P($c)) (P($c)))))

with optional `:term`, `:eigen` and `:at` annotations. foralll, existsr,
iotar and eqplus take one `:term`, iota2l and eqminus two, and the other
rules none; forallr, existsl, iota1l and iotar take `:eigen`; all but ax,
cut, weakening, contraction and eqplus take `:at`.
`#` starts a comment unless immediately followed by a letter. The unicode
glyphs for the connectives are accepted on input and produced by the
printers when asked, so pretty output re-parses. The notation is stated
once, in the table `_NOTATION`; the scanner's glyph map, the reserved
words, the precedence-climbing parser and both print styles read it.

The scanner is one regular expression, `_TOKEN`. A printed proof repeats
its text, so `_scan` splits it at the separators around formulas and gives
each distinct piece to `findall` once, for the tokens of one whole-text
scan. Names keep their `#`, `$` or `:` prefix, so a token's kind follows
from its first character; glyphs are mapped to ASCII once per distinct
piece. No positions are kept: a `ParseError` finds its line and column by
re-running `_TOKEN` with `finditer` up to the failing token. A scanner
error is found before parsing, so it wins over any parse error.

A printed proof spells out each context formula again at every node above
it, so one parse memoizes each formula it read up to a list delimiter, by
its first token and then its token list: each distinct formula text is
parsed once and its occurrences share one `Formula`, with the facts
`syntax` stores on it. The key is the text, not the alpha-equivalence
class, because each occurrence must print back with its own bound-variable
names. The memo lives and dies with one parse call.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterator, Optional, Union

from .kernel import ProofNode, preorder
from .syntax import (
    And,
    Const,
    Exists,
    Forall,
    Formula,
    Identity,
    Iff,
    Imp,
    IotaTerm,
    LambdaAtom,
    Not,
    Or,
    Param,
    PredAtom,
    Sequent,
    Term,
    Var,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        self.msg = msg
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {msg}")


# The notation, stated once: an ASCII token, its glyph, the node class it
# builds and, for a connective, its level (higher binds tighter) and how it
# groups. The words are the binders, and reserved.
_NOTATION = (
    ("<->", "↔", Iff, 1, "right"),
    ("->", "→", Imp, 2, "right"),
    ("|", "∨", Or, 3, "left"),
    ("&", "∧", And, 4, "left"),
    ("~", "¬", Not, 5, "prefix"),
    ("forall", "∀", Forall, None, None),
    ("exists", "∃", Exists, None, None),
    ("lam", "λ", LambdaAtom, None, None),
    ("iota", "ι", IotaTerm, None, None),
    ("=>", "⇒", Sequent, None, None),
)

_GLYPHS = {glyph: tok for tok, glyph, *_ in _NOTATION}
_BINDERS = {tok: cls for tok, _, cls, *_ in _NOTATION if tok.isalpha()}
_PREFIX = {tok: cls for tok, _, cls, _, group in _NOTATION if group == "prefix"}
# connective class -> (level, groups to the right)
_LEVEL = {cls: (level, group == "right") for _, _, cls, level, group in _NOTATION if level}
# infix token -> (node class, level, groups to the right)
_INFIX = {tok: (cls, *_LEVEL[cls]) for tok, _, cls, _, group in _NOTATION if group in ("left", "right")}

# One token: a name with its `#`, `$` or `:` prefix, a number, an operator
# or a glyph.
_TOKENS = r"[#$:]?[A-Za-z][A-Za-z0-9_]*|[0-9]+|<?->|=>|[=~&|(),.%s]" % "".join(_GLYPHS)

# Whitespace (only [ \t\r\n]) and comments, then one token, the empty
# string at the end of the text, or else the rest of the text from a
# character that starts no token. The skip is a plain greedy `*`: the last
# two choices always match, so the engine never backtracks into it.
_TOKEN = re.compile(r"(?:[ \t\r\n]+|#(?![A-Za-z])[^\n]*)*(" + _TOKENS + r"|\Z|(?s:.+))")
# one token, told from the rest of the text after a stray character
_WHOLE_TOKEN = re.compile(_TOKENS)

# Where `_scan` splits a text, with each separator's tokens: the tokens a
# printed proof repeats around its formulas, a newline with its indentation,
# or a comment, which is split at so that no split falls inside one.
_SEPARATOR = re.compile(r"(, |\) \(|\(seq \(|\n *|#(?![A-Za-z])[^\n]*)")
_SEPARATOR_TOKENS = {", ": [","], ") (": [")", "("], "(seq (": ["(", "seq", "("]}

# the tokens that end an item of a formula list
_LIST_ENDS = {",", ")", "=>", ""}


def _scan_error(tok: str) -> Optional[str]:
    """The error for the scanner's last token before the end, None when it
    is a token and not the rest of the text from a stray character, which
    begins with a character no token accepts and so never is one."""
    if _WHOLE_TOKEN.fullmatch(tok):
        return None
    c = tok[0]
    if c == "$":
        return "'$' must be followed by a constant name"
    if c == ":":
        return "':' must be followed by an annotation name"
    return f"unexpected character {c!r}"


def _findall(text: str) -> list[str]:
    """The token strings of `text`, glyphs mapped to ASCII, ending in one ""."""
    toks = _TOKEN.findall(text)
    if len(toks) > 1 and not toks[-2]:
        toks.pop()  # after trailing whitespace the end matched twice
    return toks if text.isascii() else [_GLYPHS.get(t, t) for t in toks]


def _scan(text: str) -> list[str]:
    """`_findall(text)`, scanning each distinct piece between separators
    once. A piece that ends in a stray character sends the whole text
    through `_findall`, whose error token runs on to the end of the text."""
    parts = _SEPARATOR.split(text) + [""]
    scanned: dict[str, list[str]] = {}
    toks: list[str] = []
    for piece, sep in zip(parts[::2], parts[1::2]):
        piece_toks = scanned.get(piece)
        if piece_toks is None:
            piece_toks = scanned[piece] = _findall(piece)[:-1]
            if piece_toks and _scan_error(piece_toks[-1]):
                return _findall(text)
        toks += piece_toks
        toks += _SEPARATOR_TOKENS.get(sep, ())
    toks.append("")
    return toks


class _Parser:
    def __init__(self, text: str, line: int = 1):
        """Scan `text`, whose first line is line `line` of its source."""
        self.text = text
        self.line = line
        self.toks = toks = _scan(text)
        self.pos = 0
        self.memo: dict[str, list[tuple[list[str], Formula]]] = {}
        if len(toks) > 1:
            msg = _scan_error(toks[-2])
            if msg:
                self.fail(msg, len(toks) - 2)

    def fail(self, msg: str, index: Optional[int] = None):
        """Raise at token `index`, by default the current one."""
        text = self.text
        m = next(islice(_TOKEN.finditer(text), self.pos if index is None else index, None))
        at = m.start(1)
        bol = text.rfind("\n", 0, at) + 1
        # a comment does not advance the column, so the end of a text that
        # ends in one is placed at its `#`
        hash_at = text.find("#", max(bol, m.start()), at)
        if hash_at >= 0:
            at = hash_at
        raise ParseError(msg, text.count("\n", 0, at) + self.line, at - bol + 1)

    def shown(self) -> str:
        t = self.toks[self.pos]
        return t[1:] if t[:1] in ("#", "$", ":") else t

    def expected(self, what: str):
        self.fail(f"expected {what!r}, got {self.shown() or 'eof'!r}")

    def expect(self, tok: str) -> None:
        if self.toks[self.pos] != tok:
            self.expected(tok)
        self.pos += 1

    def name(self) -> str:
        t = self.toks[self.pos]
        if not t[:1].isalpha() or t in _BINDERS:
            self.expected("ident")
        self.pos += 1
        return t

    def done(self):
        if self.toks[self.pos]:
            self.fail(f"unexpected {self.shown()!r} after a complete input")

    # --- terms ---

    def term(self) -> Term:
        t = self.toks[self.pos]
        c = t[:1]
        if c == "#" or c == "$":
            term = (Param if c == "#" else Const)(t[1:])
        elif c.isalpha() and t not in _BINDERS:
            term = Var(t)
        else:
            self.fail("expected a term")
        self.pos += 1
        return term

    # --- formulas ---

    def formula(self, level: int = 1) -> Formula:
        """A formula whose infix connectives are all at `level` or above,
        by precedence climbing: the right operand of a connective that
        groups to the left is read one level higher."""
        f = self.neg()
        while True:
            op = _INFIX.get(self.toks[self.pos])
            if op is None or op[1] < level:
                return f
            cls, lvl, right = op
            self.pos += 1
            f = cls(f, self.formula(lvl if right else lvl + 1))

    def neg(self) -> Formula:
        """An atom under a chain of prefix connectives, read in a loop."""
        toks, start = self.toks, self.pos
        while toks[self.pos] in _PREFIX:
            self.pos += 1
        end = self.pos
        f = self.atom()
        for i in range(end - 1, start - 1, -1):
            f = _PREFIX[toks[i]](f)
        return f

    def atom(self) -> Formula:
        toks, pos = self.toks, self.pos
        t = toks[pos]
        binder = _BINDERS.get(t)
        if binder is IotaTerm:
            self.fail("a description is only legal as the argument of an abstract")
        if binder is LambdaAtom:
            self.fail("an abstract must be parenthesized: (lam x. ...) arg")
        if binder is not None:  # a quantifier
            return binder(*self.binding())
        if t == "(":
            if toks[pos + 1] == "lam":
                return LambdaAtom(*self.binding(paren=True), self.lambda_arg())
            self.pos += 1
            f = self.formula()
            self.expect(")")
            return f
        c = t[:1]
        if c.isalpha():  # a name: the reserved words are taken above
            nxt = toks[pos + 1]
            if nxt == "(":
                return self.predicate()
            if nxt == "=":
                return self.identity()
            self.pos += 1
            return PredAtom(t, ())
        if c == "#" or c == "$":
            return self.identity()
        self.fail("expected a formula")

    def predicate(self) -> PredAtom:
        name = self.toks[self.pos]
        self.pos += 2  # the name and "("
        args = [self.term()]
        while self.toks[self.pos] == ",":
            self.pos += 1
            args.append(self.term())
        self.expect(")")
        return PredAtom(name, tuple(args))

    def identity(self) -> Identity:
        lhs = self.term()
        self.expect("=")
        return Identity(lhs, self.term())

    def binding(self, paren: bool = False) -> tuple[str, Formula]:
        """A binder's variable and body, `x. body`, read from the binder on,
        or when `paren` from a "(" before it to a ")" after the body."""
        self.pos += 1 + paren
        v = self.name()
        self.expect(".")
        body = self.formula()
        if paren:
            self.expect(")")
        return v, body

    def lambda_arg(self) -> Union[Term, IotaTerm]:
        t = self.toks[self.pos]
        if t == "iota":
            return IotaTerm(*self.binding())
        if t == "(" and self.toks[self.pos + 1] == "iota":
            return IotaTerm(*self.binding(paren=True))
        c = t[:1]
        if c == "#" or c == "$" or c.isalpha() and t not in _BINDERS:
            return self.term()
        self.fail("an abstract needs a term or description argument")

    # --- sequents ---

    def formula_list(self) -> tuple[Formula, ...]:
        toks, memo = self.toks, self.memo
        if toks[self.pos] in ("=>", ")", ""):
            return ()
        forms = []
        while True:
            start = self.pos
            # a parsed formula's tokens are balanced and hold no delimiter,
            # so at most one memo entry is followed by one here
            for span, f in memo.get(toks[start], ()):
                end = start + len(span)
                if toks[start:end] == span and toks[end] in _LIST_ENDS:
                    self.pos = end
                    break
            else:
                f = self.formula()
                # a parse that stopped early is not the whole item's meaning
                if toks[self.pos] in _LIST_ENDS:
                    memo.setdefault(toks[start], []).append((toks[start:self.pos], f))
            forms.append(f)
            if toks[self.pos] != ",":
                return tuple(forms)
            self.pos += 1

    def sequent(self) -> Sequent:
        ant = self.formula_list()
        self.expect("=>")
        return Sequent(ant, self.formula_list())

    # --- proofs ---

    def proof(self) -> ProofNode:
        """A proof, read in one loop: `open_` holds each node whose premises
        are being read, with its other fields and the premises read so far."""
        expect, toks, open_ = self.expect, self.toks, []
        while True:
            expect("(")
            rule = self.name()
            expect("(")
            expect("seq")
            expect("(")
            ant = self.formula_list()
            expect(")")
            expect("(")
            suc = self.formula_list()
            expect(")")
            expect(")")
            terms, eigen, at = [], None, None
            while toks[self.pos][:1] == ":":
                kw_at, kw = self.pos, toks[self.pos][1:]
                self.pos += 1
                if kw == "term":
                    terms.append(self.term())
                elif kw == "eigen":
                    if eigen is not None:
                        self.fail("duplicate :eigen", kw_at)
                    if toks[self.pos][:1] != "#":
                        self.expected("param")
                    eigen = Param(toks[self.pos][1:])
                    self.pos += 1
                elif kw == "at":
                    if at is not None:
                        self.fail("duplicate :at", kw_at)
                    if not toks[self.pos][:1].isdigit():
                        self.expected("number")
                    try:
                        at = int(toks[self.pos])
                    except ValueError:  # past the interpreter's digit limit
                        self.fail("number too long")
                    self.pos += 1
                else:
                    self.fail(f"unknown annotation :{kw}", kw_at)
            prems: list[ProofNode] = []
            while toks[self.pos] != "(":  # the node's premises are all read
                expect(")")
                node = ProofNode(rule, Sequent(ant, suc), tuple(prems), tuple(terms), eigen, at)
                if not open_:
                    return node
                rule, ant, suc, terms, eigen, at, prems = open_.pop()
                prems.append(node)
            open_.append((rule, ant, suc, terms, eigen, at, prems))


def _parse(p: _Parser, rule):
    out = rule(p)
    p.done()
    return out


def parse_term(text: str) -> Term:
    return _parse(_Parser(text), _Parser.term)


def parse_formula(text: str) -> Formula:
    return _parse(_Parser(text), _Parser.formula)


def parse_sequent(text: str) -> Sequent:
    return _parse(_Parser(text), _Parser.sequent)


def parse_proof(text: str) -> ProofNode:
    return _parse(_Parser(text), _Parser.proof)


def parse_lines(text: str) -> Iterator[tuple[int, Union[Formula, Sequent]]]:
    """Each line's number in `text` and its formula, or its sequent if a
    token is the arrow, parsed as the line is reached; a line without tokens
    is skipped. A ParseError gives the line in `text` and the column in that
    line as written."""
    for number, line in enumerate(text.splitlines(), start=1):
        p = _Parser(line, number)
        if p.toks[0]:
            yield number, _parse(p, _Parser.sequent if "=>" in p.toks else _Parser.formula)


# ---------------------------------------------------------------------------
# printers


def _style(column: int) -> dict:
    """A print style: each node class's token (`column` 0) or glyph
    (`column` 1), spaced around an infix connective and after a word."""
    sty = {}
    for row in _NOTATION:
        s = row[column]
        sty[row[2]] = f" {s} " if row[4] in ("left", "right") else s + " " * (s in _BINDERS)
    return sty


_STYLES = (_style(0), _style(1))


def format_term(t: Term) -> str:
    """A variable, parameter or constant; `_render` prints a description."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Param):
        return "#" + t.name
    if isinstance(t, Const):
        return "$" + t.name
    raise TypeError(f"not a term: {t!r}")


def _binding(f: Union[Formula, IotaTerm], sty: dict) -> str:
    """A quantifier, a description, or an abstract without its argument."""
    return f"{sty[type(f)]}{f.bound}. {_render(f.body, 1, True, sty)}"


def _render(f: Formula, min_level: int, tail: bool, sty: dict) -> str:
    cls = type(f)
    if cls is PredAtom:
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(format_term(a) for a in f.args)})"
    if cls is Identity:
        return f"{format_term(f.lhs)} = {format_term(f.rhs)}"
    if cls is Not:
        return sty[Not] + _render(f.sub, _LEVEL[Not][0], tail, sty)
    if cls in _LEVEL:
        level, right = _LEVEL[cls]
        wrap = level < min_level
        s = _render(f.left, level + right, False, sty) + sty[cls]
        s += _render(f.right, level + (not right), wrap or tail, sty)
        return f"({s})" if wrap else s
    if cls is Forall or cls is Exists:
        s = _binding(f, sty)
        return s if tail else f"({s})"
    if cls is LambdaAtom:
        arg = f"({_binding(f.arg, sty)})" if type(f.arg) is IotaTerm else format_term(f.arg)
        return f"({_binding(f, sty)}) {arg}"
    raise TypeError(f"not a formula: {f!r}")


def _formulas(fs: tuple[Formula, ...], sty: dict, shown: dict) -> str:
    """`shown` maps the id of each formula rendered so far in one call, whose
    caller keeps it alive, to its text: each formula object renders once."""
    for f in fs:
        if id(f) not in shown:
            shown[id(f)] = _render(f, 1, True, sty)
    return ", ".join([shown[id(f)] for f in fs])


def format_formula(f: Formula, unicode: bool = False) -> str:
    return _render(f, 1, True, _STYLES[unicode])


def format_sequent(s: Sequent, unicode: bool = False) -> str:
    sty, shown = _STYLES[unicode], {}
    ant, suc = _formulas(s.ant, sty, shown), _formulas(s.suc, sty, shown)
    return " ".join(filter(None, (ant, sty[Sequent], suc)))


def format_proof(root: ProofNode, unicode: bool = False) -> str:
    """One line per node, in pre-order, indented two spaces per level; where
    the depth drops to d, the line before closes each node at d or deeper."""
    sty, shown = _STYLES[unicode], {}
    lines: list[str] = []
    last = -1
    for depth, n in preorder(root):
        if depth <= last:
            lines[-1] += ")" * (last - depth + 1)
        last = depth
        ant, suc = _formulas(n.conclusion.ant, sty, shown), _formulas(n.conclusion.suc, sty, shown)
        head = f"{'  ' * depth}({n.rule} (seq ({ant}) ({suc}))"
        for t in n.terms:
            head += f" :term {format_term(t)}"
        if n.eigen is not None:
            head += f" :eigen {format_term(n.eigen)}"
        if n.at is not None:
            head += f" :at {n.at}"
        lines.append(head)
    lines[-1] += ")" * (last + 1)
    return "\n".join(lines) + "\n"
