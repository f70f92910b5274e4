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
printers when asked, so pretty output re-parses.

The scanner is one regular expression, `_TOKEN`, whose `findall` gives the
token strings in one pass. Names keep their `#`, `$` or `:` prefix, so a
token's kind follows from its first character; glyphs are mapped to ASCII.
No positions are kept: a `ParseError` finds its line and column by
re-running the same expression with `finditer` up to the failing token. A
scanner error is found before parsing, so it wins over any parse error.

A printed proof spells out each context formula again at every node above
it, so one parse memoizes formulas by their exact token sequence: each
distinct formula text is parsed once and its occurrences share one
`Formula`, with the facts `syntax` stores on it. The key is the text, not
the alpha-equivalence class, because each occurrence must print back with
its own bound-variable names. The memo lives and dies with one parse call.
"""

from __future__ import annotations

import re
from itertools import compress, islice
from typing import Optional, Union

from .kernel import ProofNode
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


_RESERVED = {"forall", "exists", "lam", "iota"}

_GLYPHS = dict(
    zip("¬∧∨→↔⇒∀∃λι", ("~", "&", "|", "->", "<->", "=>", "forall", "exists", "lam", "iota"))
)

# One token: a name with its `#`, `$` or `:` prefix, a number, an operator
# or a glyph.
_TOKENS = r"[#$:]?[A-Za-z][A-Za-z0-9_]*|[0-9]+|<?->|=>|[=~&|(),.¬∧∨→↔⇒∀∃λι]"

# Whitespace (only [ \t\r\n]) and comments, then one token, the empty
# string at the end of the text, or else the rest of the text from a
# character that starts no token. The skip is a plain greedy `*`: the last
# two choices always match, so the engine never backtracks into it.
_TOKEN = re.compile(r"(?:[ \t\r\n]+|#(?![A-Za-z])[^\n]*)*(" + _TOKENS + r"|\Z|(?s:.+))")


def _scan_error(tok: str) -> Optional[str]:
    """The error for the scanner's last token before the end, None when it
    is a token and not the rest of the text from a stray character, which
    begins with a character no token accepts and so never is one."""
    if re.fullmatch(_TOKENS, tok):
        return None
    c = tok[0]
    if c == "$":
        return "'$' must be followed by a constant name"
    if c == ":":
        return "':' must be followed by an annotation name"
    return f"unexpected character {c!r}"


def _span_ends(toks: list[str]) -> dict[int, int]:
    """For each index where a list item can start (the first token, or one
    after "(", "," or "=>"), the index of the next ",", ")", "=>" or end of
    input at the same parenthesis depth."""
    ends: dict[int, int] = {}
    starts = [0]
    marks = {"(", ")", ",", "=>"}.__contains__
    for i in compress(range(len(toks)), map(marks, toks)):
        t = toks[i]
        if t == "(":
            starts.append(i + 1)
        elif t == ")":
            ends[starts.pop()] = i
            if not starts:
                starts.append(i + 1)
        else:
            ends[starts[-1]] = i
            starts[-1] = i + 1
    for s in starts:
        ends[s] = len(toks) - 1
    return ends


class _Parser:
    def __init__(self, text: str):
        self.text = text
        toks = _TOKEN.findall(text)
        if len(toks) > 1 and not toks[-2]:
            toks.pop()  # after trailing whitespace the end matched twice
        if not text.isascii():
            toks = [_GLYPHS.get(t, t) for t in toks]
        self.toks = toks
        self.pos = 0
        self.ends = _span_ends(toks)
        self.memo: dict[tuple[str, ...], Formula] = {}
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
        raise ParseError(msg, text.count("\n", 0, at) + 1, at - bol + 1)

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
        if not t[:1].isalpha() or t in _RESERVED:
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
        if c == "#":
            self.pos += 1
            return Param(t[1:])
        if c == "$":
            self.pos += 1
            return Const(t[1:])
        if c.isalpha() and t not in _RESERVED:
            self.pos += 1
            return Var(t)
        self.fail("expected a term")

    # --- formulas ---

    def formula(self) -> Formula:
        left = self.imp()
        if self.toks[self.pos] == "<->":
            self.pos += 1
            return Iff(left, self.formula())
        return left

    def imp(self) -> Formula:
        left = self.disj()
        if self.toks[self.pos] == "->":
            self.pos += 1
            return Imp(left, self.imp())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.toks[self.pos] == "|":
            self.pos += 1
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.neg()
        while self.toks[self.pos] == "&":
            self.pos += 1
            f = And(f, self.neg())
        return f

    def neg(self) -> Formula:
        if self.toks[self.pos] == "~":
            self.pos += 1
            return Not(self.neg())
        return self.atom()

    def atom(self) -> Formula:
        toks, pos = self.toks, self.pos
        t = toks[pos]
        if t == "forall" or t == "exists":
            self.pos += 1
            v = self.name()
            self.expect(".")
            return (Forall if t == "forall" else Exists)(v, self.formula())
        if t == "iota":
            self.fail("a description is only legal as the argument of an abstract")
        if t == "lam":
            self.fail("an abstract must be parenthesized: (lam x. ...) arg")
        if t == "(":
            if toks[pos + 1] == "lam":
                return self.lambda_atom()
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

    def lambda_atom(self) -> LambdaAtom:
        self.pos += 2  # "(" and "lam"
        v = self.name()
        self.expect(".")
        body = self.formula()
        self.expect(")")
        return LambdaAtom(v, body, self.lambda_arg())

    def lambda_arg(self) -> Union[Term, IotaTerm]:
        t = self.toks[self.pos]
        if t == "iota":
            return self.iota()
        if t == "(" and self.toks[self.pos + 1] == "iota":
            self.pos += 1
            it = self.iota()
            self.expect(")")
            return it
        c = t[:1]
        if c == "#" or c == "$" or c.isalpha() and t not in _RESERVED:
            return self.term()
        self.fail("an abstract needs a term or description argument")

    def iota(self) -> IotaTerm:
        self.pos += 1  # "iota"
        v = self.name()
        self.expect(".")
        return IotaTerm(v, self.formula())

    # --- sequents ---

    def formula_list(self) -> tuple[Formula, ...]:
        toks = self.toks
        if toks[self.pos] in ("=>", ")", ""):
            return ()
        forms = []
        while True:
            start = self.pos
            end = self.ends[start]
            key = tuple(toks[start:end])
            f = self.memo.get(key)
            if f is None:
                f = self.formula()
                # a parse that stopped early is not the whole span's meaning
                if self.pos == end:
                    self.memo[key] = f
            else:
                self.pos = end
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
        expect, toks = self.expect, self.toks
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
        terms: list[Term] = []
        eigen: Optional[Param] = None
        at: Optional[int] = None
        while toks[self.pos][:1] == ":":
            kw_at = self.pos
            kw = toks[kw_at][1:]
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
        while toks[self.pos] == "(":
            prems.append(self.proof())
        expect(")")
        return ProofNode(
            rule, Sequent(ant, suc), tuple(prems), tuple(terms), eigen, at
        )


def _parse(text: str, rule):
    p = _Parser(text)
    out = rule(p)
    p.done()
    return out


def parse_term(text: str) -> Term:
    return _parse(text, _Parser.term)


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def parse_sequent(text: str) -> Sequent:
    return _parse(text, _Parser.sequent)


def parse_proof(text: str) -> ProofNode:
    return _parse(text, _Parser.proof)


# ---------------------------------------------------------------------------
# printers

_ASCII_STYLE = {
    "~": "~",
    "&": " & ",
    "|": " | ",
    "->": " -> ",
    "<->": " <-> ",
    "=>": "=>",
    "forall": "forall ",
    "exists": "exists ",
    "lam": "lam ",
    "iota": "iota ",
}

_UNICODE_STYLE = {
    "~": "¬",
    "&": " ∧ ",
    "|": " ∨ ",
    "->": " → ",
    "<->": " ↔ ",
    "=>": "⇒",
    "forall": "∀",
    "exists": "∃",
    "lam": "λ",
    "iota": "ι",
}

_LEVEL = {Iff: 1, Imp: 2, Or: 3, And: 4}


def format_term(t: Union[Term, IotaTerm], unicode: bool = False) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Param):
        return "#" + t.name
    if isinstance(t, Const):
        return "$" + t.name
    if isinstance(t, IotaTerm):
        sty = _UNICODE_STYLE if unicode else _ASCII_STYLE
        return f"{sty['iota']}{t.bound}. {_render(t.body, 1, True, sty)}"
    raise TypeError(f"not a term: {t!r}")


def _render(f: Formula, min_prec: int, tail: bool, sty: dict) -> str:
    if isinstance(f, PredAtom):
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(format_term(a) for a in f.args)})"
    if isinstance(f, Identity):
        return f"{format_term(f.lhs)} = {format_term(f.rhs)}"
    if isinstance(f, Not):
        return sty["~"] + _render(f.sub, 5, tail, sty)
    if isinstance(f, (And, Or, Imp, Iff)):
        lvl = _LEVEL[type(f)]
        wrap = lvl < min_prec
        inner_tail = True if wrap else tail
        if isinstance(f, (And, Or)):
            lmin, rmin = lvl, lvl + 1
        else:
            lmin, rmin = lvl + 1, lvl
        op = {And: "&", Or: "|", Imp: "->", Iff: "<->"}[type(f)]
        s = (
            _render(f.left, lmin, False, sty)
            + sty[op]
            + _render(f.right, rmin, inner_tail, sty)
        )
        return f"({s})" if wrap else s
    if isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        s = f"{sty[kw]}{f.bound}. {_render(f.body, 1, True, sty)}"
        return s if tail else f"({s})"
    if isinstance(f, LambdaAtom):
        body = _render(f.body, 1, True, sty)
        if isinstance(f.arg, IotaTerm):
            arg = f"({sty['iota']}{f.arg.bound}. {_render(f.arg.body, 1, True, sty)})"
        else:
            arg = format_term(f.arg)
        return f"({sty['lam']}{f.bound}. {body}) {arg}"
    raise TypeError(f"not a formula: {f!r}")


def format_formula(f: Formula, unicode: bool = False) -> str:
    return _render(f, 1, True, _UNICODE_STYLE if unicode else _ASCII_STYLE)


def format_sequent(s: Sequent, unicode: bool = False) -> str:
    sty = _UNICODE_STYLE if unicode else _ASCII_STYLE
    ant = ", ".join(_render(f, 1, True, sty) for f in s.ant)
    suc = ", ".join(_render(f, 1, True, sty) for f in s.suc)
    arrow = sty["=>"]
    if ant and suc:
        return f"{ant} {arrow} {suc}"
    if ant:
        return f"{ant} {arrow}"
    if suc:
        return f"{arrow} {suc}"
    return arrow


def format_proof(root: ProofNode, unicode: bool = False) -> str:
    lines: list[str] = []

    def seq_sexpr(s: Sequent) -> str:
        ant = ", ".join(format_formula(f, unicode) for f in s.ant)
        suc = ", ".join(format_formula(f, unicode) for f in s.suc)
        return f"(seq ({ant}) ({suc}))"

    def go(n: ProofNode, depth: int):
        head = f"{'  ' * depth}({n.rule} {seq_sexpr(n.conclusion)}"
        for t in n.terms:
            head += f" :term {format_term(t)}"
        if n.eigen is not None:
            head += f" :eigen {format_term(n.eigen)}"
        if n.at is not None:
            head += f" :at {n.at}"
        if not n.premises:
            lines.append(head + ")")
            return
        lines.append(head)
        for p in n.premises:
            go(p, depth + 1)
        lines[-1] += ")"

    go(root, 0)
    return "\n".join(lines) + "\n"
