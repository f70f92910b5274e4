"""Concrete syntax: frozen parse trees, precedence round-trips, error
positions, comments, unicode output, proof s-expressions, and the sharing
of repeated formulas within one parse."""

import concurrent.futures as cf
import importlib.util
import multiprocessing
import os
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings

from genutil import cut_chain, formula_strategy, perfbench_gen, sequent_strategy
from ddproof import surface
from ddproof.builders import build_leibniz
from ddproof.cli import fixture_proofs
from ddproof.cutelim import eliminate_cuts
from ddproof.kernel import ProofNode, check_proof, iter_nodes, proofs_equal
from ddproof.surface import (
    _SEPARATOR,
    _TOKEN,
    _scan,
    ParseError,
    format_formula,
    format_proof,
    format_sequent,
    format_term,
    parse_formula,
    parse_proof,
    parse_sequent,
    parse_term,
)
from ddproof.syntax import (
    And,
    Const,
    Exists,
    Forall,
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
    Var,
    alpha_equal,
    seq,
    sequents_alpha_equal,
)

G = PredAtom("G", ())
H = PredAtom("H", ())


def test_printers_reject_what_they_do_not_print():
    """format_term prints variables, parameters and constants; a
    description prints only as an abstract's argument, through the formula
    printer, which in turn prints no term."""
    desc = IotaTerm("y", PredAtom("Q", (Var("y"),)))
    with pytest.raises(TypeError, match=r"^not a term: IotaTerm\(bound='y', "):
        format_term(desc)
    with pytest.raises(TypeError, match=r"^not a formula: Param\(name='a'\)$"):
        format_formula(Param("a"))
    assert [format_term(t) for t in (Var("x"), Param("a"), Const("c"))] == ["x", "#a", "$c"]
    lam = LambdaAtom("x", PredAtom("P", (Var("x"),)), desc)
    assert format_formula(lam) == "(lam x. P(x)) (iota y. Q(y))"
    assert format_formula(lam, unicode=True) == "(λx. P(x)) (ιy. Q(y))"


def P(t):
    return PredAtom("P", (t,))


def Q(t):
    return PredAtom("Q", (t,))


# ---------------------------------------------------------------------------
# frozen parses


def test_parse_terms():
    assert parse_term("x") == Var("x")
    assert parse_term("#a") == Param("a")
    assert parse_term("$c") == Const("c")


def test_parse_full_example():
    f = parse_formula(
        "forall x. ~P(x) & #a = $c -> (lam y. Q(y)) (iota z. R(z, x))"
    )
    expected = Forall(
        "x",
        Imp(
            And(Not(P(Var("x"))), Identity(Param("a"), Const("c"))),
            LambdaAtom(
                "y",
                Q(Var("y")),
                IotaTerm("z", PredAtom("R", (Var("z"), Var("x")))),
            ),
        ),
    )
    assert f == expected


def test_precedence():
    assert parse_formula("G & H | G") == Or(And(G, H), G)
    assert parse_formula("G | H & G") == Or(G, And(H, G))
    assert parse_formula("~G & H") == And(Not(G), H)
    assert parse_formula("G -> H -> G") == Imp(G, Imp(H, G))
    assert parse_formula("G <-> H <-> G") == Iff(G, Iff(H, G))
    assert parse_formula("G & H & G") == And(And(G, H), G)
    assert parse_formula("G | H | G") == Or(Or(G, H), G)
    assert parse_formula("G & H -> G | H <-> G") == Iff(
        Imp(And(G, H), Or(G, H)), G
    )


def test_identity_tighter_than_negation():
    assert parse_formula("~#a = #b") == Not(Identity(Param("a"), Param("b")))


def test_binder_scope_maximal():
    f = parse_formula("G & forall x. P(x) & Q(x)")
    assert f == And(G, Forall("x", And(P(Var("x")), Q(Var("x")))))
    g = parse_formula("(forall x. P(x)) & G")
    assert g == And(Forall("x", P(Var("x"))), G)


def test_bare_ident_is_nullary_pred():
    assert parse_formula("rain") == PredAtom("rain", ())
    assert parse_formula("x = y") == Identity(Var("x"), Var("y"))


def test_lambda_argument_forms():
    lam = LambdaAtom("x", P(Var("x")), Param("a"))
    assert parse_formula("(lam x. P(x)) #a") == lam
    dd = LambdaAtom("x", P(Var("x")), IotaTerm("y", Q(Var("y"))))
    assert parse_formula("(lam x. P(x)) (iota y. Q(y))") == dd
    assert parse_formula("(lam x. P(x)) iota y. Q(y)") == dd
    under = parse_formula("forall y. (lam x. P(x)) y")
    assert under == Forall("y", LambdaAtom("x", P(Var("x")), Var("y")))


def test_parse_sequents():
    s = parse_sequent("P(#a), Q(#a) => G")
    assert s == seq([P(Param("a")), Q(Param("a"))], [G])
    assert parse_sequent("=>") == Sequent((), ())
    assert parse_sequent("=> G") == Sequent((), (G,))
    assert parse_sequent("G =>") == Sequent((G,), ())


def test_long_negation_chain_parses_in_a_loop():
    # counted in a loop: `==` or `repr` on the chain would itself recurse
    f = parse_formula("~" * 100_000 + "P")
    depth = 0
    while type(f) is Not:
        f, depth = f.sub, depth + 1
    assert (depth, f) == (100_000, PredAtom("P", ()))


def test_comments():
    s = parse_sequent("P(#a) # a trailing comment\n => Q(#a)")
    assert s == seq([P(Param("a"))], [Q(Param("a"))])


def test_parse_errors():
    with pytest.raises(ParseError, match="argument of an abstract"):
        parse_formula("iota x. P(x)")
    with pytest.raises(ParseError, match="parenthesized"):
        parse_formula("lam x. P(x)")
    with pytest.raises(ParseError):
        parse_formula("(lam x. P(x))")
    with pytest.raises(ParseError, match="expected"):
        parse_formula("P(#a")
    with pytest.raises(ParseError):
        parse_formula("#a =")
    with pytest.raises(ParseError):
        parse_formula("forall forall. G")
    with pytest.raises(ParseError, match="constant name"):
        parse_formula("$3 = $4")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_formula("P(@)")
    with pytest.raises(ParseError, match="after a complete"):
        parse_formula("G G")


def test_scanner_pattern_compiles_before_python_311():
    # possessive quantifiers and atomic groups are new in Python 3.11, and
    # the package supports 3.10
    for pattern in (_TOKEN.pattern, _SEPARATOR.pattern):
        assert not re.search(r"(?<!\\)[*+?}]\+|\(\?>", pattern), pattern


def _findall(text):
    """The reference: one scan of the whole text, glyphs mapped to ASCII,
    ending in one ""."""
    toks = _TOKEN.findall(text)
    if len(toks) > 1 and not toks[-2]:
        toks.pop()
    return [surface._GLYPHS.get(t, t) for t in toks]


# inserted into printed proofs: comments that hold separators, line ends,
# tabs, a parameter name, and stray characters right after a separator
SCAN_INSERTS = ("# a, b) (c", "#(seq (", "#, ", "#", "# x\n", "\r\n", "\t", "#x",
                ", @", ") ($", "(seq (:", "\n  @")


def test_scan_equals_one_whole_text_findall(monkeypatch):
    """Scanning each distinct piece between separators once gives the tokens
    of one scan of the whole text, scanner errors included."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "output_gates.py")
    spec = importlib.util.spec_from_file_location("output_gates", path)
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    monkeypatch.setitem(sys.modules, "gen", perfbench_gen)
    rng = random.Random(41)
    proofs = [p for _, p in fixture_proofs()]
    proofs += [build_leibniz(phi, "x", Param("b1"), Param("b2"))
               for phi in perfbench_gen.desk_formulas(rng, 60)]
    printed = [format_proof(p, unicode=u) for p in proofs for u in (False, True)]
    texts = printed + [text for _, text in gates._parse_corpus()]
    for text in printed:
        for _ in range(5):
            i = rng.randrange(len(text) + 1)
            texts.append(text[:i] + rng.choice(SCAN_INSERTS) + text[i:])
    texts += ["", "   ", "P(#a) # at the end", "P(#a) #", "P(#a), @", "G) (@", "(seq ($c"]
    wrong = [text for text in texts if _scan(text) != _findall(text)]
    assert not wrong, wrong[:3]


def test_a_printed_proof_is_scanned_by_its_distinct_pieces(monkeypatch):
    """A work pin: the characters handed to the scanner's `findall` while
    parsing the printed cut-free n = 5 cut chain. One whole-text scan hands
    it all 1,376,650; each distinct piece between separators is 1,400."""
    text = format_proof(eliminate_cuts(cut_chain(5)))
    scanned = []

    class Counting:
        def findall(self, text):
            scanned.append(len(text))
            return _TOKEN.findall(text)

    monkeypatch.setattr(surface, "_TOKEN", Counting())
    parse_proof(text)
    assert (len(text), sum(scanned)) == (1_376_650, 1_400)


def test_glyphs_are_mapped_once_per_distinct_piece(monkeypatch):
    """A work pin: the glyph-map lookups while parsing the cut-free n = 5
    cut chain printed with glyphs. Mapping every token of the text made
    236,867; mapping the tokens of each distinct piece makes 57."""
    text = format_proof(eliminate_cuts(cut_chain(5)), unicode=True)
    lookups = 0

    class Counting(dict):
        def get(self, *args):
            nonlocal lookups
            lookups += 1
            return super().get(*args)

    monkeypatch.setattr(surface, "_GLYPHS", Counting(surface._GLYPHS))
    parse_proof(text)
    assert lookups == 57


def test_parse_error_position():
    try:
        parse_formula("G &\n  & H")
    except ParseError as e:
        assert e.line == 2
        assert e.col == 3
    else:
        raise AssertionError("expected a parse error")


# Every ParseError site, as (parser, input, message, line, column). Frozen:
# the CLI prints these, so a change to any message or position shows here.
# Scanner errors ('$', ':', stray characters) win over a parse error earlier
# in the text; a comment does not advance the column, so the end of a text
# that ends in one is placed at its `#`; a glyph and a \r are one column.
PARSE_ERRORS = [
    ('formula', '$', "'$' must be followed by a constant name", 1, 1),
    ('formula', '$3 = $4', "'$' must be followed by a constant name", 1, 1),
    ('formula', 'P($ c)', "'$' must be followed by a constant name", 1, 3),
    ('proof', '(ax (seq (G) (G)) :)', "':' must be followed by an annotation name", 1, 19),
    ('proof', '(ax (seq (G) (G)) : term $c)', "':' must be followed by an annotation name", 1, 19),
    ('formula', 'P(@)', "unexpected character '@'", 1, 3),
    ('formula', 'G \x0b H', "unexpected character '\\x0b'", 1, 3),
    ('formula', 'G\xa0& H', "unexpected character '\\xa0'", 1, 2),
    ('formula', 'G - H', "unexpected character '-'", 1, 3),
    ('formula', 'G <= H', "unexpected character '<'", 1, 3),
    ('formula', 'G <-H', "unexpected character '<'", 1, 3),
    ('formula', 'P(_x)', "unexpected character '_'", 1, 3),
    ('formula', 'P(xé)', "unexpected character 'é'", 1, 4),
    ('formula', '∀x. ¬P(x) ∧ @', "unexpected character '@'", 1, 13),
    ('formula', '∀x. ¬P(x) ∧ ∧ G', 'expected a formula', 1, 13),
    ('formula', '(λx. P(x)) ιy. Q(y) →', 'expected a formula', 1, 22),
    ('sequent', '¬G ⇒ G,', 'expected a formula', 1, 8),
    ('formula', 'G &\n  & H', 'expected a formula', 2, 3),
    ('formula', 'G\r& &', 'expected a formula', 1, 5),
    ('proof', '(ax (seq (G) (G))\n  :frob 3)', 'unknown annotation :frob', 2, 3),
    ('proof', '(ax\n  (seq (G) (G))\n  :eigen #a :eigen #b)', 'duplicate :eigen', 3, 13),
    ('formula', 'G & # a comment\n  )', 'expected a formula', 2, 3),
    ('sequent', 'P(#a) # note\n => & H', 'expected a formula', 2, 5),
    ('formula', '~ # c', 'expected a formula', 1, 3),
    ('formula', 'G & # trailing', 'expected a formula', 1, 5),
    ('formula', 'G &\n  # c\n', 'expected a formula', 3, 1),
    ('formula', 'G & #1 H', 'expected a formula', 1, 5),
    ('formula', 'G &   ', 'expected a formula', 1, 7),
    ('proof', '(ax (seq (G) (G)) :eigen #a :eigen #b)', 'duplicate :eigen', 1, 29),
    ('proof', '(ax (seq (G) (G)) :at 0 :at 1)', 'duplicate :at', 1, 25),
    ('proof', '(ax (seq (G) (G)) :frob 3)', 'unknown annotation :frob', 1, 19),
    ('proof', '(ax (seq (G) (G)) :eigen $c)', "expected 'param', got 'c'", 1, 26),
    ('proof', '(ax (seq (G) (G)) :at x)', "expected 'number', got 'x'", 1, 23),
    ('proof', '(ax (seq (G) (G)) :term G(x))', "expected '(', got ')'", 1, 28),
    ('proof', '(forall (seq (G) (G)))', "expected 'ident', got 'forall'", 1, 2),
    ('proof', '(ax (sequent (G) (G)))', "expected 'seq', got 'sequent'", 1, 6),
    ('proof', '(ax (seq (G) (G))', "expected ')', got 'eof'", 1, 18),
    ('proof', '(ax (seq (G, ) (G)))', 'expected a formula', 1, 14),
    ('proof', '(ax (seq (G G) (G)))', "expected ')', got 'G'", 1, 13),
    ('formula', 'P(#a', "expected ')', got 'eof'", 1, 5),
    ('formula', '#a =', 'expected a term', 1, 5),
    ('formula', '', 'expected a formula', 1, 1),
    ('formula', 'forall forall. G', "expected 'ident', got 'forall'", 1, 8),
    ('formula', 'forall x P(x)', "expected '.', got 'P'", 1, 10),
    ('formula', 'P(#a #b)', "expected ')', got 'b'", 1, 6),
    ('formula', 'G G', "unexpected 'G' after a complete input", 1, 3),
    ('formula', 'P(#a) )', "unexpected ')' after a complete input", 1, 7),
    ('formula', 'G :foo', "unexpected 'foo' after a complete input", 1, 3),
    ('formula', 'G $c', "unexpected 'c' after a complete input", 1, 3),
    ('term', 'P(x)', "unexpected '(' after a complete input", 1, 2),
    ('term', 'forall', 'expected a term', 1, 1),
    ('sequent', 'G', "expected '=>', got 'eof'", 1, 2),
    ('sequent', 'G => H => G', "unexpected '=>' after a complete input", 1, 8),
    ('formula', 'iota x. P(x)', 'a description is only legal as the argument of an abstract', 1, 1),
    ('formula', 'lam x. P(x)', 'an abstract must be parenthesized: (lam x. ...) arg', 1, 1),
    ('formula', '(lam x. P(x))', 'an abstract needs a term or description argument', 1, 14),
    ('formula', '(lam x. P(x)) forall', 'an abstract needs a term or description argument', 1, 15),
    ('formula', '(lam x. P(x)) (iota y. Q(y)', "expected ')', got 'eof'", 1, 28),
    ('formula', '(lam x P(x)) #a', "expected '.', got 'P'", 1, 8),
    ('formula', '~~~', 'expected a formula', 1, 4),
    ('formula', 'G G $', "'$' must be followed by a constant name", 1, 5),
    ('formula', 'P(( @', "unexpected character '@'", 1, 5),
    ('proof', '(ax (seq (G) (G)) :frob 3) :', "':' must be followed by an annotation name", 1, 28),
    ('sequent', 'G => ) \x0b', "unexpected character '\\x0b'", 1, 8),
]

_PARSERS = {
    "term": parse_term,
    "formula": parse_formula,
    "sequent": parse_sequent,
    "proof": parse_proof,
}


def test_parse_error_table():
    wrong = []
    for kind, text, msg, line, col in PARSE_ERRORS:
        try:
            _PARSERS[kind](text)
        except ParseError as e:
            got = (e.msg, e.line, e.col)
        else:
            got = "accepted"
        if got != (msg, line, col):
            wrong.append((kind, text, got))
    assert not wrong


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="int() takes any number of digits on this interpreter",
)
def test_overlong_at_number_is_a_parse_error():
    """An `:at` number past the interpreter's digit limit for int() is a
    ParseError at the number, not a ValueError; one at the limit parses."""
    limit = sys.get_int_max_str_digits()
    text = "(ax (seq (G) (G))\n  :at " + "9" * (limit + 1) + ")"
    with pytest.raises(ParseError) as e:
        parse_proof(text)
    assert (e.value.msg, e.value.line, e.value.col) == ("number too long", 2, 7)
    assert parse_proof("(ax (seq (G) (G)) :at " + "9" * limit + ")").at == 10**limit - 1


# ---------------------------------------------------------------------------
# printing


def test_format_precedence_frozen():
    assert format_formula(And(Or(G, H), G)) == "(G | H) & G"
    assert format_formula(Or(G, And(H, G))) == "G | H & G"
    assert format_formula(Imp(Imp(G, H), G)) == "(G -> H) -> G"
    assert format_formula(Imp(G, Imp(H, G))) == "G -> H -> G"
    assert format_formula(Not(And(G, H))) == "~(G & H)"
    assert format_formula(And(Not(G), H)) == "~G & H"
    assert format_formula(And(And(G, H), G)) == "G & H & G"
    assert format_formula(And(G, And(H, G))) == "G & (H & G)"
    assert format_formula(Iff(Iff(G, H), G)) == "(G <-> H) <-> G"


def test_format_binders_frozen():
    fx = Forall("x", P(Var("x")))
    assert format_formula(fx) == "forall x. P(x)"
    assert format_formula(And(fx, G)) == "(forall x. P(x)) & G"
    assert format_formula(And(G, fx)) == "G & forall x. P(x)"
    assert format_formula(Not(fx)) == "~forall x. P(x)"
    assert format_formula(And(Not(fx), G)) == "~(forall x. P(x)) & G"
    dd = LambdaAtom("x", P(Var("x")), IotaTerm("y", Q(Var("y"))))
    assert format_formula(dd) == "(lam x. P(x)) (iota y. Q(y))"
    assert format_formula(Imp(dd, G)) == "(lam x. P(x)) (iota y. Q(y)) -> G"


def test_format_sequent_frozen():
    s = seq([P(Param("a"))], [G, H])
    assert format_sequent(s) == "P(#a) => G, H"
    assert format_sequent(Sequent((), ())) == "=>"
    assert format_sequent(Sequent((), (G,))) == "=> G"


def test_format_unicode():
    f = parse_formula("forall x. ~P(x) & #a = $c -> (lam y. Q(y)) (iota z. R(z, x))")
    pretty = format_formula(f, unicode=True)
    assert pretty == "∀x. ¬P(x) ∧ #a = $c → (λy. Q(y)) (ιz. R(z, x))"
    assert parse_formula(pretty) == f
    s = seq([G], [H])
    assert format_sequent(s, unicode=True) == "G ⇒ H"
    assert parse_sequent("G ⇒ H") == s


@given(formula_strategy())
@settings(max_examples=250, deadline=None)
def test_formula_roundtrip(f):
    assert alpha_equal(parse_formula(format_formula(f)), f)


@given(formula_strategy())
@settings(max_examples=100, deadline=None)
def test_formula_roundtrip_unicode(f):
    assert alpha_equal(parse_formula(format_formula(f, unicode=True)), f)


@given(sequent_strategy())
@settings(max_examples=100, deadline=None)
def test_sequent_roundtrip(s):
    assert sequents_alpha_equal(parse_sequent(format_sequent(s)), s)


# ---------------------------------------------------------------------------
# proof s-expressions


def exists_roundtrip_proof():
    a = Param("a")
    f = Exists("x", P(Var("x")))
    inner = ProofNode(
        "existsr", seq([P(a)], [f]), (ProofNode("ax", seq([P(a)], [P(a)])),), (a,)
    )
    return ProofNode("existsl", seq([f], [f]), (inner,), eigen=a)


def test_format_proof_frozen():
    text = format_proof(exists_roundtrip_proof())
    assert text == (
        "(existsl (seq (exists x. P(x)) (exists x. P(x))) :eigen #a\n"
        "  (existsr (seq (P(#a)) (exists x. P(x))) :term #a\n"
        "    (ax (seq (P(#a)) (P(#a))))))\n"
    )


def test_parse_proof_roundtrip():
    proof = exists_roundtrip_proof()
    text = format_proof(proof)
    back = parse_proof(text)
    assert proofs_equal(back, proof)
    check_proof(back)


def test_parse_proof_annotations():
    text = """
    (foralll (seq (forall x. P(x)) (P($c))) :term $c :at 0
      (ax (seq (P($c)) (P($c)))))
    """
    node = parse_proof(text)
    assert node.terms == (Const("c"),)
    assert node.at == 0
    check_proof(node)


def test_at_annotation_round_trips():
    """format_proof writes each node's :at on the node's line, and
    parse_proof reads it back."""
    a = Param("a")
    both = And(P(a), Q(a))
    text = (
        "(impr (seq () (P(#a) & Q(#a) -> P(#a))) :at 0\n"
        "  (andl (seq (P(#a) & Q(#a)) (P(#a))) :at 0\n"
        "    (wl (seq (Q(#a), P(#a)) (P(#a)))\n"
        "      (ax (seq (P(#a)) (P(#a)))))))\n"
    )
    ax = ProofNode("ax", seq([P(a)], [P(a)]))
    wl = ProofNode("wl", seq([Q(a), P(a)], [P(a)]), (ax,))
    andl = ProofNode("andl", seq([both], [P(a)]), (wl,), at=0)
    proof = ProofNode("impr", seq([], [Imp(both, P(a))]), (andl,), at=0)
    check_proof(proof)
    assert format_proof(proof) == text
    back = parse_proof(text)
    assert [n.at for _, n in iter_nodes(back)] == [0, 0, None, None]
    assert proofs_equal(back, proof)
    assert format_proof(back) == text


def test_parse_proof_two_terms_ordered():
    text = (
        "(iota2l (seq ((lam x. P(x)) (iota y. Q(y))) (G)) :term #b :term #c\n"
        "  (ax (seq () (G, Q(#b))))\n"
        "  (ax (seq () (G, Q(#c))))\n"
        "  (ax (seq (#b = #c) (G))))"
    )
    node = parse_proof(text)
    assert node.terms == (Param("b"), Param("c"))
    assert len(node.premises) == 3


def test_parse_proof_errors():
    with pytest.raises(ParseError, match="duplicate :eigen"):
        parse_proof("(ax (seq (G) (G)) :eigen #a :eigen #b)")
    with pytest.raises(ParseError, match="unknown annotation"):
        parse_proof("(ax (seq (G) (G)) :frob 3)")


def test_proof_roundtrip_unicode():
    proof = exists_roundtrip_proof()
    text = format_proof(proof, unicode=True)
    assert proofs_equal(parse_proof(text), proof)


def test_readme_proof_example_checks_and_round_trips():
    """README's `.rlp` example is a proof the kernel accepts, written as
    `format_proof` prints it."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"`\.rlp` files hold a single proof.*?```\n(.*?)```", text, re.S).group(1)
    proof = parse_proof(block)
    assert check_proof(proof).height == 3
    assert format_proof(proof) == block


# ---------------------------------------------------------------------------
# one parse shares repeated formulas


def _formulas(root):
    return [f for _, n in iter_nodes(root) for f in n.conclusion.ant + n.conclusion.suc]


def _leibniz():
    phi = parse_formula("forall z. (lam w. R(w, x) & P(z)) (iota v. R(v, z))")
    return build_leibniz(phi, "x", Param("b1"), Param("b2"))


def test_parsed_proof_shares_equal_formula_texts():
    proof = _leibniz()
    back = parse_proof(format_proof(proof))
    assert proofs_equal(back, proof)
    first = {}
    for f in _formulas(back):
        assert first.setdefault(format_formula(f), f) is f
    assert len(_formulas(back)) > 2 * len(first)
    check_proof(back)


def test_sharing_keys_on_text_not_alpha_class():
    text = "forall x. P(x), forall y. P(y), forall x. P(x) => forall y. P(y)"
    s = parse_sequent(text)
    a, b, c = s.ant
    assert alpha_equal(a, b) and a is not b
    assert a is c and s.suc[0] is b
    assert format_sequent(s) == text
    proof_text = (
        "(wl (seq (forall y. P(y), forall x. P(x)) (forall x. P(x)))\n"
        "  (ax (seq (forall x. P(x)) (forall x. P(x)))))\n"
    )
    proof = parse_proof(proof_text)
    check_proof(proof)
    assert format_proof(proof) == proof_text
    y_form, x_form = proof.conclusion.ant
    assert x_form is proof.conclusion.suc[0] is proof.premises[0].conclusion.ant[0]
    assert y_form is not x_form


def test_separate_parses_share_nothing():
    text = format_proof(_leibniz())
    one, two = parse_proof(text), parse_proof(text)
    assert proofs_equal(one, two)
    assert not {id(f) for f in _formulas(one)} & {id(f) for f in _formulas(two)}


def _check_in_child(data: bytes):
    """Run in a spawned interpreter: check an unpickled parsed proof."""
    proof = pickle.loads(data)
    check_proof(proof)
    return format_proof(proof), len({id(f) for f in _formulas(proof)})


def test_shared_formulas_pickle_and_check_in_a_child(monkeypatch):
    text = format_proof(_leibniz())
    proof = parse_proof(text)
    check_proof(proof)  # stores hashes and keys on the shared formulas
    distinct = len({id(f) for f in _formulas(proof)})
    seed = "54321" if os.environ.get("PYTHONHASHSEED") == "12345" else "12345"
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    ctx = multiprocessing.get_context("spawn")
    with cf.ProcessPoolExecutor(max_workers=1, mp_context=ctx) as ex:
        shown, distinct_there = ex.submit(
            _check_in_child, pickle.dumps(proof)
        ).result(timeout=120)
    assert shown == text
    assert distinct_there == distinct
