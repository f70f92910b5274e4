"""Elimination of abstracts and descriptions into pure first-order logic."""

import random

import pytest
from hypothesis import given, settings

from ddproof.semantics import find_countermodel
from ddproof.surface import format_formula, parse_formula, parse_sequent
from ddproof.syntax import Iff, Not, Sequent, alpha_equal
from ddproof.translate import is_pure_fol, translate, translate_sequent

from genutil import FormulaGen, closed_formula_strategy


class TestFrozenShapes:
    def test_beta_for_parameter(self):
        f = parse_formula("(lam x. P(x)) #a")
        assert translate(f) == parse_formula("P(#a)")

    def test_beta_for_constant(self):
        f = parse_formula("(lam x. P(x)) $c")
        assert translate(f) == parse_formula("P($c)")

    def test_beta_inner_structure(self):
        f = parse_formula("(lam x. P(x) & ~Q(x)) #a")
        assert translate(f) == parse_formula("P(#a) & ~Q(#a)")

    def test_description_unfolds_to_paraphrase(self):
        f = parse_formula("(lam x. P(x)) iota y. Q(y)")
        want = parse_formula("exists x. (forall y. Q(y) <-> y = x) & P(x)")
        assert translate(f) == want

    def test_negation_scope_is_preserved(self):
        inner_neg = translate(parse_formula("(lam x. ~P(x)) iota y. Q(y)"))
        outer_neg = Not(translate(parse_formula("(lam x. P(x)) iota y. Q(y)")))
        want = parse_formula("exists x. (forall y. Q(y) <-> y = x) & ~P(x)")
        assert inner_neg == want
        assert not alpha_equal(inner_neg, outer_neg)

    def test_homomorphic_through_connectives(self):
        f = parse_formula("forall z. ((lam x. P(x)) #a) -> Q(z)")
        assert translate(f) == parse_formula("forall z. P(#a) -> Q(z)")

    def test_nested_description_in_description_body(self):
        f = parse_formula("(lam x. P(x)) iota y. (lam z. Q(z)) iota w. R(w)")
        out = translate(f)
        assert is_pure_fol(out)
        inner = parse_formula("exists z. (forall w. R(w) <-> w = z) & Q(z)")
        want = parse_formula(
            "exists x. (forall y. (exists z. (forall w. R(w) <-> w = z) & Q(z)) <-> y = x) & P(x)"
        )
        assert translate(parse_formula("(lam z. Q(z)) iota w. R(w)")) == inner
        assert out == want

    def test_capture_avoiding_beta(self):
        # the abstract's argument is the enclosing bound variable, so the
        # inner binder with the same name must be renamed
        f = parse_formula("forall y. (lam x. exists y. R(x, y)) y")
        out = translate(f)
        assert out == parse_formula("forall y. exists y1. R(y, y1)")

    @pytest.mark.parametrize(
        "text, want",
        [
            # the description's bound y is free in the abstract's body
            (
                "forall y. (lam x. R(x, y)) (iota y. Q(y))",
                "forall y. exists x. (forall v1. Q(v1) <-> v1 = x) & R(x, y)",
            ),
            # the abstract's bound x is free in the description
            (
                "forall x. (lam x. R(x, x)) (iota y. Q(y, x))",
                "forall x. exists u1. (forall y. Q(y, x) <-> y = u1) & R(u1, u1)",
            ),
        ],
    )
    def test_capture_avoiding_paraphrase(self, text, want):
        f = parse_formula(text)
        out = translate(f)
        assert format_formula(out) == want
        assert find_countermodel(Sequent((), (Iff(f, out),)), max_size=3) is None


class TestSequents:
    def test_pointwise(self):
        s = parse_sequent("(lam x. P(x)) iota y. Q(y) => exists x. P(x)")
        out = translate_sequent(s)
        assert out.ant == (
            parse_formula("exists x. (forall y. Q(y) <-> y = x) & P(x)"),
        )
        assert out.suc == s.suc

    def test_empty(self):
        assert translate_sequent(Sequent((), ())) == Sequent((), ())


class TestInvariants:
    @settings(max_examples=150, deadline=None)
    @given(closed_formula_strategy(depth=3))
    def test_output_is_pure_fol(self, f):
        assert is_pure_fol(translate(f))

    @settings(max_examples=150, deadline=None)
    @given(closed_formula_strategy(depth=3))
    def test_idempotent(self, f):
        out = translate(f)
        assert translate(out) == out

    def test_pure_fol_fixed_point(self):
        f = parse_formula("forall x. P(x) -> exists y. R(x, y)")
        assert translate(f) == f

    def test_semantic_agreement_sample(self):
        gen = FormulaGen(random.Random(20240818), max_conn=4, max_dd_depth=2)
        for _ in range(100):
            f = gen.formula()
            out = translate(f)
            assert is_pure_fol(out)
            assert find_countermodel(Sequent((f,), (out,)), max_size=2) is None
            assert find_countermodel(Sequent((out,), (f,)), max_size=2) is None
