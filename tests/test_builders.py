"""Tests for the mechanized proof constructions.

Every construction is validated the same way: feed the result to
kernel.check_proof and then pin down the facts that matter (conclusion,
size, cut count).  Sizes and heights asserted here were measured from
the implementation once and frozen to catch regressions.
"""

import pytest
from hypothesis import given, settings, strategies as st

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
    free_vars,
    seq,
    sequents_alpha_equal,
    substitute,
)
from ddproof.kernel import ProofNode, CheckError, check_proof, cut_nodes, proof_size
from ddproof.builders import (
    ax,
    build_leibniz,
    build_rlambda_left,
    build_rlambda_right,
    build_sym_trans,
    contract_to,
    derived_iota1l,
    derived_iota2l,
    derived_iotar,
    fit_to,
    flip_identity,
    mk_cut,
    paraphrase,
    weaken_to,
)
from ddproof.semantics import find_countermodel
from ddproof.surface import format_sequent, parse_formula, parse_sequent

from genutil import FormulaGen


def P(t):
    return PredAtom("P", (t,))


def Q(t):
    return PredAtom("Q", (t,))


a = Param("a")
b = Param("b")
b1 = Param("b1")
b2 = Param("b2")
c = Param("c")
x = Var("x")
y = Var("y")


# ---------------------------------------------------------------------------
# structural helpers


class TestWeakenContract:
    def test_weaken_to_adds_both_sides(self):
        p = weaken_to(ax(P(a)), seq([P(a), Q(b)], [Q(a), P(a)]))
        info = check_proof(p)
        assert p.conclusion == seq([P(a), Q(b)], [Q(a), P(a)])
        assert info.height == 3

    def test_weaken_to_no_op_returns_same_node(self):
        base = ax(P(a))
        assert weaken_to(base, base.conclusion) is base

    def test_weaken_to_reorder_only(self):
        base = weaken_to(ax(P(a)), seq([P(a), Q(b)], [P(a)]))
        p = weaken_to(base, seq([Q(b), P(a)], [P(a)]))
        check_proof(p)
        assert p.conclusion.ant == (Q(b), P(a))

    def test_weaken_to_rejects_missing_formula(self):
        with pytest.raises(ValueError):
            weaken_to(ax(P(a)), seq([Q(a)], [P(a)]))

    def test_contract_to_merges_duplicates(self):
        base = weaken_to(ax(P(a)), seq([P(a), P(a), Q(b), Q(b)], [P(a)]))
        p = contract_to(base, seq([P(a), Q(b)], [P(a)]))
        check_proof(p)
        assert p.conclusion == seq([P(a), Q(b)], [P(a)])

    def test_contract_to_rejects_dropping_a_formula(self):
        drop = r"^cannot contract PredAtom\(pred='P', .* away entirely$"
        with pytest.raises(ValueError, match=drop):
            contract_to(ax(P(a)), seq([], [P(a)]))

    def test_fit_to_contracts_then_weakens(self):
        base = weaken_to(ax(P(a)), seq([P(a), P(a)], [P(a)]))
        p = fit_to(base, seq([P(a), Q(b)], [P(a), Q(a)]))
        check_proof(p)
        assert p.conclusion == seq([P(a), Q(b)], [P(a), Q(a)])

    def test_mk_cut_combines_contexts(self):
        p1 = weaken_to(ax(P(a)), seq([P(a), Q(b)], [P(a)]))
        p2 = weaken_to(ax(P(a)), seq([P(a), Q(a)], [P(a)]))
        p = mk_cut(p1, p2, P(a))
        info = check_proof(p)
        assert sequents_alpha_equal(p.conclusion, seq([P(a), Q(b), Q(a)], [P(a)]))
        assert info.cut_degrees == (0,)


class TestFlipIdentity:
    def test_flip_swaps_equation(self):
        g = weaken_to(ax(P(a)), seq([Identity(b, a), P(a)], [P(a)]))
        p = flip_identity(g, Identity(b, a))
        check_proof(p)
        assert p.conclusion == seq([Identity(a, b), P(a)], [P(a)])
        assert proof_size(p) == proof_size(g) + 2

    def test_flip_keeps_position(self):
        g = weaken_to(ax(P(a)), seq([P(a), Identity(b, c), Q(a)], [P(a)]))
        p = flip_identity(g, Identity(b, c))
        check_proof(p)
        assert p.conclusion.ant == (P(a), Identity(c, b), Q(a))

    def test_flip_reflexive_is_identity(self):
        g = weaken_to(ax(P(a)), seq([Identity(a, a), P(a)], [P(a)]))
        assert flip_identity(g, Identity(a, a)) is g

    def test_flip_missing_equation_rejected(self):
        with pytest.raises(ValueError):
            flip_identity(ax(P(a)), Identity(a, b))


class TestSymTrans:
    def test_shape_and_size(self):
        p = build_sym_trans(b1, b2, b)
        info = check_proof(p)
        assert p.conclusion == seq(
            [Identity(b1, b), Identity(b2, b)], [Identity(b1, b2)]
        )
        assert proof_size(p) == 4
        assert info.height == 4
        assert info.cut_degrees == ()

    def test_degenerate_equal_params(self):
        for u, v, w in [(b, b, b), (b1, b1, b), (b1, b, b), (b, b2, b)]:
            p = build_sym_trans(u, v, w)
            check_proof(p)
            assert proof_size(p) == 4

    def test_constants_allowed(self):
        k = Const("c")
        p = build_sym_trans(b1, k, b)
        check_proof(p)
        assert p.conclusion.suc == (Identity(b1, k),)


# ---------------------------------------------------------------------------
# replacement proofs


LEIBNIZ_CASES = [
    ("Q(x)", 2),
    ("~Q(x)", 6),
    ("Q(x) & P(x)", 9),
    ("Q(x) | P(x)", 9),
    ("Q(x) -> P(x)", 10),
    ("Q(x) <-> P(x)", 23),
    ("forall z. R(z, x)", 4),
    ("exists z. R(z, x)", 4),
    ("(lam w. R(w, x)) $c", 4),
    ("(lam w. R(w, x)) x", 4),
    ("(lam w. P(w)) (iota z. R(z, x))", 29),
    ("(lam w. R(w, x)) (iota z. R(z, x))", 29),
    ("x = $c", 2),
    ("forall z. (lam w. R(w, x) & P(z)) (iota v. R(v, z))", 38),
]


class TestLeibniz:
    @pytest.mark.parametrize("text,size", LEIBNIZ_CASES)
    def test_frozen_cases(self, text, size):
        phi = parse_formula(text)
        proof = build_leibniz(phi, "x", b1, b2)
        info = check_proof(proof)
        assert info.cut_degrees == ()
        assert proof_size(proof) == size
        # conclusion: b1 = b2, phi[x/b1] => phi[x/b2]
        assert proof.conclusion == Sequent(
            (Identity(b1, b2), substitute(phi, "x", b1)),
            (substitute(phi, "x", b2),),
        )

    def test_same_params_shortcut(self):
        phi = parse_formula("Q(x) & P(x)")
        proof = build_leibniz(phi, "x", b1, b1)
        check_proof(proof)
        assert proof_size(proof) == 2

    def test_variable_not_free_shortcut(self):
        phi = parse_formula("Q($c)")
        proof = build_leibniz(phi, "x", b1, b2)
        check_proof(proof)
        assert proof_size(proof) == 2

    def test_shadowed_abstract_variable(self):
        phi = parse_formula("(lam x. P(x)) (iota z. R(z, x))")
        proof = build_leibniz(phi, "x", b1, b2)
        info = check_proof(proof)
        assert info.cut_degrees == ()

    def test_shadowed_description_variable(self):
        phi = parse_formula("(lam w. R(w, x)) (iota x. Q(x))")
        proof = build_leibniz(phi, "x", b1, b2)
        info = check_proof(proof)
        assert info.cut_degrees == ()

    def test_conclusion_is_valid_semantically(self):
        phi = parse_formula("(lam w. P(w)) (iota z. R(z, x))")
        proof = build_leibniz(phi, "x", b1, b2)
        assert find_countermodel(proof.conclusion, max_size=2) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_formulas(self, seed_val):
        import random

        gen = FormulaGen(
            random.Random(seed_val),
            preds=(("P", 1), ("Q", 1)),
            params=("b",),
            consts=("c",),
            max_conn=6,
        )
        phi = gen.formula(scope=("x",))
        proof = build_leibniz(phi, "x", b1, b2)
        info = check_proof(proof)
        assert info.cut_degrees == ()
        assert proof.conclusion == Sequent(
            (Identity(b1, b2), substitute(phi, "x", b1)),
            (substitute(phi, "x", b2),),
        )

    def test_rejects_a_description(self):
        """A description is a term: it has no Leibniz proof of its own, only
        as the argument of an abstract."""
        with pytest.raises(TypeError, match=r"^not a formula: IotaTerm\(bound='y', "):
            build_leibniz(IotaTerm("y", P(x)), "x", b1, b2)

    @pytest.mark.parametrize("phi, shown", [(Param("a"), "Param(name='a')"), ("junk", "'junk'")])
    def test_rejects_a_non_formula_first(self, phi, shown):
        """A term or a string is turned away by the first line, before a
        substitution or a name gather reads it."""
        with pytest.raises(TypeError) as e:
            build_leibniz(phi, "x", b1, b2)
        assert str(e.value) == f"not a formula: {shown}"


# ---------------------------------------------------------------------------
# description/quantifier bridge


class TestParaphrase:
    def test_frozen_shape(self):
        dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
        ex = paraphrase(dd)
        assert format_sequent(Sequent((), (ex,))) == (
            "=> exists x. (forall y. Q(y) <-> y = x) & P(x)"
        )

    def test_capture_uses_fresh_names(self):
        lam_x = LambdaAtom("x", PredAtom("R", (Var("x"), Var("y"))), IotaTerm("z", Q(Var("z"))))
        ex = paraphrase(lam_x)
        # free y in the abstract body forces the uniqueness quantifier off "y"
        assert isinstance(ex, Exists)
        uni = ex.body.left
        assert isinstance(uni, Forall)
        assert uni.bound != "y"
        assert "y" in free_vars(ex)

    def test_rejects_an_argument_that_is_no_description(self):
        with pytest.raises(ValueError, match="^paraphrase needs a description argument$"):
            paraphrase(LambdaAtom("x", P(x), a))


class TestRussellBridge:
    def test_left_direction(self):
        dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
        ex = paraphrase(dd)
        proof = build_rlambda_left(dd)
        info = check_proof(proof)
        assert proof.conclusion == Sequent((dd,), (ex,))
        assert info.cut_degrees == ()
        assert info.height == 12
        assert proof_size(proof) == 25
        assert proof.rule == "cl"

    def test_right_direction(self):
        dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
        ex = paraphrase(dd)
        proof = build_rlambda_right(dd)
        info = check_proof(proof)
        assert proof.conclusion == Sequent((ex,), (dd,))
        assert info.cut_degrees == ()
        assert info.height == 10
        assert proof_size(proof) == 25
        assert proof.rule == "existsl"
        assert proof.premises[0].rule == "andl"
        assert proof.premises[0].premises[0].rule == "iotar"

    def test_two_place_bodies(self):
        dd = parse_formula("(lam x. R(x, $c)) (iota y. R($c, y))")
        for builder in (build_rlambda_left, build_rlambda_right):
            proof = builder(dd)
            info = check_proof(proof)
            assert info.cut_degrees == ()

    def test_description_mentioning_params(self):
        dd = parse_formula("(lam x. P(x) & Q(#b)) (iota y. R(y, #b))")
        for builder in (build_rlambda_left, build_rlambda_right):
            proof = builder(dd)
            check_proof(proof)

    def test_round_trip_is_semantically_tight(self):
        dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
        ex = paraphrase(dd)
        assert find_countermodel(Sequent((dd,), (ex,)), max_size=2) is None
        assert find_countermodel(Sequent((ex,), (dd,)), max_size=2) is None


# ---------------------------------------------------------------------------
# derived description rules


class TestDerivedIota1:
    def build(self):
        dd = parse_formula("(lam x. ~Q(x)) (iota y. Q(y))")
        prem = ProofNode("negl", Sequent((Q(a), Not(Q(a))), ()), (ax(Q(a)),))
        return derived_iota1l(prem, dd, a), dd

    def test_conclusion_matches_primitive_rule(self):
        proof, dd = self.build()
        info = check_proof(proof)
        assert proof.conclusion == Sequent((dd,), ())
        assert len(cut_nodes(proof)) == 1
        # the primitive rule derives the same end sequent from the same premise
        prem = proof and ProofNode("negl", Sequent((Q(a), Not(Q(a))), ()), (ax(Q(a)),))
        direct = ProofNode("iota1l", Sequent((dd,), ()), (prem,), eigen=a)
        check_proof(direct)
        assert sequents_alpha_equal(direct.conclusion, proof.conclusion)

    def test_eigen_condition_still_enforced(self):
        dd = parse_formula("(lam x. ~Q(x)) (iota y. Q(y))")
        prem = ProofNode("negl", Sequent((Q(a), Not(Q(a))), ()), (ax(Q(a)),))
        bad = Sequent((dd, P(a)), ())
        with pytest.raises(ValueError):
            derived_iota1l(weaken_to(prem, Sequent((Q(a), Not(Q(a)), P(a)), ())), dd, a)


class TestDerivedIota2:
    def build(self):
        dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
        gamma = (Q(b1), Q(b2))
        p1 = weaken_to(ax(Q(b1)), Sequent(gamma, (Identity(b1, b2), Q(b1))))
        p2 = weaken_to(ax(Q(b2)), Sequent(gamma, (Identity(b1, b2), Q(b2))))
        p3 = weaken_to(
            ax(Identity(b1, b2)),
            Sequent((Identity(b1, b2),) + gamma, (Identity(b1, b2),)),
        )
        return derived_iota2l(p1, p2, p3, dd, b1, b2), dd, gamma, (p1, p2, p3)

    def test_conclusion_matches_primitive_rule(self):
        proof, dd, gamma, prems = self.build()
        check_proof(proof)
        assert sequents_alpha_equal(
            proof.conclusion, Sequent((dd,) + gamma, (Identity(b1, b2),))
        )
        assert len(cut_nodes(proof)) == 1
        direct = ProofNode(
            "iota2l",
            Sequent((dd,) + gamma, (Identity(b1, b2),)),
            prems,
            terms=(b1, b2),
        )
        check_proof(direct)
        assert sequents_alpha_equal(direct.conclusion, proof.conclusion)


class TestDerivedIotaR:
    def build(self):
        dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
        uniq = parse_formula("forall z. Q(z) -> z = #b")
        gamma = (Q(b), P(b), uniq)
        p1 = weaken_to(ax(Q(b)), Sequent(gamma, (Q(b),)))
        p2 = weaken_to(ax(P(b)), Sequent(gamma, (P(b),)))
        imp = parse_formula("Q(#a) -> #a = #b")
        imp_l = weaken_to(ax(Q(a)), Sequent((Q(a), Q(b), P(b)), (Identity(a, b), Q(a))))
        imp_r = weaken_to(
            ax(Identity(a, b)),
            Sequent((Identity(a, b), Q(a), Q(b), P(b)), (Identity(a, b),)),
        )
        n_imp = ProofNode(
            "impl",
            Sequent((imp, Q(a), Q(b), P(b)), (Identity(a, b),)),
            (imp_l, imp_r),
        )
        p3 = ProofNode(
            "foralll",
            Sequent((Q(a),) + gamma, (Identity(a, b),)),
            (n_imp,),
            terms=(a,),
        )
        return derived_iotar(p1, p2, p3, dd, b, a), dd, gamma, (p1, p2, p3)

    def test_conclusion_matches_primitive_rule(self):
        proof, dd, gamma, prems = self.build()
        check_proof(proof)
        assert sequents_alpha_equal(proof.conclusion, Sequent(gamma, (dd,)))
        assert len(cut_nodes(proof)) == 2
        direct = ProofNode(
            "iotar", Sequent(gamma, (dd,)), prems, terms=(b,), eigen=a
        )
        check_proof(direct)
        assert sequents_alpha_equal(direct.conclusion, proof.conclusion)

    def test_valid_semantically(self):
        proof, *_ = self.build()
        assert find_countermodel(proof.conclusion, max_size=2) is None

    def test_rejects_an_eigenparameter_in_the_conclusion(self):
        """The eigenparameter must not occur in the conclusion's context."""
        _, dd, _, (p1, p2, p3) = self.build()
        stale = weaken_to(p3, Sequent(p3.conclusion.ant + (P(a),), p3.conclusion.suc))
        with pytest.raises(ValueError, match="^parameter a is not fresh for the conclusion$"):
            derived_iotar(p1, p2, stale, dd, b, a)
