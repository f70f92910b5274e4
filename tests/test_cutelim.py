"""Tests for the cut elimination module.

The reduction recipes are validated the way everything else is: run the
kernel checker over the output and compare end sequents as multisets.
Trace case names are pinned so a silent change of strategy shows up.
"""

import hashlib
import inspect
import os
import random
import re
import subprocess
import sys

import pytest
from genutil import ProofGen, cut_chain, perfbench_gen, ref_degree, ref_occurrences

from ddproof import cutelim, syntax
from ddproof.syntax import (
    And,
    Const,
    Forall,
    Identity,
    Imp,
    LambdaAtom,
    Not,
    Or,
    Param,
    PredAtom,
    Sequent,
    Var,
    logical_constants,
    params_in,
    rename_param_seq,
    replace,
    seq,
    sequent_key,
    sequents_alpha_equal,
)
from ddproof.kernel import (
    EIGEN_RULES,
    ProofNode,
    analyze_step,
    check_proof,
    cut_nodes,
    iter_nodes,
    proof_params,
    proof_size,
    subst_param_proof,
)
from ddproof.cli import fixture_proofs
from ddproof.builders import (
    ax,
    build_rlambda_left,
    build_rlambda_right,
    build_sym_trans,
    derived_iota1l,
    derived_iota2l,
    derived_iotar,
    mk_cut,
    paraphrase,
    weaken_to,
)
from ddproof.cutelim import (
    ReductionError,
    TraceEntry,
    eliminate_cuts,
    eliminate_cuts_traced,
    is_regular,
    left_reduce,
    regularize,
    right_reduce,
)
from ddproof.surface import format_proof, parse_formula, parse_proof


def P(t):
    return PredAtom("P", (t,))


def Q(t):
    return PredAtom("Q", (t,))


def R(t):
    return PredAtom("R", (t,))


a = Param("a")
b = Param("b")
b1 = Param("b1")
b2 = Param("b2")
c = Param("c")
x = Var("x")


def same_multiset(s1: Sequent, s2: Sequent) -> bool:
    return sequent_key(s1) == sequent_key(s2)


# ---------------------------------------------------------------------------
# shared fixtures


PHI_AND = And(Q(b), P(b))


def andr_proof():
    """Q(b), P(b) => Q(b) & P(b), with the conjunction principal."""
    p1 = weaken_to(ax(Q(b)), seq([Q(b), P(b)], [Q(b)]))
    p2 = weaken_to(ax(P(b)), seq([Q(b), P(b)], [P(b)]))
    return ProofNode("andr", seq([Q(b), P(b)], [PHI_AND]), (p1, p2))


def andl_proof():
    """Q(b) & P(b), R(c) => Q(b), with the conjunction principal."""
    q = weaken_to(ax(Q(b)), seq([Q(b), P(b), R(c)], [Q(b)]))
    return ProofNode("andl", seq([PHI_AND, R(c)], [Q(b)]), (q,))


def forall_intro(e: Param):
    """Q(b) => Q(b), forall x P(x) via a weakened instance at e."""
    fa = Forall("x", P(x))
    prem = weaken_to(ax(Q(b)), seq([Q(b)], [Q(b), P(e)]))
    return ProofNode("forallr", seq([Q(b)], [Q(b), fa]), (prem,), eigen=e)


def iotar_proof(dd, body_pred, psi_formula):
    """gamma => dd for gamma = body(b), psi(b), forall z (body(z) -> z = b),
    mirroring how a description is introduced on the right from an
    existence-and-uniqueness antecedent."""
    uniq = parse_formula(f"forall z. {body_pred}(z) -> z = #b")
    gamma = (body_pred_at(body_pred, b), psi_formula, uniq)
    p1 = weaken_to(ax(gamma[0]), Sequent(gamma, (gamma[0],)))
    p2 = weaken_to(ax(gamma[1]), Sequent(gamma, (gamma[1],)))
    imp = parse_formula(f"{body_pred}(#a) -> #a = #b")
    carried = (body_pred_at(body_pred, a), gamma[0], gamma[1])
    imp_l = weaken_to(
        ax(carried[0]), Sequent(carried, (Identity(a, b), carried[0]))
    )
    imp_r = weaken_to(
        ax(Identity(a, b)),
        Sequent((Identity(a, b),) + carried, (Identity(a, b),)),
    )
    n_imp = ProofNode(
        "impl", Sequent((imp,) + carried, (Identity(a, b),)), (imp_l, imp_r)
    )
    p3 = ProofNode(
        "foralll",
        Sequent((carried[0],) + gamma, (Identity(a, b),)),
        (n_imp,),
        terms=(a,),
    )
    node = ProofNode(
        "iotar", Sequent(gamma, (dd,)), (p1, p2, p3), terms=(b,), eigen=a
    )
    check_proof(node)
    return node, gamma


def body_pred_at(name, term):
    return PredAtom(name, (term,))


# ---------------------------------------------------------------------------
# the stored cut summary and cut_nodes' rows


def cut_rows(proof):
    return [(path, degree) for path, _, degree in cut_nodes(proof)]


class TestMetrics:
    def test_cut_free_proof(self):
        p = build_sym_trans(b1, b2, b)
        assert (cut_rows(p), p.cuts) == ([], (-1, 0))

    def test_atomic_cut(self):
        p = mk_cut(ax(P(a)), ax(P(a)), P(a))
        assert (cut_rows(p), p.cuts) == ([("root", 0)], (0, 1))

    def test_description_cut_degree(self):
        dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
        left = build_rlambda_left(dd)
        right = build_rlambda_right(dd)
        p = mk_cut(left, right, paraphrase(dd))
        assert p.cuts == (logical_constants(paraphrase(dd)), 1) == (4, 1)
        assert cut_rows(p) == [("root", 4)]

    def test_degree_counts_each_operator_once(self):
        dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
        assert logical_constants(dd) == 2
        assert logical_constants(parse_formula("Q(#b)")) == 0
        assert logical_constants(parse_formula("Q(#b) <-> P(#b)")) == 1


# ---------------------------------------------------------------------------
# regularization


IMPLICIT_EIGEN_PROOF = """
(forallr (seq () (forall x. P(x) -> P(x)))
  (impr (seq () (P(#a) -> P(#a))) (ax (seq (P(#a)) (P(#a))))))
"""

# the outer forallr's eigenparameter #a stands in its sibling too, and the
# inner forallr reuses it: both clash, and each needs a name of its own
NESTED_EIGEN_BRANCH = """
(forallr (seq () (forall x. Q(#c) -> forall y. P(y) -> P(y))) :eigen #a
  (impr (seq () (Q(#c) -> forall y. P(y) -> P(y)))
    (forallr (seq (Q(#c)) (forall y. P(y) -> P(y))) :eigen #a
      (impr (seq (Q(#c)) (P(#a) -> P(#a)))
        (wl (seq (Q(#c), P(#a)) (P(#a))) (ax (seq (P(#a)) (P(#a)))))))))
"""


class TestRegularize:
    def test_identity_on_regular_proof(self):
        # the very proof once every eigenparameter is annotated; an
        # implicit one is spelled out, once
        for p in (forall_intro(a), parse_proof(IMPLICIT_EIGEN_PROOF)):
            check_proof(p)
            assert is_regular(p)
            r = regularize(p)
            assert (r is p) == (p.eigen is not None)
            assert r.eigen == a and format_proof(r) == format_proof(replace(p, eigen=a))
            assert regularize(r) is r

    def test_nested_reuse_of_a_clashing_eigen_renamed_apart(self):
        branch = parse_proof(NESTED_EIGEN_BRANCH)
        check_proof(branch)
        fa = branch.conclusion.suc[0]
        both = ProofNode("andr", seq([], [And(fa, fa)]), (branch, branch))
        check_proof(both)
        for avoid in ((), ("a",)):
            r = regularize(both, avoid)
            check_proof(r)
            eigens = [n.eigen.name for _, n in iter_nodes(r) if n.eigen is not None]
            assert eigens == ["a1", "a2", "a3", "a4"]
            assert is_regular(r, avoid)

    def test_clash_across_branches_renamed(self):
        fa = Forall("x", P(x))
        both = ProofNode(
            "andr",
            seq([Q(b)], [Q(b), And(fa, fa)]),
            (forall_intro(a), forall_intro(a)),
        )
        check_proof(both)
        assert not is_regular(both)
        r = regularize(both)
        assert is_regular(r)
        assert r.conclusion == both.conclusion
        assert check_proof(r).height == check_proof(both).height
        eigens = {n.eigen.name for _, n in iter_nodes(r) if n.eigen is not None}
        assert len(eigens) == 2

    def test_eigen_leaking_into_sibling_renamed(self):
        fa = Forall("x", P(x))
        other = weaken_to(ax(Q(b)), seq([Q(b)], [Q(b), P(a)]))
        both = ProofNode(
            "andr",
            seq([Q(b)], [Q(b), And(fa, P(a))]),
            (forall_intro(a), other),
        )
        check_proof(both)
        assert not is_regular(both)
        r = regularize(both)
        check_proof(r)
        assert is_regular(r)
        assert r.conclusion == both.conclusion
        renamed = r.premises[0].eigen
        assert renamed is not None and renamed.name != "a"

    def test_avoid_set_forces_rename(self):
        p = forall_intro(a)
        r = regularize(p, avoid=("a",))
        check_proof(r)
        assert r.premises != p.premises
        assert r.eigen.name != "a"
        assert r.conclusion == p.conclusion

    def test_idempotent(self):
        both = ProofNode(
            "andr",
            seq([Q(b)], [Q(b), And(Forall("x", P(x)), Forall("x", P(x)))]),
            (forall_intro(a), forall_intro(a)),
        )
        r = regularize(both)
        assert regularize(r) is r

    def test_rename_below_sibling_already_read(self):
        # The top andr reads both premises' parameter sets, {a, b} each,
        # before walking either; the clashing eigens sit one level further
        # down, so the renamed subtrees are built after those reads.
        fa = Forall("x", P(x))
        inner = ProofNode(
            "andr",
            seq([Q(b)], [Q(b), And(fa, fa)]),
            (forall_intro(a), forall_intro(a)),
        )
        other = weaken_to(ax(Q(b)), seq([Q(b)], [Q(b), P(a)]))
        top = ProofNode(
            "andr",
            seq([Q(b)], [Q(b), And(And(fa, fa), P(a))]),
            (inner, other),
        )
        check_proof(top)
        assert not is_regular(top)
        r = regularize(top)
        check_proof(r)
        assert r.conclusion == top.conclusion
        assert r.premises[1] is other
        eigens = [n.eigen.name for _, n in iter_nodes(r) if n.eigen is not None]
        assert len(set(eigens)) == 2 and "a" not in eigens
        assert is_regular(r)
        assert regularize(r) is r

    def test_annotates_implicit_eigen(self):
        bare = ProofNode(
            "forallr",
            seq([Q(b)], [Q(b), Forall("x", P(x))]),
            (weaken_to(ax(Q(b)), seq([Q(b)], [Q(b), P(a)])),),
        )
        check_proof(bare)
        both = ProofNode(
            "andr",
            seq([Q(b)], [Q(b), And(Forall("x", P(x)), Forall("x", P(x)))]),
            (bare, bare),
        )
        r = regularize(both)
        assert is_regular(r)
        assert all(
            n.eigen is not None
            for _, n in iter_nodes(r)
            if n.rule == "forallr"
        )


def regular_by_definition(root: ProofNode, avoid) -> bool:
    """Reference oracle: each eigenparameter, written or left for the kernel
    to infer, is owned by one inference, is not avoided, and occurs in no
    node outside that inference's premises."""
    nodes = list(iter_nodes(root))
    owners = {}
    for path, n in nodes:
        e = n.eigen or (analyze_step(n).eigen if n.rule in EIGEN_RULES else None)
        if e is not None:
            owners.setdefault(e.name, []).append(path)
    for name, paths in owners.items():
        if name in avoid or len(paths) > 1:
            return False
        (owner,) = paths
        above = "" if owner == "root" else owner + "."
        for path, n in nodes:
            if path != owner and path.startswith(above):
                continue  # in the owner's premises
            written = params_in(n.conclusion) | params_in(n.terms)
            if name in written or (path != owner and n.eigen == Param(name)):
                return False
    return True


def regularize_corpus(seed=20261019):
    """Fixture proofs, seeded ProofGen proofs, and a cut of each of them
    against itself, which repeats every eigenparameter."""
    rng = random.Random(seed)
    proofs = [p for _, p in fixture_proofs()]
    for steps in (8, 12):
        gen = ProofGen(rng, max_steps=steps)
        proofs += [gen.proof() for _ in range(50)]
    return proofs + [perfbench_gen._cut_compose(p, p, Q(c)) for p in proofs]


def test_regularize_is_pinned():
    """is_regular agrees with the definition on every proof and avoid set,
    and a digest pins regularize's output and is_regular's verdict."""
    h = hashlib.sha256()
    corpus = regularize_corpus()
    renamed = 0
    for p in corpus:
        check_proof(p)
        names = sorted(p.params)
        for avoid in ((), names[:1], names):
            regular = is_regular(p, avoid)
            assert regular == regular_by_definition(p, avoid)
            renamed += not regular
            h.update(f"{format_proof(regularize(p, avoid))}\0{regular}\0".encode())
    assert (len(corpus), renamed) == (224, 243)
    assert h.hexdigest()[:12] == "425ab1f3c2ac"


def test_regularity_of_a_deep_proof():
    """A 40,000-high wl/cl chain is regular, and regularize returns it as
    it is: both walks are loops, so the child lowers the recursion limit
    to 1,000 after the import. It runs in a child process, so a C-stack
    overflow (segfault) fails this test instead of killing the test run."""
    code = (
        "import sys\n"
        "from ddproof.cutelim import is_regular, regularize\n"
        "from ddproof.kernel import ProofNode\n"
        "from ddproof.syntax import Param, PredAtom, Sequent\n"
        "sys.setrecursionlimit(1_000)\n"
        "f = PredAtom('P', (Param('a1'),))\n"
        "one, two = Sequent((f,), (f,)), Sequent((f, f), (f,))\n"
        "node = ProofNode('ax', one)\n"
        "for i in range(1, 40_000):\n"
        "    rule, concl = ('wl', two) if i % 2 else ('cl', one)\n"
        "    node = ProofNode(rule, concl, (node,))\n"
        "print(is_regular(node), regularize(node, avoid={'a1'}) is node)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["True", "True"]


# ---------------------------------------------------------------------------
# right reduction


def right_reductions() -> dict:
    """Trace label -> (d1, d2, phi), a right reduction that takes that case
    first: an axiom on either side, a description unpacked by iota1l and by
    iota2l, and a cut on ~A, A | B, A -> B and an abstract applied to a
    parameter, principal in the right rule above d1 and the left rule above
    d2."""
    A, B = P(b), Q(b)
    neg, disj, imp, both = Not(A), Or(A, B), Imp(A, B), And(A, B)
    lam = LambdaAtom("x", And(P(x), Q(x)), b)
    dd1 = parse_formula("(lam x. ~Q(x)) (iota y. Q(y))")
    prem = ProofNode("negl", Sequent((Q(a), Not(Q(a))), ()), (ax(Q(a)),))
    dd2 = parse_formula("(lam x. P(x)) (iota y. Q(y))")
    q1 = weaken_to(ax(Q(b1)), Sequent((Q(b1), Q(b2)), (Identity(b1, b2), Q(b1))))
    q2 = weaken_to(ax(Q(b2)), Sequent((Q(b1), Q(b2)), (Identity(b1, b2), Q(b2))))
    q3 = weaken_to(
        ax(Identity(b1, b2)),
        Sequent((Identity(b1, b2), Q(b1), Q(b2)), (Identity(b1, b2),)),
    )
    return {
        "rr:ax-right": (
            ProofNode("negr", seq([], [Q(b), Not(Q(b))]), (ax(Q(b)),)),
            ax(Not(Q(b))),
            Not(Q(b)),
        ),
        "rr:ax-left": (ax(PHI_AND), andl_proof(), PHI_AND),
        "rr:iota1": (
            iotar_proof(dd1, "Q", Not(Q(b)))[0],
            ProofNode("iota1l", Sequent((dd1,), ()), (prem,), eigen=a),
            dd1,
        ),
        "rr:iota2": (
            iotar_proof(dd2, "Q", P(b))[0],
            ProofNode(
                "iota2l",
                Sequent((dd2, Q(b1), Q(b2)), (Identity(b1, b2),)),
                (q1, q2, q3),
                terms=(b1, b2),
            ),
            dd2,
        ),
        "rr:neg": (
            ProofNode("negr", seq([], [A, neg]), (ax(A),)),
            ProofNode("negl", seq([neg, A], []), (ax(A),)),
            neg,
        ),
        "rr:or": (
            ProofNode("orr", seq([A], [disj]), (weaken_to(ax(A), seq([A], [A, B])),)),
            ProofNode("orl", seq([disj], [A, B]), (
                weaken_to(ax(A), seq([A], [A, B])),
                weaken_to(ax(B), seq([B], [A, B])),
            )),
            disj,
        ),
        "rr:imp": (
            ProofNode("impr", seq([B], [imp]), (weaken_to(ax(B), seq([A, B], [B])),)),
            ProofNode("impl", seq([imp, A], [B]), (
                weaken_to(ax(A), seq([A], [B, A])),
                weaken_to(ax(B), seq([B, A], [B])),
            )),
            imp,
        ),
        "rr:lam": (
            ProofNode("lamr", seq([both], [lam]), (ax(both),)),
            ProofNode("laml", seq([lam], [both]), (ax(both),)),
            lam,
        ),
    }


class TestRightReduce:
    def test_axiom_on_the_right(self):
        d1, d2, phi = right_reductions()["rr:ax-right"]
        check_proof(d1)
        cases = []
        out = right_reduce(d1, d2, phi, 1, trace=cases)
        check_proof(out)
        assert same_multiset(out.conclusion, d1.conclusion)
        assert cases == ["rr:ax-right"]

    def test_axiom_on_the_left(self):
        d1, d2, phi = right_reductions()["rr:ax-left"]
        cases = []
        out = right_reduce(d1, d2, phi, 1, trace=cases)
        check_proof(out)
        assert same_multiset(out.conclusion, d2.conclusion)
        assert cases == ["rr:ax-left"]

    def test_conjunction(self):
        d1 = andr_proof()
        d2 = andl_proof()
        check_proof(d2)
        cases = []
        out = right_reduce(d1, d2, PHI_AND, 1, trace=cases)
        check_proof(out)
        assert same_multiset(out.conclusion, seq([Q(b), P(b), R(c)], [Q(b)]))
        assert "rr:and" in cases
        assert out.cuts[0] <= 0
        assert len(cut_nodes(out)) == 2

    def test_weakening_absorbed(self):
        d1 = andr_proof()
        base = weaken_to(ax(Q(b)), seq([Q(b), P(b)], [Q(b)]))
        d2 = ProofNode("wl", seq([PHI_AND, Q(b), P(b)], [Q(b)]), (base,))
        check_proof(d2)
        cases = []
        out = right_reduce(d1, d2, PHI_AND, 1, trace=cases)
        check_proof(out)
        assert len(cut_nodes(out)) == 0
        assert same_multiset(out.conclusion, seq([Q(b), P(b), Q(b), P(b)], [Q(b)]))
        assert cases == ["rr:weaken-absorb"]

    def test_contraction_absorbed(self):
        d1 = andr_proof()
        inner = weaken_to(ax(P(b)), seq([PHI_AND, PHI_AND, R(c), P(b)], [P(b)]))
        d2 = ProofNode("cl", seq([PHI_AND, R(c), P(b)], [P(b)]), (inner,))
        check_proof(d2)
        cases = []
        out = right_reduce(d1, d2, PHI_AND, 1, trace=cases)
        check_proof(out)
        assert len(cut_nodes(out)) == 0
        assert same_multiset(
            out.conclusion, seq([Q(b), P(b), R(c), P(b)], [P(b)])
        )
        assert cases[0] == "rr:contract-absorb"

    def test_description_unpacked_against_its_negation(self):
        # right premise destructs the description with the empty-case rule
        d1, d2, dd = right_reductions()["rr:iota1"]
        gamma = d1.conclusion.ant
        check_proof(d2)
        cases = []
        out = right_reduce(d1, d2, dd, 1, trace=cases)
        check_proof(out)
        assert same_multiset(out.conclusion, Sequent(gamma, ()))
        assert "rr:iota1" in cases
        assert out.cuts[0] < logical_constants(dd)

    def test_description_unpacked_against_uniqueness(self):
        d1, d2, dd = right_reductions()["rr:iota2"]
        gamma = d1.conclusion.ant
        check_proof(d2)
        cases = []
        out = right_reduce(d1, d2, dd, 1, trace=cases)
        check_proof(out)
        assert same_multiset(
            out.conclusion, Sequent(gamma + (Q(b1), Q(b2)), (Identity(b1, b2),))
        )
        assert "rr:iota2" in cases
        assert out.cuts[0] <= 0

    def test_rejects_non_principal_left_premise(self):
        d1 = ProofNode("wr", seq([Q(b)], [Q(b), PHI_AND]), (ax(Q(b)),))
        check_proof(d1)
        with pytest.raises(ReductionError):
            right_reduce(d1, andl_proof(), PHI_AND, 1)

    def test_rejects_high_degree_cuts_in_premises(self):
        d1 = andr_proof()
        inner = mk_cut(
            d1, weaken_to(ax(Q(b)), seq([PHI_AND, Q(b)], [Q(b)])), PHI_AND
        )
        bad = ProofNode(
            "wr",
            Sequent(inner.conclusion.ant, inner.conclusion.suc + (PHI_AND,)),
            (inner,),
        )
        check_proof(bad)
        with pytest.raises(ReductionError):
            right_reduce(bad, andl_proof(), PHI_AND, 1)

    def test_rejects_missing_tracked_occurrences(self):
        with pytest.raises(ReductionError):
            right_reduce(andr_proof(), andl_proof(), PHI_AND, 2)


# ---------------------------------------------------------------------------
# left reduction


class TestLeftReduce:
    def test_axiom_on_the_left(self):
        d2 = andl_proof()
        cases = []
        out = left_reduce(ax(PHI_AND), d2, PHI_AND, 1, trace=cases)
        check_proof(out)
        assert same_multiset(out.conclusion, d2.conclusion)
        assert cases == ["lr:ax"]

    def test_atomic_formula_through_equality_left(self):
        # the cut formula is never principal on the right: eqminus rewrites
        # P(b1) without ever making it principal, so the recursion stays
        # parametric all the way to the axiom
        d1 = ProofNode("wl", seq([Q(c), P(b1)], [P(b1)]), (ax(P(b1)),))
        check_proof(d1)
        d2 = ProofNode(
            "eqminus",
            seq([Identity(b1, b2), P(b1)], [P(b2)]),
            (ax(P(b2)),),
        )
        check_proof(d2)
        cases = []
        out = left_reduce(d1, d2, P(b1), 1, trace=cases)
        check_proof(out)
        assert len(cut_nodes(out)) == 0
        assert same_multiset(
            out.conclusion, seq([Q(c), P(b1), Identity(b1, b2)], [P(b2)])
        )
        assert cases == ["lr:parametric:wl", "lr:ax"]

    def test_two_occurrences_through_weakening(self):
        d1 = ProofNode("wr", seq([P(a)], [P(a), P(a)]), (ax(P(a)),))
        check_proof(d1)
        d2 = weaken_to(ax(P(a)), seq([P(a), Q(b)], [P(a)]))
        cases = []
        out = left_reduce(d1, d2, P(a), 2, trace=cases)
        check_proof(out)
        assert len(cut_nodes(out)) == 0
        assert same_multiset(
            out.conclusion, seq([P(a), Q(b), Q(b)], [P(a), P(a)])
        )
        assert cases[0] == "lr:weaken-absorb"

    def test_dispatches_to_right_reduction(self):
        cases = []
        out = left_reduce(andr_proof(), andl_proof(), PHI_AND, 1, trace=cases)
        check_proof(out)
        assert same_multiset(out.conclusion, seq([Q(b), P(b), R(c)], [Q(b)]))
        assert "lr:dispatch:andr" in cases
        assert "rr:and" in cases
        assert out.cuts[0] <= 0

    def test_dispatch_with_two_tracked_copies(self):
        p1 = weaken_to(ax(Q(b)), seq([Q(b), P(b)], [PHI_AND, Q(b)]))
        p2 = weaken_to(ax(P(b)), seq([Q(b), P(b)], [PHI_AND, P(b)]))
        d1 = ProofNode("andr", seq([Q(b), P(b)], [PHI_AND, PHI_AND]), (p1, p2))
        check_proof(d1)
        cases = []
        out = left_reduce(d1, andl_proof(), PHI_AND, 2, trace=cases)
        check_proof(out)
        assert same_multiset(
            out.conclusion, seq([Q(b), P(b), R(c), R(c)], [Q(b), Q(b)])
        )
        assert "lr:dispatch:andr" in cases
        assert out.cuts[0] <= 0

    def test_rejects_high_degree_cuts_in_premises(self):
        inner = mk_cut(
            andr_proof(), weaken_to(ax(Q(b)), seq([PHI_AND, Q(b)], [Q(b)])), PHI_AND
        )
        bad = ProofNode(
            "wr",
            Sequent(inner.conclusion.ant, inner.conclusion.suc + (PHI_AND,)),
            (inner,),
        )
        check_proof(bad)
        with pytest.raises(ReductionError):
            left_reduce(bad, andl_proof(), PHI_AND, 1)


@pytest.mark.parametrize("reduce, side", [(left_reduce, "left"), (right_reduce, "right")])
def test_reductions_name_the_premise_that_lacks_the_occurrences(reduce, side):
    """left_reduce tracks k occurrences in the left premise's succedent,
    right_reduce in the right premise's antecedent; each premise here has
    one."""
    with pytest.raises(ReductionError, match=f"^{side} premise lacks the tracked occurrences$"):
        reduce(andr_proof(), andl_proof(), PHI_AND, 2)


@pytest.mark.parametrize("reduce", [left_reduce, right_reduce])
def test_reductions_reject_no_tracked_occurrence(reduce):
    """Both reductions track k >= 1 occurrences, so neither has a case for
    k = 0: each rejects it on entry."""
    with pytest.raises(ReductionError, match="^k must be positive$"):
        reduce(andr_proof(), andl_proof(), PHI_AND, 0)


# ---------------------------------------------------------------------------
# the elimination loop


def assert_eliminated(proof):
    """Run the loop and pin the contract: cut-free output, same end
    sequent, valid proof, strictly decreasing measure."""
    before = proof.conclusion
    out, trace = eliminate_cuts_traced(proof)
    check_proof(out)
    assert len(cut_nodes(out)) == 0
    assert same_multiset(out.conclusion, before)
    seen = [(e.degree_before, e.maximal_before) for e in trace]
    seen_after = [(e.degree_after, e.maximal_after) for e in trace]
    for pre, post in zip(seen, seen_after):
        assert pre > post or post == (0, 0)
    return out, trace


class TestEliminateCuts:
    def test_cut_free_input_is_identity(self):
        p = build_sym_trans(b1, b2, b)
        out, trace = eliminate_cuts_traced(p)
        assert out is p
        assert trace == []

    def test_axiom_cut(self):
        p = mk_cut(ax(P(a)), ax(P(a)), P(a))
        out, trace = assert_eliminated(p)
        assert out.rule == "ax"
        assert len(trace) == 1
        assert trace[0].cases == ("lr:ax",)

    def test_conjunction_cut(self):
        p = mk_cut(andr_proof(), andl_proof(), PHI_AND)
        out, trace = assert_eliminated(p)
        assert [e.formula for e in trace][0] == PHI_AND
        assert trace[0].degree == 1

    def test_derived_iota1_construction(self):
        dd = parse_formula("(lam x. ~Q(x)) (iota y. Q(y))")
        prem = ProofNode("negl", Sequent((Q(a), Not(Q(a))), ()), (ax(Q(a)),))
        p = derived_iota1l(prem, dd, a)
        check_proof(p)
        assert len(cut_nodes(p)) == 1
        assert_eliminated(p)

    def test_derived_iota2_construction(self):
        dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
        gamma = (Q(b1), Q(b2))
        p1 = weaken_to(ax(Q(b1)), Sequent(gamma, (Identity(b1, b2), Q(b1))))
        p2 = weaken_to(ax(Q(b2)), Sequent(gamma, (Identity(b1, b2), Q(b2))))
        p3 = weaken_to(
            ax(Identity(b1, b2)),
            Sequent((Identity(b1, b2),) + gamma, (Identity(b1, b2),)),
        )
        p = derived_iota2l(p1, p2, p3, dd, b1, b2)
        check_proof(p)
        assert_eliminated(p)

    def test_derived_iotar_construction(self):
        dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
        d1, gamma = iotar_proof(dd, "Q", P(b))
        p1 = weaken_to(ax(Q(b)), Sequent(gamma, (Q(b),)))
        p2 = weaken_to(ax(P(b)), Sequent(gamma, (P(b),)))
        p3 = d1.premises[2]
        p = derived_iotar(p1, p2, p3, dd, b, a)
        check_proof(p)
        assert len(cut_nodes(p)) == 2
        assert_eliminated(p)

    def test_paraphrase_roundtrip_cut(self):
        dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
        p = mk_cut(build_rlambda_left(dd), build_rlambda_right(dd), paraphrase(dd))
        check_proof(p)
        out, trace = assert_eliminated(p)
        assert trace[0].degree == 4
        assert len(trace) >= 2

    def test_nested_cuts_reduce_topmost_first(self):
        inner = mk_cut(andr_proof(), andl_proof(), PHI_AND)
        # wrap the inner cut under another cut of the same degree
        outer_right = weaken_to(
            ax(Q(b)), seq([PHI_AND, Q(b), P(b), R(c)], [Q(b)])
        )
        left = ProofNode(
            "wr",
            Sequent(inner.conclusion.ant, inner.conclusion.suc + (PHI_AND,)),
            (inner,),
        )
        p = mk_cut(left, outer_right, PHI_AND)
        check_proof(p)
        out, trace = assert_eliminated(p)
        # the inner (topmost) cut goes first; its path is below the root
        assert trace[0].path != "root"

    def test_substituted_proof_still_eliminates(self):
        dd = parse_formula("(lam x. ~Q(x)) (iota y. Q(y))")
        prem = ProofNode("negl", Sequent((Q(a), Not(Q(a))), ()), (ax(Q(a)),))
        p = derived_iota1l(prem, dd, a)
        p2 = subst_param_proof(p, "b", Param("d"))
        check_proof(p2)
        assert_eliminated(p2)


# ---------------------------------------------------------------------------
# principal reductions of ~, |, -> and abstracts


PRINCIPAL_TRACES = {
    "rr:neg": [("lr:dispatch:negr", "rr:neg"), ("lr:ax",)],
    "rr:or": [("lr:dispatch:orr", "rr:or"), ("lr:parametric:wr", "lr:ax"), ("lr:weaken-absorb",)],
    "rr:imp": [("lr:dispatch:impr", "rr:imp"), ("lr:parametric:wr", "lr:ax"), ("lr:weaken-absorb",)],
    "rr:lam": [("lr:dispatch:lamr", "rr:lam"), ("lr:ax",)],
}


@pytest.mark.parametrize("label", PRINCIPAL_TRACES)
def test_principal_reduction(label):
    """A cut on ~A, A | B, A -> B or (lam x. A & B) b, principal on both
    sides, through right_reduce and through the elimination loop."""
    d1, d2, phi = right_reductions()[label]
    check_proof(d1)
    check_proof(d2)
    p = mk_cut(d1, d2, phi)
    cases = []
    out = right_reduce(d1, d2, phi, 1, trace=cases)
    check_proof(out)
    assert same_multiset(out.conclusion, p.conclusion)
    assert cases == [label]
    assert out.cuts[0] < logical_constants(phi)
    _, trace = assert_eliminated(p)
    assert [e.cases for e in trace] == PRINCIPAL_TRACES[label]


def test_principal_reductions_are_pinned():
    """The printed outputs of the four principal cases, reduced once and
    eliminated, and the elimination traces, framed as the cut chain is."""
    h = hashlib.sha256()
    for label in PRINCIPAL_TRACES:
        d1, d2, phi = right_reductions()[label]
        h.update(format_proof(right_reduce(d1, d2, phi, 1)).encode())
        out, trace = eliminate_cuts_traced(mk_cut(d1, d2, phi))
        h.update(format_proof(out).encode())
        for entry in trace:
            h.update(repr(entry).encode())
    assert h.hexdigest()[:12] == "b81ef75cf81a"


def test_every_reduction_case_is_reached(criterion4_corpus):
    """Every rr: and lr: label that cutelim writes, read from its source
    (an f-string label by its fixed prefix), appears in the traces of the
    right reductions above or of the criterion-4 corpus's eliminations."""
    source = inspect.getsource(cutelim)
    labels = re.findall(r'trace\.append\(f?"((?:rr|lr):[^"{]*)', source)
    seen = set()
    for d1, d2, phi in right_reductions().values():
        right_reduce(d1, d2, phi, 1, trace=(cases := []))
        seen.update(cases)
    for root in criterion4_corpus:
        seen.update(case for entry in eliminate_cuts_traced(root)[1] for case in entry.cases)
    missing = [
        label for label in labels
        if not any(case == label or label[-1] == ":" and case.startswith(label) for case in seen)
    ]
    assert len(labels) == 20 and missing == []


# ---------------------------------------------------------------------------
# parameter sets and cut degrees stored on proof nodes


@pytest.fixture(scope="module")
def criterion4_corpus():
    return [root for _, root in perfbench_gen.cut_corpus()]


def ref_own_params(n) -> set:
    """The parameters of a node's conclusion and terms, by an occurrence walk
    that reads none of the names `syntax` stores."""
    terms = list(n.terms)
    ref_occurrences(n.conclusion, terms, [])
    return {t.name for t in terms if isinstance(t, Param)}


def walk_params(root):
    """Reference oracle: the whole-proof walk that proof_params made before
    the sets were stored on the nodes."""
    out = set()
    for _, n in iter_nodes(root):
        out |= ref_own_params(n)
        if n.eigen is not None:
            out.add(n.eigen.name)
    return out


def assert_facts_fresh(root):
    """Every node's stored facts equal a fresh computation."""
    for _, n in iter_nodes(root):
        assert n.own_params == ref_own_params(n)
        assert proof_params(n) == walk_params(n)
        if n.rule == "cut":
            assert n.cut_degree == ref_degree(analyze_step(n).cut_formula)
        degrees = [degree for _, _, degree in cut_nodes(n)]
        top = max(degrees, default=-1)
        assert n.cuts == (top, degrees.count(top))


def test_stored_facts_match_a_fresh_walk(criterion4_corpus):
    b9 = Param("b9")
    for root in criterion4_corpus:
        assert_facts_fresh(root)
        names = sorted(root.params)
        # avoiding every name of the proof renames each eigenparameter
        assert_facts_fresh(regularize(root, avoid=names))
        for new in (b9, Param(names[-1]), Const("d")):
            assert_facts_fresh(subst_param_proof(root, names[0], new))
        old = min(params_in(root.conclusion), default=None)
        if old is not None:
            # not a valid step any more, but its parameters must be the new ones
            renamed = rename_param_seq(root.conclusion, old, b9, {})
            moved = replace(root, conclusion=renamed)
            assert moved.own_params == ref_own_params(moved)
            assert proof_params(moved) == walk_params(moved)
            assert "b9" in moved.own_params and "b9" in moved.params
        out, _ = eliminate_cuts_traced(root)
        assert_facts_fresh(out)


def formula_objects(root, name=None) -> set:
    """The ids of the distinct formula objects in a proof's conclusions,
    only those that mention parameter `name` when it is given."""
    return {
        id(f) for _, n in iter_nodes(root) for f in n.conclusion.ant + n.conclusion.suc
        if name is None or name in params_in(f)
    }


def test_renaming_keeps_formulas_shared(criterion4_corpus):
    """One renaming walk renames each distinct formula once: over a
    200-high wl/cl chain whose sequents all carry one object P(a1), both
    regularize and subst_param_proof give back one renamed object, as the
    input held one. The elimination outputs of the criterion-4 corpus keep
    the count of distinct formula objects pinned (2,221 when every renamed
    node had copies of its own)."""
    pa, ex = P(Param("a1")), parse_formula("exists x. P(x)")
    one, two = Sequent((pa,), (ex,)), Sequent((pa, pa), (ex,))
    node = ProofNode("existsr", one, (ProofNode("ax", Sequent((pa,), (pa,))),), (Param("a1"),))
    for i in range(200):
        node = ProofNode(*(("wl", two) if i % 2 == 0 else ("cl", one)), (node,))
    root = ProofNode("existsl", Sequent((ex,), (ex,)), (node,), eigen=Param("a1"))
    check_proof(root)
    assert len(formula_objects(root, "a1")) == 1
    out = regularize(root, avoid=proof_params(root))
    check_proof(out)
    assert out.eigen != Param("a1") and "a1" not in out.params
    assert len(formula_objects(out, out.eigen.name)) == 1
    moved = subst_param_proof(node, "a1", Param("b1"))
    assert "a1" not in moved.params
    assert len(formula_objects(moved, "b1")) == 1
    outs = [eliminate_cuts(root) for root in criterion4_corpus]
    assert len(set().union(*map(formula_objects, outs))) == 451


def test_elimination_computes_each_parameter_set_once(monkeypatch):
    """Eliminating the worst criterion-4 proof calls params_in at most once
    per node that exists during the run: the input's nodes plus every node
    built while eliminating. A whole-proof re-walk per step or per
    regularization pass would exceed this by far."""
    root = dict(fixture_proofs())["derived_iota2l"]
    calls = built = 0
    real_params_in = syntax.params_in
    real_init = ProofNode.__init__

    def counting_params_in(x):
        nonlocal calls
        calls += 1
        return real_params_in(x)

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        real_init(self, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        bound = getattr(mod, "params_in", None)
        if name.startswith("ddproof") and bound is real_params_in:
            monkeypatch.setattr(mod, "params_in", counting_params_in)
    monkeypatch.setattr(ProofNode, "__init__", counting_init)
    out, trace = eliminate_cuts_traced(root)
    monkeypatch.undo()
    assert (proof_size(root), proof_size(out), len(trace)) == (52, 259, 16)
    assert calls <= proof_size(root) + built


# ---------------------------------------------------------------------------
# the loop keeps proofs regular without a whole-proof pass

# reducing its cut copies the existsl subproof, eigenparameters and all,
# into both premises of the andr
DUPLICATION_PROOF = """
(cut (seq (P(#c)) (P(#c) & P(#c), forall y. Q(y) -> Q(y)))
  (andr (seq (P(#c)) (P(#c) & P(#c), exists x. P(x)))
    (existsr (seq (P(#c)) (P(#c), exists x. P(x))) :term #c
      (wr (seq (P(#c)) (P(#c), P(#c))) (ax (seq (P(#c)) (P(#c))))))
    (existsr (seq (P(#c)) (P(#c), exists x. P(x))) :term #c
      (wr (seq (P(#c)) (P(#c), P(#c))) (ax (seq (P(#c)) (P(#c)))))))
  (existsl (seq (exists x. P(x)) (forall y. Q(y) -> Q(y))) :eigen #a
    (wl (seq (P(#a)) (forall y. Q(y) -> Q(y)))
      (forallr (seq () (forall y. Q(y) -> Q(y))) :eigen #b
        (impr (seq () (Q(#b) -> Q(#b))) (ax (seq (Q(#b)) (Q(#b)))))))))
"""


def generated_cut_proofs(seed=20261022):
    rng = random.Random(seed)
    proofs = []
    for steps, n in ((8, 150), (12, 100)):
        gen = ProofGen(rng, max_steps=steps)
        proofs += [gen.proof_with_cut() for _ in range(n)]
    return proofs


def test_spliced_proofs_are_already_regular(monkeypatch, criterion4_corpus):
    """After each step's splice the proof is regular as it stands:
    regularizing it returns the very same object, so the loop need not."""
    import ddproof.cutelim as cutelim

    real = cutelim._splice
    splices = 0

    def checked(node, parts, replacement):
        nonlocal splices
        out = real(node, parts, replacement)
        splices += 1
        assert regularize(out) is out
        return out

    proofs = [parse_proof(DUPLICATION_PROOF), *criterion4_corpus, *generated_cut_proofs()]
    monkeypatch.setattr(cutelim, "_splice", checked)
    steps = sum(len(eliminate_cuts_traced(root)[1]) for root in proofs)
    assert splices == steps > 300


def test_final_regularize_of_left_reduce_carries_weight(monkeypatch):
    """The left reduction copies the existsl subproof into both andr
    branches; without left_reduce's final regularize the copies share
    their eigenparameters and the loop's regularity assertion fails."""
    import ddproof.cutelim as cutelim

    root = parse_proof(DUPLICATION_PROOF)
    check_proof(root)
    out, _ = eliminate_cuts_traced(root)
    check_proof(out)
    assert is_regular(out)
    real = cutelim.regularize

    def skip_final(proof, avoid=()):
        if sys._getframe(1).f_code is left_reduce.__code__:
            return proof
        return real(proof, avoid)

    monkeypatch.setattr(cutelim, "regularize", skip_final)
    with pytest.raises(AssertionError) as err:
        eliminate_cuts_traced(root)
    assert "is_regular" in str(err.traceback[-1].statement)


# ---------------------------------------------------------------------------
# `:at` through cut elimination

# the andl's `:at 1` names P & Q in its conclusion; the reduction reorders
# that conclusion to the cut's, where P & Q stands first
REORDERED_AT_PROOF = """
(cut (seq (P & Q, A) (P)) (ax (seq (P & Q) (P & Q)))
  (andl (seq (A, P & Q) (P)) :at 1
    (wl (seq (A, P, Q) (P)) (wl (seq (P, Q) (P)) (ax (seq (P) (P)))))))
"""

KEPT_AT_PROOF = """
(impr (seq () (P & Q -> P)) :at 0
  (andl (seq (P & Q) (P)) :at 0
    (cut (seq (P, Q) (P)) (ax (seq (P) (P)))
      (wl (seq (P, Q) (P)) (ax (seq (P) (P)))))))
"""


def test_reordered_conclusion_drops_at():
    root = parse_proof(REORDERED_AT_PROOF)
    check_proof(root)
    out = eliminate_cuts(root)
    check_proof(out)
    assert out.rule == "andl" and out.at is None
    assert out.conclusion == root.conclusion
    base = root.premises[1]
    moved = weaken_to(base, Sequent(tuple(reversed(base.conclusion.ant)), base.conclusion.suc))
    assert moved.at is None
    check_proof(moved)


def test_unchanged_conclusions_keep_at():
    root = parse_proof(KEPT_AT_PROOF)
    check_proof(root)
    out = eliminate_cuts(root)
    check_proof(out)
    assert not cut_nodes(out)
    assert (out.rule, out.at, out.premises[0].rule, out.premises[0].at) == ("impr", 0, "andl", 0)
    # a renamed eigenparameter leaves the conclusion, and so `:at`, as it was
    forall = parse_proof(
        "(forallr (seq () (forall x. P(x) -> P(x))) :eigen #a :at 0"
        " (impr (seq () (P(#a) -> P(#a))) :at 0 (ax (seq (P(#a)) (P(#a))))))"
    )
    renamed = regularize(forall, avoid={"a"})
    assert renamed.eigen != forall.eigen
    assert (renamed.at, renamed.premises[0].at) == (0, 0)
    check_proof(renamed)


# ---------------------------------------------------------------------------
# the cut chain (genutil.cut_chain): lemma cuts composed, pinned at n = 1..5
#
# At n = 5 one proof takes 386 steps and its sequents reach 85 formulas,
# where the gates' proofs stay small.


@pytest.mark.parametrize(
    "n, nodes_in, steps, nodes_out, digest",
    [
        (1, 51, 16, 114, "9a8a2f28da0b"),
        (2, 77, 30, 320, "bbde6009c529"),
        (3, 103, 93, 449, "d6c7f55f55b3"),
        (4, 129, 139, 901, "56335dd04af3"),
        (5, 155, 386, 1070, "ba7a927a8b83"),
    ],
)
def test_cut_chain_is_pinned(n, nodes_in, steps, nodes_out, digest):
    """Steps, output size and a digest of the output and its trace, framed
    as the cut-corpus gate frames each proof."""
    p = cut_chain(n)
    check_proof(p)
    out, trace = eliminate_cuts_traced(p)
    h = hashlib.sha256(format_proof(out).encode())
    for entry in trace:
        h.update(repr(entry).encode())
    assert (proof_size(p), len(trace), proof_size(out)) == (nodes_in, steps, nodes_out)
    assert h.hexdigest()[:12] == digest
