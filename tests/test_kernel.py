"""Kernel tests: one positive and at least one negative case per rule,
annotation inference, eigenvariable conditions (including the two instances
that would be unsound under a laxer reading), whole-proof checking with
failure paths, and parameter substitution through proofs."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from ddproof.kernel import (
    CheckError,
    ProofNode,
    RuleError,
    analyze_step,
    check_proof,
    proof_height,
    proofs_equal,
    subst_param_proof,
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
    Var,
    seq,
)


def P(t):
    return PredAtom("P", (t,))


def Q(t):
    return PredAtom("Q", (t,))


G = PredAtom("G", ())
H = PredAtom("H", ())
x, y = Var("x"), Var("y")
a, b, c, d = Param("a"), Param("b"), Param("c"), Param("d")
k = Const("k")


def leaf(ant, suc):
    """Premise placeholder for single-step tests (not itself checkable)."""
    return ProofNode("ax", seq(ant, suc))


def node(rule, ant, suc, prems=(), **kw):
    return ProofNode(rule, seq(ant, suc), tuple(prems), **kw)


def ax(f):
    return ProofNode("ax", seq([f], [f]))


# ---------------------------------------------------------------------------
# axioms, weakening, contraction, cut


def test_ax():
    analyze_step(ax(P(a)))
    with pytest.raises(RuleError):
        analyze_step(node("ax", [P(a), Q(a)], [P(a)]))
    with pytest.raises(RuleError):
        analyze_step(node("ax", [P(a)], [P(b)]))


def test_ax_alpha():
    analyze_step(
        node("ax", [Forall("x", P(x))], [Forall("y", P(y))])
    )


def test_weakening():
    info = analyze_step(node("wl", [Q(a), P(a)], [P(a)], [ax(P(a))]))
    assert info.principal == ("ant", 0)
    analyze_step(node("wr", [P(a)], [P(a), G], [ax(P(a))]))
    with pytest.raises(RuleError):
        analyze_step(node("wl", [Q(a), H, P(a)], [P(a)], [ax(P(a))]))
    with pytest.raises(RuleError):
        analyze_step(node("wr", [P(a)], [P(a)], [ax(P(a))]))


def test_contraction():
    prem = leaf([P(a), P(a)], [G])
    analyze_step(node("cl", [P(a)], [G], [prem]))
    with pytest.raises(RuleError):
        analyze_step(node("cl", [], [G], [prem]))
    prem2 = leaf([G], [P(a), P(a)])
    analyze_step(node("cr", [G], [P(a)], [prem2]))


def test_cut():
    p1 = leaf([P(a)], [Q(a)])
    p2 = leaf([Q(a)], [G])
    info = analyze_step(node("cut", [P(a)], [G], [p1, p2]))
    assert info.cut_formula == Q(a)
    with pytest.raises(RuleError):
        analyze_step(node("cut", [P(a)], [H], [p1, p2]))


def test_cut_contexts_add():
    p1 = leaf([P(a)], [G, Q(a)])
    p2 = leaf([Q(a), P(b)], [H])
    analyze_step(node("cut", [P(a), P(b)], [G, H], [p1, p2]))


# ---------------------------------------------------------------------------
# propositional rules


def test_negation():
    inner = node("negl", [Not(P(a)), P(a)], [], [ax(P(a))])
    proof = node("negr", [P(a)], [Not(Not(P(a)))], [inner])
    assert check_proof(proof).height == 3
    with pytest.raises(RuleError):
        analyze_step(node("negr", [P(a)], [Not(P(a))], [ax(P(a))]))


def test_and_swap():
    conj = And(P(a), Q(a))

    def project(keep, drop):
        base = ax(keep)
        weak = node("wl", [drop, keep], [keep], [base])
        return node("andl", [conj], [keep], [weak])

    proof = node(
        "andr", [conj], [And(Q(a), P(a))], [project(Q(a), P(a)), project(P(a), Q(a))]
    )
    assert check_proof(proof).height == 4


def test_or_commute():
    disj = Or(P(a), Q(a))

    def inject(f):
        return node("orr", [f], [Or(Q(a), P(a))], [node("wr", [f], [Q(a) if f == P(a) else Q(a), P(a) if f == P(a) else P(a)], [ax(f)])])

    left = node("orr", [P(a)], [Or(Q(a), P(a))], [node("wr", [P(a)], [Q(a), P(a)], [ax(P(a))])])
    right = node("orr", [Q(a)], [Or(Q(a), P(a))], [node("wr", [Q(a)], [P(a), Q(a)], [ax(Q(a))])])
    proof = node("orl", [disj], [Or(Q(a), P(a))], [left, right])
    check_proof(proof)


def test_implication():
    side = node("wr", [P(a)], [Q(a), P(a)], [ax(P(a))])
    inner = node("impl", [Imp(P(a), Q(a)), P(a)], [Q(a)], [side, node("wl", [Q(a), P(a)], [Q(a)], [ax(Q(a))])])
    proof = node("impr", [Imp(P(a), Q(a))], [Imp(P(a), Q(a))], [inner])
    check_proof(proof)
    with pytest.raises(RuleError):
        analyze_step(node("impr", [], [Imp(P(a), Q(a))], [leaf([Q(a)], [P(a)])]))


def test_iff_rules():
    f = Iff(P(a), Q(a))
    p1 = leaf([P(a)], [Q(a)])
    p2 = leaf([Q(a)], [P(a)])
    analyze_step(node("iffr", [], [f], [p1, p2]))
    q1 = leaf([], [G, P(a), Q(a)])
    q2 = leaf([P(a), Q(a)], [G])
    analyze_step(node("iffl", [f], [G], [q1, q2]))
    with pytest.raises(RuleError):
        analyze_step(node("iffr", [], [f], [p2, p1]))


# ---------------------------------------------------------------------------
# quantifier rules


def test_foralll():
    f = Forall("x", P(x))
    prem = ax(P(k))
    info = analyze_step(node("foralll", [f], [P(k)], [prem], terms=(k,)))
    assert info.terms == (k,)
    inferred = analyze_step(node("foralll", [f], [P(k)], [prem]))
    assert inferred.terms == (k,)
    with pytest.raises(RuleError):
        analyze_step(node("foralll", [f], [P(k)], [ax(P(a))], terms=(a,)))


def test_forallr_eigen():
    body = Imp(P(x), P(x))
    inner = node("impr", [], [Imp(P(a), P(a))], [ax(P(a))])
    proof = node("forallr", [], [Forall("x", body)], [inner], eigen=a)
    check_proof(proof)
    # the eigenvariable may not appear in the conclusion
    bad = node("forallr", [P(a)], [Forall("x", P(x))], [ax(P(a))], eigen=a)
    with pytest.raises(RuleError, match="eigenvariable"):
        analyze_step(bad)


def test_exists_roundtrip():
    f = Exists("x", P(x))
    inner = node("existsr", [P(a)], [f], [ax(P(a))], terms=(a,))
    proof = node("existsl", [f], [f], [inner], eigen=a)
    assert check_proof(proof).height == 3
    info = analyze_step(node("existsl", [f], [f], [inner]))
    assert info.eigen == a


def test_forallr_inference():
    inner = node("impr", [], [Imp(P(a), P(a))], [ax(P(a))])
    proof = node("forallr", [], [Forall("x", Imp(P(x), P(x)))], [inner])
    info = analyze_step(proof)
    assert info.eigen == a
    check_proof(proof)


# ---------------------------------------------------------------------------
# equality rules


def test_eqminus():
    concl = node(
        "eqminus",
        [Identity(a, b), P(a)],
        [P(b)],
        [ax(P(b))],
    )
    info = analyze_step(concl)
    assert info.terms == (a, b)
    # rewriting inside an identity atom
    within = node(
        "eqminus",
        [Identity(a, b), Identity(a, a)],
        [G],
        [leaf([Identity(b, a)], [G])],
    )
    analyze_step(within)
    with pytest.raises(RuleError):
        analyze_step(
            node(
                "eqminus",
                [Identity(a, b), And(P(a), G)],
                [P(b)],
                [leaf([And(P(b), G)], [P(b)])],
            )
        )


def test_eqminus_no_rewrite_positions():
    concl = node("eqminus", [Identity(a, b), G], [G], [ax(G)])
    analyze_step(concl)


def test_eqplus():
    prem = leaf([Identity(b, b), P(b)], [P(b)])
    info = analyze_step(node("eqplus", [P(b)], [P(b)], [prem]))
    assert info.terms == (b,)
    bad = leaf([Identity(b, c), P(b)], [P(b)])
    with pytest.raises(RuleError, match="reflexive"):
        analyze_step(node("eqplus", [P(b)], [P(b)], [bad]))


# ---------------------------------------------------------------------------
# abstracts and descriptions


def test_lambda_term_arg():
    f = LambdaAtom("x", Imp(P(x), P(x)), a)
    inner = node("impr", [], [Imp(P(a), P(a))], [ax(P(a))])
    proof = node("lamr", [], [f], [inner])
    check_proof(proof)
    f2 = LambdaAtom("x", P(x), k)
    analyze_step(node("laml", [f2], [P(k)], [ax(P(k))]))
    with pytest.raises(RuleError):
        analyze_step(node("laml", [f2], [P(a)], [ax(P(a))]))


DD = LambdaAtom("x", P(x), IotaTerm("y", Q(y)))


def test_iota1l():
    prem = leaf([Q(a), P(a)], [G])
    info = analyze_step(node("iota1l", [DD], [G], [prem], eigen=a))
    assert info.eigen == a
    inferred = analyze_step(node("iota1l", [DD], [G], [prem]))
    assert inferred.eigen == a
    # eigenvariable leaking into the context is always rejected
    badprem = leaf([Q(a), P(a)], [P(a)])
    for lax in (False, True):
        with pytest.raises(RuleError, match="eigenvariable"):
            analyze_step(node("iota1l", [DD], [P(a)], [badprem], eigen=a), lax_iota_eigen=lax)


def test_iota1l_lax_allows_eigen_in_abstract_body():
    dd = LambdaAtom("x", And(P(x), P(a)), IotaTerm("y", Q(y)))
    prem = leaf([Q(a), And(P(a), P(a))], [G])
    stepnode = node("iota1l", [dd], [G], [prem], eigen=a)
    with pytest.raises(RuleError, match="eigenvariable"):
        analyze_step(stepnode)
    analyze_step(stepnode, lax_iota_eigen=True)


def test_iota2l():
    p1 = leaf([], [G, Q(b)])
    p2 = leaf([], [G, Q(c)])
    p3 = leaf([Identity(b, c)], [G])
    info = analyze_step(node("iota2l", [DD], [G], [p1, p2, p3]))
    assert info.terms == (b, c)
    analyze_step(node("iota2l", [DD], [G], [p1, p2, p3], terms=(b, c)))
    with pytest.raises(RuleError):
        analyze_step(node("iota2l", [DD], [G], [p1, p2, p3], terms=(c, b)))


def test_iotar():
    p1 = leaf([G], [Q(b)])
    p2 = leaf([G], [P(b)])
    p3 = leaf([G, Q(a)], [Identity(a, b)])
    info = analyze_step(node("iotar", [G], [DD], [p1, p2, p3]))
    assert info.terms == (b,) and info.eigen == a
    analyze_step(node("iotar", [G], [DD], [p1, p2, p3], terms=(b,), eigen=a))


def test_iotar_eigen_equals_witness_rejected():
    # with eigen = witness the uniqueness premise is vacuous; accepting this
    # instance would prove that every domain is a singleton
    dd = LambdaAtom("x", Identity(x, x), IotaTerm("y", Identity(y, y)))
    p1 = leaf([], [Identity(a, a)])
    p2 = leaf([], [Identity(a, a)])
    p3 = leaf([Identity(a, a)], [Identity(a, a)])
    stepnode = node("iotar", [], [dd], [p1, p2, p3], terms=(a,), eigen=a)
    for lax in (False, True):
        with pytest.raises(RuleError, match="witness"):
            analyze_step(stepnode, lax_iota_eigen=lax)


def test_iotar_eigen_in_context_rejected():
    p1 = leaf([P(a)], [Q(b)])
    p2 = leaf([P(a)], [P(b)])
    p3 = leaf([P(a), Q(a)], [Identity(a, b)])
    stepnode = node("iotar", [P(a)], [DD], [p1, p2, p3], terms=(b,), eigen=a)
    with pytest.raises(RuleError, match="eigenvariable"):
        analyze_step(stepnode)


# ---------------------------------------------------------------------------
# whole proofs


def test_check_proof_reports_innermost_path():
    good = ax(P(a))
    bad = node("negl", [Not(P(a))], [], [node("ax", [P(a)], [Q(a)])])
    root = node(
        "cut",
        [Not(P(a))],
        [P(a)],
        [node("wr", [Not(P(a))], [P(a), G], [node("wl", [Not(P(a)), G], [P(a), G], [leaf([G], [P(a), G])])]), bad],
    )
    with pytest.raises(CheckError) as e:
        check_proof(root)
    assert e.value.path == "0.0.0"


def test_check_proof_arity_consistency():
    p1 = ax(P(a))
    p2 = ax(PredAtom("P", (a, b)))
    root = node("cut", [P(a), PredAtom("P", (a, b))], [PredAtom("P", (a, b))], [
        node("wr", [P(a)], [P(a), PredAtom("P", (a, b))], [p1]),
        node("wl", [PredAtom("P", (a, b)), P(a)], [PredAtom("P", (a, b))], [p2]),
    ])
    with pytest.raises(CheckError, match="arity"):
        check_proof(root)


def test_check_proof_var_closed():
    with pytest.raises(CheckError, match="free variable"):
        check_proof(ax(P(Var("x"))))


def test_proof_facts():
    inner = node("existsr", [P(a)], [Exists("x", P(x))], [ax(P(a))], terms=(a,))
    proof = node("existsl", [Exists("x", P(x))], [Exists("x", P(x))], [inner], eigen=a)
    checked = check_proof(proof)
    assert checked.height == 3
    assert checked.params == frozenset({"a"})
    assert checked.cut_degrees == ()
    assert checked.degree == 0


def test_parameter_sets_of_a_deep_proof():
    """A 40,000-high wl/cl chain over constant-size sequents gets its
    parameter set from proof_params and from check_proof without recursing.
    It runs in a child process, so a C-stack overflow (segfault) fails this
    test instead of killing the test run."""
    code = (
        "import json\n"
        "from ddproof.kernel import ProofNode, check_proof, proof_params\n"
        "from ddproof.syntax import Param, PredAtom, Sequent\n"
        "f = PredAtom('P', (Param('a1'),))\n"
        "one, two = Sequent((f,), (f,)), Sequent((f, f), (f,))\n"
        "def chain(height):\n"
        "    node = ProofNode('ax', one)\n"
        "    for i in range(1, height):\n"
        "        rule, concl = ('wl', two) if i % 2 else ('cl', one)\n"
        "        node = ProofNode(rule, concl, (node,))\n"
        "    return node\n"
        "print(json.dumps([sorted(proof_params(chain(40_000))),\n"
        "                  sorted(check_proof(chain(40_000)).params)]))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [["a1"], ["a1"]]


def test_cut_degree_recorded():
    p1 = leaf([P(a)], [And(P(a), P(a))])
    p2 = leaf([And(P(a), P(a))], [G])
    root = node("cut", [P(a)], [G], [p1, p2])
    info = analyze_step(root)
    assert info.cut_formula == And(P(a), P(a))
    assert root.cut_degree == 1
    assert p1.cut_degree is None


def test_stored_facts_follow_replace():
    # each fact is read first, so a copy made by replace would be stale
    one = ax(P(a))
    assert (one.own_params, one.params) == ({"a"}, {"a"})
    moved = dataclasses.replace(one, conclusion=seq([P(b)], [P(b)]))
    assert (moved.own_params, moved.params) == ({"b"}, {"b"})
    up = node("existsl", [Exists("x", P(x))], [G], [leaf([P(a)], [G])], eigen=a)
    assert (up.own_params, up.params) == (set(), {"a"})
    assert dataclasses.replace(up, eigen=c).params == {"a", "c"}
    chi = And(P(a), P(a))
    cut = node("cut", [P(a)], [G], [leaf([P(a)], [chi]), leaf([chi], [G])])
    assert cut.cut_degree == 1
    atomic_premises = (leaf([P(a)], [P(a)]), leaf([P(a)], [G]))
    atomic = dataclasses.replace(cut, premises=atomic_premises)
    assert atomic.cut_degree == 0


# ---------------------------------------------------------------------------
# parameter substitution through proofs


def exists_roundtrip_proof(p):
    f = Exists("x", P(x))
    inner = node("existsr", [P(p)], [f], [ax(P(p))], terms=(p,))
    return node("existsl", [f], [f], [inner], eigen=p)


def test_subst_param_identity_when_absent():
    proof = exists_roundtrip_proof(a)
    assert subst_param_proof(proof, "zz", b) is proof


def test_subst_param_simple():
    f = Exists("x", P(x))
    inner = node("existsr", [P(b)], [f], [ax(P(b))], terms=(b,))
    out = subst_param_proof(inner, "b", c)
    checked = check_proof(out)
    assert checked.height == 2
    assert out.conclusion.ant == (P(c),)
    assert out.terms == (c,)


def test_subst_param_renames_colliding_eigen():
    # eigen a inside; substituting b -> a must rename the eigen first
    f = Forall("x", Imp(P(x), P(x)))
    inner = node("impr", [], [Imp(P(a), P(a))], [ax(P(a))])
    quant = node("forallr", [], [f], [inner], eigen=a)
    root = node("wl", [Q(b)], [f], [quant])
    out = subst_param_proof(root, "b", a)
    checked = check_proof(out)
    assert checked.height == proof_height(root)
    assert out.conclusion.ant == (Q(a),)
    # the inner eigen is no longer a
    assert out.premises[0].eigen != a


def test_subst_param_old_is_eigen():
    proof = exists_roundtrip_proof(a)
    out = subst_param_proof(proof, "a", d)
    check_proof(out)
    assert proof_height(out) == 3
    # root conclusion had no occurrence of the eigen, so it is unchanged
    assert out.conclusion == proof.conclusion


def test_subst_param_const_target():
    f = Exists("x", P(x))
    inner = node("existsr", [P(b)], [f], [ax(P(b))], terms=(b,))
    out = subst_param_proof(inner, "b", k)
    check_proof(out)
    assert out.conclusion.ant == (P(k),)


def test_proofs_equal():
    assert proofs_equal(exists_roundtrip_proof(a), exists_roundtrip_proof(a))
    assert not proofs_equal(exists_roundtrip_proof(a), ax(P(a)))
