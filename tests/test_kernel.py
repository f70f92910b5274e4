"""Kernel tests: one positive and at least one negative case per rule,
annotation inference, eigenvariable conditions (including the two instances
that would be unsound under a laxer reading), whole-proof checking with
failure paths, validation once per formula object, a frozen table of
rejections, and parameter substitution through proofs."""

import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from ddproof import syntax
from ddproof.builders import build_leibniz
from ddproof.kernel import (
    CheckError,
    ProofNode,
    RuleError,
    _rewrites,
    analyze_step,
    check_proof,
    iter_nodes,
    proof_params,
    proofs_equal,
    subst_param_proof,
)
from ddproof.search import rewrite_variants
from ddproof.surface import format_proof, parse_formula, parse_proof
from ddproof.syntax import (
    And,
    Const,
    Exists,
    Forall,
    Identity,
    Iff,
    IllFormed,
    Imp,
    IotaTerm,
    LambdaAtom,
    Not,
    Or,
    Param,
    PredAtom,
    Var,
    replace,
    seq,
    validate_sequent,
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
    for terms in ((a,), (a, b, a)):
        annotated = node("eqminus", [Identity(a, b), P(a)], [P(b)], [ax(P(b))], terms=terms)
        with pytest.raises(RuleError, match="two annotated terms or none"):
            analyze_step(annotated)
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


def test_rewrites_is_membership_in_the_enumerated_rewrites():
    """eqminus's atom relation, decided position by position, is the one
    the search enumerates: `_rewrites(a0, chi, src, dst)` holds exactly when
    chi is a0 or one of `rewrite_variants(a0, src, dst)`. a0 runs over every
    P atom up to width 6 and every identity over #a, #b and $c, and src and
    dst over every pair of those terms, src == dst among them. chi runs over
    a0 and its rewrites, each of those with one part changed to each term,
    and a0's parts under another predicate name, arity or class."""
    terms = (a, b, Const("c"))

    @functools.cache
    def near(chi):
        parts = syntax._parts(chi)
        return {syntax._rebuild(chi, (*parts[:i], t, *parts[i + 1:]))
                for i in range(len(parts)) for t in terms}

    for width in range(7):
        for args in itertools.product(terms, repeat=width):
            others = [PredAtom("Q", args), PredAtom("P", args + (a,)), PredAtom("P", args[1:])]
            atoms = [PredAtom("P", args), *([Identity(*args)] if width == 2 else [])]
            for a0, (src, dst) in itertools.product(atoms, itertools.product(terms, repeat=2)):
                want = {a0, *rewrite_variants(a0, src, dst)}
                for chi in set(others + atoms).union(*map(near, want)):
                    assert _rewrites(a0, chi, src, dst) == (chi in want), (a0, chi, src, dst)


@pytest.mark.parametrize(
    "premise, code, out, err",
    [
        ("#c, " * 39 + "#c", 1, "",
         "ddproof: rejected: path=root: no identity/atom pair in the antecedent matches the premise\n"),
        ("#a, " * 39 + "#b", 0, "OK height=2\n", ""),
    ],
    ids=["no-rewrite", "last-position"],
)
def test_wide_eqminus_checks_in_linear_time(tmp_path, premise, code, out, err):
    """A one-step eqminus from `#a = #b, P(#a, ..., #a)` of width 40: its
    atom has 2^40 - 1 rewrites, so only a positionwise test ends. `ddproof
    check` runs in a child limited to 256 MiB of address space and 10 s."""
    resource = pytest.importorskip("resource")
    limit = 1 << 28
    path = tmp_path / "wide.rlp"
    atom = f"P({premise})"
    path.write_text(f"(eqminus (seq (#a = #b, P({'#a, ' * 39}#a)) ({atom})) (ax (seq ({atom}) ({atom}))))\n")
    child = subprocess.run(
        [sys.executable, "-m", "ddproof", "check", str(path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err)


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
    # the eigenvariable may occur neither in the context
    badprem = leaf([Q(a), P(a)], [P(a)])
    with pytest.raises(RuleError, match="eigenvariable"):
        analyze_step(node("iota1l", [DD], [P(a)], [badprem], eigen=a))
    # nor in the abstract body, where it would reach the conclusion
    dd = LambdaAtom("x", And(P(x), P(a)), IotaTerm("y", Q(y)))
    prem = leaf([Q(a), And(P(a), P(a))], [G])
    with pytest.raises(RuleError, match="eigenvariable"):
        analyze_step(node("iota1l", [dd], [G], [prem], eigen=a))


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
    with pytest.raises(RuleError, match="witness"):
        analyze_step(stepnode)


def test_iotar_eigen_in_context_rejected():
    p1 = leaf([P(a)], [Q(b)])
    p2 = leaf([P(a)], [P(b)])
    p3 = leaf([P(a), Q(a)], [Identity(a, b)])
    stepnode = node("iotar", [P(a)], [DD], [p1, p2, p3], terms=(b,), eigen=a)
    with pytest.raises(RuleError, match="eigenvariable"):
        analyze_step(stepnode)



def test_iotar_infers_the_witness_of_a_vacuous_description():
    # the description's body G does not mention y, so only the identity
    # c = a of premise 3 fixes the witness and the eigenparameter
    dd = LambdaAtom("x", P(x), IotaTerm("y", G))
    ctx = [G, P(c), Forall("z", Identity(Var("z"), c))]
    p1 = leaf(ctx, [G])
    p2 = leaf(ctx, [P(c)])
    p3 = leaf([G, *ctx], [Identity(a, c)])
    info = analyze_step(node("iotar", ctx, [dd], [p1, p2, p3]))
    assert info.terms == (c,) and info.eigen == a


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
    assert proof_params(checked.root) == {"a"}
    assert checked.cut_degrees == ()


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
        "                  sorted(proof_params(check_proof(chain(40_000)).root))]))\n"
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
    moved = replace(one, conclusion=seq([P(b)], [P(b)]))
    assert (moved.own_params, moved.params) == ({"b"}, {"b"})
    up = node("existsl", [Exists("x", P(x))], [G], [leaf([P(a)], [G])], eigen=a)
    assert (up.own_params, up.params) == (set(), {"a"})
    assert replace(up, eigen=c).params == {"a", "c"}
    chi = And(P(a), P(a))
    cut = node("cut", [P(a)], [G], [leaf([P(a)], [chi]), leaf([chi], [G])])
    assert cut.cut_degree == 1
    atomic_premises = (leaf([P(a)], [P(a)]), leaf([P(a)], [G]))
    atomic = replace(cut, premises=atomic_premises)
    assert atomic.cut_degree == 0


def test_check_leaves_the_parameter_walk_to_the_caller():
    """A check walks no names over the proof: the root's parameter set is
    stored when `proof_params` first asks for it."""
    root = exists_roundtrip_proof(a)
    check_proof(root)
    assert "params" not in vars(root)
    assert proof_params(root) == {"a"}
    assert "params" in vars(root)


# ---------------------------------------------------------------------------
# validation once per formula object


def _post_order(node, path="root"):
    prefix = "" if path == "root" else path + "."
    for i, p in enumerate(node.premises):
        yield from _post_order(p, f"{prefix}{i}")
    yield path, node


def _check_every_occurrence(root):
    """The first (path, reason) `check_proof` reports, found by validating
    every formula occurrence, as the checker did before it validated each
    formula object once; None for a valid proof."""
    arities = {}
    for path, n in _post_order(root):
        try:
            validate_sequent(n.conclusion, arities, path)
            analyze_step(n)
        except IllFormed as e:
            return path, e.reason
        except RuleError as e:
            return path, str(e)
    return None


def _shared_context_proof(shared, other=P(a)):
    """`other` proved, with one formula object `shared` weakened in and then
    carried as context by every node below it."""
    n0 = node("ax", [other], [other])
    n1 = node("wl", [shared, other], [other], [n0])
    n2 = node("wr", [shared, other], [other, G], [n1])
    n3 = node("wl", [H, shared, other], [other, G], [n2])
    n4 = node("wl", [shared, H, shared, other], [other, G], [n3])
    return node("cl", [H, shared, other], [other, G], [n4])


@pytest.mark.parametrize(
    "shared, other, reason",
    [
        (Forall("x", PredAtom("P", (x, x))), P(a), "arity"),
        (PredAtom("P", (a, b)), P(a), "arity"),
        (P(a), PredAtom("P", (a, b)), "arity"),
        (And(G, P(y)), P(a), "free variable"),
        (PredAtom("Q", (IotaTerm("y", Q(y)),)), P(a), "description outside"),
        (Not(Identity(a, IotaTerm("y", Q(y)))), P(a), "description outside"),
    ],
)
def test_validate_once_reports_the_first_occurrence(shared, other, reason):
    root = _shared_context_proof(shared, other)
    expected = _check_every_occurrence(root)
    assert expected is not None and reason in expected[1]
    with pytest.raises(CheckError) as e:
        check_proof(root)
    assert (e.value.path, e.value.reason) == expected


@pytest.mark.parametrize(
    "bad, reason",
    [
        (node("foo", [P(a)], [P(a)]), "unknown rule 'foo'"),
        (node("wl", [Q(a), P(a)], [P(a)]), "wl takes 1 premises, got 0"),
        (node("cl", [], [P(a)], [ax(P(a))]), "contracted formula must remain in the conclusion"),
    ],
)
def test_rejection_below_a_later_premise(bad, reason):
    """A step rejected at premise 0 of the root's premise 1: `check_proof`
    reports the path and reason the every-occurrence reference finds."""
    root = node("cut", [P(a)], [P(a)], [ax(P(a)), node("wl", [G, P(a)], [P(a)], [bad])])
    assert _check_every_occurrence(root) == ("1.0", reason)
    with pytest.raises(CheckError) as e:
        check_proof(root)
    assert (e.value.path, e.value.reason) == ("1.0", reason)


def test_validate_once_on_a_valid_shared_proof():
    root = _shared_context_proof(Forall("x", Q(x)))
    assert _check_every_occurrence(root) is None
    assert check_proof(root).height == 6


def test_each_formula_object_is_validated_once(monkeypatch):
    """A parsed proof shares the copies of a formula that the rules carry,
    and `check_proof` validates each shared object once per call."""
    phi = parse_formula("(lam z. Q(z) | P(x)) (iota w. R(w, x))")
    root = parse_proof(format_proof(build_leibniz(phi, "x", b, c)))
    calls = []
    validate = syntax.validate_formula

    def counting(f, *args):
        calls.append(id(f))
        return validate(f, *args)

    monkeypatch.setattr(syntax, "validate_formula", counting)
    occurrences = [f for _, n in _post_order(root) for f in n.conclusion.ant + n.conclusion.suc]
    distinct = {id(f) for f in occurrences}
    assert len(occurrences) > 2 * len(distinct)
    check_proof(root)
    assert sorted(calls) == sorted(distinct)
    calls.clear()
    check_proof(root)  # nothing is remembered from one call to the next
    assert sorted(calls) == sorted(distinct)


# ---------------------------------------------------------------------------
# frozen verdicts
#
# Rows of the `kernel` gate in tools/output_gates.py: fixtures and seeded
# desk-check proofs with one node perturbed, printed on one line, with the
# verdict the checker gave when it still validated every formula occurrence
# and rebuilt a Counter per rule. One row per rejection reason (among the
# printed forms up to 2,000 characters that parse back to the same tree) and
# three accepted ones. Rows on which that checker crashed are left out, but
# for the last: an eqminus with one annotated term, which crashed it.

KERNEL_VERDICTS = [
    # desk 33: term at 0.0
    ('(negr (seq (#b1 = #b2, ~Q(#b1)) (~Q(#b2))) (negl (seq (~Q(#b1), #b1 = #b2, Q(#b2)) ()) (eqplus (seq (#b1 = #b2, Q(#b2)) (Q(#b1))) :term $k (eqminus (seq (#b1 = #b2, #b1 = #b1, Q(#b2)) (Q(#b1))) (eqminus (seq (#b2 = #b1, Q(#b2)) (Q(#b1))) (ax (seq (Q(#b1)) (Q(#b1)))))))))',
     'rejected path=0.0: annotated term does not match the discharged identity'),
    # desk 47: drop at 0
    ('(wl (seq (#b1 = #b2, P(#b) | Q($c)) (P(#b) | Q($c))) (ax (seq () (P(#b) | Q($c)))))',
     'rejected path=0: axiom must be a single formula on each side'),
    # desk 47: rename at 0
    ('(wl (seq (#b1 = #b2, P(#b) | Q($c)) (P(#b) | Q($c))) (ax (seq (P(#b) | Q($c)) (P($k) | Q($c)))))',
     'rejected path=0: axiom sides differ'),
    # desk 15: drop at root
    ('(wl (seq (Q($c) -> Q(#b)) (Q($c) -> Q(#b))) (ax (seq (Q($c) -> Q(#b)) (Q($c) -> Q(#b)))))',
     'rejected path=root: conclusion must add exactly one formula'),
    # desk 23: eigen at 0
    ('(cl (seq (#b1 = #b2, (lam v56. P(#a)) (iota v57. P(#b1))) ((lam v56. P(#a)) (iota v57. P(#b2)))) (iota1l (seq (#b1 = #b2, (lam v56. P(#a)) (iota v57. P(#b1)), (lam v56. P(#a)) (iota v57. P(#b1))) ((lam v56. P(#a)) (iota v57. P(#b2)))) :eigen #a (iotar (seq (P(#b1), P(#a), #b1 = #b2, (lam v56. P(#a)) (iota v57. P(#b1))) ((lam v56. P(#a)) (iota v57. P(#b2)))) :term #a1 :eigen #a2 (wl (seq (P(#b1), P(#a), #b1 = #b2, (lam v56. P(#a)) (iota v57. P(#b1))) (P(#b2))) (wl (seq (P(#a), #b1 = #b2, P(#b1)) (P(#b2))) (eqminus (seq (#b1 = #b2, P(#b1)) (P(#b2))) (ax (seq (P(#b2)) (P(#b2))))))) (wl (seq (P(#b1), P(#a), #b1 = #b2, (lam v56. P(#a)) (iota v57. P(#b1))) (P(#a))) (wl (seq (P(#b1), #b1 = #b2, P(#a)) (P(#a))) (wl (seq (#b1 = #b2, P(#a)) (P(#a))) (ax (seq (P(#a)) (P(#a))))))) (iota2l (seq ((lam v56. P(#a)) (iota v57. P(#b1)), P(#b2), P(#b1), P(#a), #b1 = #b2) (#a2 = #a1)) :term #a2 :term #a1 (wr (seq (P(#b2), P(#b1), P(#a), #b1 = #b2) (#a2 = #a1, P(#b1))) (wl (seq (P(#a), P(#b1), #b1 = #b2, P(#b2)) (P(#b1))) (wl (seq (P(#b1), #b1 = #b2, P(#b2)) (P(#b1))) (eqplus (seq (#b1 = #b2, P(#b2)) (P(#b1))) (eqminus (seq (#b1 = #b2, #b1 = #b1, P(#b2)) (P(#b1))) (eqminus (seq (#b2 = #b1, P(#b2)) (P(#b1))) (ax (seq (P(#b1)) (P(#b1)))))))))) (wr (seq (P(#b2), P(#b1), P(#a), #b1 = #b2) (#a2 = #a1, P(#b1))) (wl (seq (#b1 = #b2, P(#a), P(#b2), P(#b1)) (P(#b1))) (wl (seq (P(#a), P(#b2), P(#b1)) (P(#b1))) (wl (seq (P(#b2), P(#b1)) (P(#b1))) (ax (seq (P(#b1)) (P(#b1)))))))) (wl (seq (#a2 = #a1, P(#b2), P(#b1), P(#a), #b1 = #b2) (#a2 = #a1)) (wl (seq (P(#a), P(#b1), P(#b2), #a2 = #a1) (#a2 = #a1)) (wl (seq (P(#b1), P(#b2), #a2 = #a1) (#a2 = #a1)) (wl (seq (P(#b2), #a2 = #a1) (#a2 = #a1)) (ax (seq (#a2 = #a1) (#a2 = #a1)))))))))))',
     'rejected path=0: eigenvariable a occurs in the conclusion'),
    # fixture sym_trans: move at 0.0
    ('(eqplus (seq (#b1 = #b, #b2 = #b) (#b1 = #b2)) (eqminus (seq (#b2 = #b, #b2 = #b2, #b1 = #b) (#b1 = #b2)) (eqminus (seq (#b1 = #b) (#b = #b2, #b1 = #b2)) (ax (seq (#b1 = #b2) (#b1 = #b2))))))',
     'rejected path=0.0: eqminus must leave the succedent alone'),
    # fixture sym_trans: move at root
    ('(eqplus (seq (#b1 = #b) (#b1 = #b2, #b2 = #b)) (eqminus (seq (#b2 = #b, #b2 = #b2, #b1 = #b) (#b1 = #b2)) (eqminus (seq (#b = #b2, #b1 = #b) (#b1 = #b2)) (ax (seq (#b1 = #b2) (#b1 = #b2))))))',
     'rejected path=root: eqplus must leave the succedent alone'),
    # desk 47: rename at 0
    ('(wl (seq (#b1 = #b2, P(#b) | Q($c)) (P(#b) | Q($c))) (ax (seq (P(x) | Q($c)) (P(#b) | Q($c)))))',
     "rejected path=0: free variable(s) ['x'] in sequent"),
    # fixture rlambda_left: term at 0.0.0.0.0.0.0
    ('(cl (seq ((lam x. P(x)) (iota y. Q(y))) (exists x. (forall y. Q(y) <-> y = x) & P(x))) (iota1l (seq ((lam x. P(x)) (iota y. Q(y)), (lam x. P(x)) (iota y. Q(y))) (exists x. (forall y. Q(y) <-> y = x) & P(x))) :eigen #a1 (existsr (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (exists x. (forall y. Q(y) <-> y = x) & P(x))) :term #a1 (andr (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) ((forall y. Q(y) <-> y = #a1) & P(#a1))) (wl (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (forall y. Q(y) <-> y = #a1)) (forallr (seq ((lam x. P(x)) (iota y. Q(y)), Q(#a1)) (forall y. Q(y) <-> y = #a1)) :eigen #a2 (iffr (seq ((lam x. P(x)) (iota y. Q(y)), Q(#a1)) (Q(#a2) <-> #a2 = #a1)) (iota2l (seq ((lam x. P(x)) (iota y. Q(y)), Q(#a1), Q(#a2)) (#a2 = #a1)) :term #a2 :term #a1 :term x (wr (seq (Q(#a1), Q(#a2)) (#a2 = #a1, Q(#a2))) (wl (seq (Q(#a1), Q(#a2)) (Q(#a2))) (ax (seq (Q(#a2)) (Q(#a2)))))) (wr (seq (Q(#a1), Q(#a2)) (#a2 = #a1, Q(#a1))) (wl (seq (Q(#a2), Q(#a1)) (Q(#a1))) (ax (seq (Q(#a1)) (Q(#a1)))))) (wl (seq (#a2 = #a1, Q(#a1), Q(#a2)) (#a2 = #a1)) (wl (seq (Q(#a1), #a2 = #a1) (#a2 = #a1)) (ax (seq (#a2 = #a1) (#a2 = #a1)))))) (wl (seq (#a2 = #a1, (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (Q(#a2))) (eqplus (seq (#a2 = #a1, Q(#a1)) (Q(#a2))) (eqminus (seq (#a2 = #a1, #a2 = #a2, Q(#a1)) (Q(#a2))) (eqminus (seq (#a1 = #a2, Q(#a1)) (Q(#a2))) (ax (seq (Q(#a2)) (Q(#a2))))))))))) (wl (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (P(#a1))) (wl (seq ((lam x. P(x)) (iota y. Q(y)), P(#a1)) (P(#a1))) (ax (seq (P(#a1)) (P(#a1))))))))))',
     'rejected path=0.0.0.0.0.0.0: iota2l takes two annotated terms or none'),
    # fixture leibniz_bool: move at 1
    ('(andr (seq (#b1 = #b2, P(#b1) & ~Q(#b1)) (P(#b2) & ~Q(#b2))) (andl (seq (#b1 = #b2, P(#b1) & ~Q(#b1)) (P(#b2))) (wl (seq (#b1 = #b2, P(#b1), ~Q(#b1)) (P(#b2))) (eqminus (seq (#b1 = #b2, P(#b1)) (P(#b2))) (ax (seq (P(#b2)) (P(#b2))))))) (andl (seq (#b1 = #b2) (P(#b1) & ~Q(#b1), ~Q(#b2))) (wl (seq (#b1 = #b2, P(#b1), ~Q(#b1)) (~Q(#b2))) (negr (seq (#b1 = #b2, ~Q(#b1)) (~Q(#b2))) (negl (seq (~Q(#b1), #b1 = #b2, Q(#b2)) ()) (eqplus (seq (#b1 = #b2, Q(#b2)) (Q(#b1))) (eqminus (seq (#b1 = #b2, #b1 = #b1, Q(#b2)) (Q(#b1))) (eqminus (seq (#b2 = #b1, Q(#b2)) (Q(#b1))) (ax (seq (Q(#b1)) (Q(#b1))))))))))))',
     'rejected path=1: no andl principal formula matches the premise'),
    # fixture leibniz_bool: duplicate at root
    ('(andr (seq (#b1 = #b2, P(#b1) & ~Q(#b1), #b1 = #b2) (P(#b2) & ~Q(#b2))) (andl (seq (#b1 = #b2, P(#b1) & ~Q(#b1)) (P(#b2))) (wl (seq (#b1 = #b2, P(#b1), ~Q(#b1)) (P(#b2))) (eqminus (seq (#b1 = #b2, P(#b1)) (P(#b2))) (ax (seq (P(#b2)) (P(#b2))))))) (andl (seq (#b1 = #b2, P(#b1) & ~Q(#b1)) (~Q(#b2))) (wl (seq (#b1 = #b2, P(#b1), ~Q(#b1)) (~Q(#b2))) (negr (seq (#b1 = #b2, ~Q(#b1)) (~Q(#b2))) (negl (seq (~Q(#b1), #b1 = #b2, Q(#b2)) ()) (eqplus (seq (#b1 = #b2, Q(#b2)) (Q(#b1))) (eqminus (seq (#b1 = #b2, #b1 = #b1, Q(#b2)) (Q(#b1))) (eqminus (seq (#b2 = #b1, Q(#b2)) (Q(#b1))) (ax (seq (Q(#b1)) (Q(#b1))))))))))))',
     'rejected path=root: no andr principal formula matches the premises'),
    # fixture leibniz_quant: drop at root
    ('(existsl (seq (#b1 = #b2, exists y. y = #b1) ()) :eigen #a1 (existsr (seq (#b1 = #b2, #a1 = #b1) (exists y. y = #b2)) :term #a1 (eqminus (seq (#b1 = #b2, #a1 = #b1) (#a1 = #b2)) (ax (seq (#a1 = #b2) (#a1 = #b2))))))',
     'rejected path=root: no existsl instance matches the premise'),
    # fixture leibniz_quant: move at 0
    ('(existsl (seq (#b1 = #b2, exists y. y = #b1) (exists y. y = #b2)) :eigen #a1 (existsr (seq (#b1 = #b2, exists y. y = #b2, #a1 = #b1) ()) :term #a1 (eqminus (seq (#b1 = #b2, #a1 = #b1) (#a1 = #b2)) (ax (seq (#a1 = #b2) (#a1 = #b2))))))',
     'rejected path=0: no existsr instance matches the premise'),
    # fixture rlambda_left: move at 0.0.0.0.0
    ('(cl (seq ((lam x. P(x)) (iota y. Q(y))) (exists x. (forall y. Q(y) <-> y = x) & P(x))) (iota1l (seq ((lam x. P(x)) (iota y. Q(y)), (lam x. P(x)) (iota y. Q(y))) (exists x. (forall y. Q(y) <-> y = x) & P(x))) :eigen #a1 (existsr (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (exists x. (forall y. Q(y) <-> y = x) & P(x))) :term #a1 (andr (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) ((forall y. Q(y) <-> y = #a1) & P(#a1))) (wl (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (forall y. Q(y) <-> y = #a1)) (forallr (seq ((lam x. P(x)) (iota y. Q(y))) (Q(#a1), forall y. Q(y) <-> y = #a1)) :eigen #a2 (iffr (seq ((lam x. P(x)) (iota y. Q(y)), Q(#a1)) (Q(#a2) <-> #a2 = #a1)) (iota2l (seq ((lam x. P(x)) (iota y. Q(y)), Q(#a1), Q(#a2)) (#a2 = #a1)) :term #a2 :term #a1 (wr (seq (Q(#a1), Q(#a2)) (#a2 = #a1, Q(#a2))) (wl (seq (Q(#a1), Q(#a2)) (Q(#a2))) (ax (seq (Q(#a2)) (Q(#a2)))))) (wr (seq (Q(#a1), Q(#a2)) (#a2 = #a1, Q(#a1))) (wl (seq (Q(#a2), Q(#a1)) (Q(#a1))) (ax (seq (Q(#a1)) (Q(#a1)))))) (wl (seq (#a2 = #a1, Q(#a1), Q(#a2)) (#a2 = #a1)) (wl (seq (Q(#a1), #a2 = #a1) (#a2 = #a1)) (ax (seq (#a2 = #a1) (#a2 = #a1)))))) (wl (seq (#a2 = #a1, (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (Q(#a2))) (eqplus (seq (#a2 = #a1, Q(#a1)) (Q(#a2))) (eqminus (seq (#a2 = #a1, #a2 = #a2, Q(#a1)) (Q(#a2))) (eqminus (seq (#a1 = #a2, Q(#a1)) (Q(#a2))) (ax (seq (Q(#a2)) (Q(#a2))))))))))) (wl (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (P(#a1))) (wl (seq ((lam x. P(x)) (iota y. Q(y)), P(#a1)) (P(#a1))) (ax (seq (P(#a1)) (P(#a1))))))))))',
     'rejected path=0.0.0.0.0: no forallr instance matches the premise'),
    # fixture sym_trans: drop at 0
    ('(eqplus (seq (#b1 = #b, #b2 = #b) (#b1 = #b2)) (eqminus (seq (#b2 = #b, #b1 = #b) (#b1 = #b2)) (eqminus (seq (#b = #b2, #b1 = #b) (#b1 = #b2)) (ax (seq (#b1 = #b2) (#b1 = #b2))))))',
     'rejected path=0: no identity/atom pair in the antecedent matches the premise'),
    # fixture rlambda_right: move at 0.0.0.0
    ('(existsl (seq (exists x. (forall y. Q(y) <-> y = x) & P(x)) ((lam x. P(x)) (iota y. Q(y)))) :eigen #a1 (andl (seq ((forall y. Q(y) <-> y = #a1) & P(#a1)) ((lam x. P(x)) (iota y. Q(y)))) (iotar (seq (forall y. Q(y) <-> y = #a1, P(#a1)) ((lam x. P(x)) (iota y. Q(y)))) :term #a1 :eigen #a2 (foralll (seq (forall y. Q(y) <-> y = #a1, P(#a1)) (Q(#a1))) :term #a1 (iffl (seq (Q(#a1) <-> #a1 = #a1) (P(#a1), Q(#a1))) (wr (seq (P(#a1)) (Q(#a1), Q(#a1), #a1 = #a1)) (wr (seq (P(#a1)) (#a1 = #a1, Q(#a1))) (wl (seq (P(#a1)) (#a1 = #a1)) (eqplus (seq () (#a1 = #a1)) (ax (seq (#a1 = #a1) (#a1 = #a1))))))) (wl (seq (Q(#a1), #a1 = #a1, P(#a1)) (Q(#a1))) (wl (seq (#a1 = #a1, Q(#a1)) (Q(#a1))) (ax (seq (Q(#a1)) (Q(#a1)))))))) (wl (seq (forall y. Q(y) <-> y = #a1, P(#a1)) (P(#a1))) (ax (seq (P(#a1)) (P(#a1))))) (foralll (seq (Q(#a2), forall y. Q(y) <-> y = #a1, P(#a1)) (#a2 = #a1)) :term #a2 (iffl (seq (Q(#a2) <-> #a2 = #a1, Q(#a2), P(#a1)) (#a2 = #a1)) (wr (seq (Q(#a2), P(#a1)) (#a2 = #a1, Q(#a2), #a2 = #a1)) (wr (seq (P(#a1), Q(#a2)) (Q(#a2), #a2 = #a1)) (wl (seq (P(#a1), Q(#a2)) (Q(#a2))) (ax (seq (Q(#a2)) (Q(#a2))))))) (wl (seq (Q(#a2), #a2 = #a1, Q(#a2), P(#a1)) (#a2 = #a1)) (wl (seq (Q(#a2), Q(#a2), #a2 = #a1) (#a2 = #a1)) (wl (seq (Q(#a2), #a2 = #a1) (#a2 = #a1)) (ax (seq (#a2 = #a1) (#a2 = #a1)))))))))))',
     'rejected path=0.0.0.0: no iffl principal formula matches the premises'),
    # desk 41: drop at 0
    ('(impr (seq (#b1 = #b2, (lam v114. (exists v115. $c = #a) & #b = #a) #b1 -> Q(#b1)) ((lam v114. (exists v115. $c = #a) & #b = #a) #b2 -> Q(#b2))) (impl (seq ((lam v114. (exists v115. $c = #a) & #b = #a) #b2, #b1 = #b2) (Q(#b2))) (wr (seq ((lam v114. (exists v115. $c = #a) & #b = #a) #b2, #b1 = #b2) (Q(#b2), (lam v114. (exists v115. $c = #a) & #b = #a) #b1)) (eqplus (seq (#b1 = #b2, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ((lam v114. (exists v115. $c = #a) & #b = #a) #b1)) (eqminus (seq (#b1 = #b2, #b1 = #b1, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ((lam v114. (exists v115. $c = #a) & #b = #a) #b1)) (lamr (seq (#b2 = #b1, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ((lam v114. (exists v115. $c = #a) & #b = #a) #b1)) (laml (seq (#b2 = #b1, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ((exists v115. $c = #a) & #b = #a)) (wl (seq (#b2 = #b1, (exists v115. $c = #a) & #b = #a) ((exists v115. $c = #a) & #b = #a)) (ax (seq ((exists v115. $c = #a) & #b = #a) ((exists v115. $c = #a) & #b = #a))))))))) (wl (seq (Q(#b1), (lam v114. (exists v115. $c = #a) & #b = #a) #b2, #b1 = #b2) (Q(#b2))) (eqminus (seq (#b1 = #b2, Q(#b1)) (Q(#b2))) (ax (seq (Q(#b2)) (Q(#b2))))))))',
     'rejected path=0: no impl principal formula matches the premises'),
    # desk 7: at at root
    ('(impr (seq (#b1 = #b2, Q(#b1) -> Q(#b1) | Q($c)) (Q(#b2) -> Q(#b2) | Q($c))) :at 2 (impl (seq (Q(#b1) -> Q(#b1) | Q($c), Q(#b2), #b1 = #b2) (Q(#b2) | Q($c))) (wr (seq (Q(#b2), #b1 = #b2) (Q(#b2) | Q($c), Q(#b1))) (eqplus (seq (#b1 = #b2, Q(#b2)) (Q(#b1))) (eqminus (seq (#b1 = #b2, #b1 = #b1, Q(#b2)) (Q(#b1))) (eqminus (seq (#b2 = #b1, Q(#b2)) (Q(#b1))) (ax (seq (Q(#b1)) (Q(#b1)))))))) (wl (seq (Q(#b1) | Q($c), Q(#b2), #b1 = #b2) (Q(#b2) | Q($c))) (orl (seq (#b1 = #b2, Q(#b1) | Q($c)) (Q(#b2) | Q($c))) (orr (seq (#b1 = #b2, Q(#b1)) (Q(#b2) | Q($c))) (wr (seq (#b1 = #b2, Q(#b1)) (Q(#b2), Q($c))) (eqminus (seq (#b1 = #b2, Q(#b1)) (Q(#b2))) (ax (seq (Q(#b2)) (Q(#b2))))))) (orr (seq (#b1 = #b2, Q($c)) (Q(#b2) | Q($c))) (wr (seq (#b1 = #b2, Q($c)) (Q(#b2), Q($c))) (wl (seq (#b1 = #b2, Q($c)) (Q($c))) (ax (seq (Q($c)) (Q($c)))))))))))',
     'rejected path=root: no impr principal formula matches the premise'),
    # fixture rlambda_left: drop at 0
    ('(cl (seq ((lam x. P(x)) (iota y. Q(y))) (exists x. (forall y. Q(y) <-> y = x) & P(x))) (iota1l (seq ((lam x. P(x)) (iota y. Q(y)), (lam x. P(x)) (iota y. Q(y))) ()) :eigen #a1 (existsr (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (exists x. (forall y. Q(y) <-> y = x) & P(x))) :term #a1 (andr (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) ((forall y. Q(y) <-> y = #a1) & P(#a1))) (wl (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (forall y. Q(y) <-> y = #a1)) (forallr (seq ((lam x. P(x)) (iota y. Q(y)), Q(#a1)) (forall y. Q(y) <-> y = #a1)) :eigen #a2 (iffr (seq ((lam x. P(x)) (iota y. Q(y)), Q(#a1)) (Q(#a2) <-> #a2 = #a1)) (iota2l (seq ((lam x. P(x)) (iota y. Q(y)), Q(#a1), Q(#a2)) (#a2 = #a1)) :term #a2 :term #a1 (wr (seq (Q(#a1), Q(#a2)) (#a2 = #a1, Q(#a2))) (wl (seq (Q(#a1), Q(#a2)) (Q(#a2))) (ax (seq (Q(#a2)) (Q(#a2)))))) (wr (seq (Q(#a1), Q(#a2)) (#a2 = #a1, Q(#a1))) (wl (seq (Q(#a2), Q(#a1)) (Q(#a1))) (ax (seq (Q(#a1)) (Q(#a1)))))) (wl (seq (#a2 = #a1, Q(#a1), Q(#a2)) (#a2 = #a1)) (wl (seq (Q(#a1), #a2 = #a1) (#a2 = #a1)) (ax (seq (#a2 = #a1) (#a2 = #a1)))))) (wl (seq (#a2 = #a1, (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (Q(#a2))) (eqplus (seq (#a2 = #a1, Q(#a1)) (Q(#a2))) (eqminus (seq (#a2 = #a1, #a2 = #a2, Q(#a1)) (Q(#a2))) (eqminus (seq (#a1 = #a2, Q(#a1)) (Q(#a2))) (ax (seq (Q(#a2)) (Q(#a2))))))))))) (wl (seq (P(#a1), (lam x. P(x)) (iota y. Q(y)), Q(#a1)) (P(#a1))) (wl (seq ((lam x. P(x)) (iota y. Q(y)), P(#a1)) (P(#a1))) (ax (seq (P(#a1)) (P(#a1))))))))))',
     'rejected path=0: no iota1l instance matches the premise'),
    # desk 41: rename at 0.0.0.0.0.0
    ('(impr (seq (#b1 = #b2, (lam v114. (exists v115. $c = #a) & #b = #a) #b1 -> Q(#b1)) ((lam v114. (exists v115. $c = #a) & #b = #a) #b2 -> Q(#b2))) (impl (seq ((lam v114. (exists v115. $c = #a) & #b = #a) #b1 -> Q(#b1), (lam v114. (exists v115. $c = #a) & #b = #a) #b2, #b1 = #b2) (Q(#b2))) (wr (seq ((lam v114. (exists v115. $c = #a) & #b = #a) #b2, #b1 = #b2) (Q(#b2), (lam v114. (exists v115. $c = #a) & #b = #a) #b1)) (eqplus (seq (#b1 = #b2, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ((lam v114. (exists v115. $c = #a) & #b = #a) #b1)) (eqminus (seq (#b1 = #b2, #b1 = #b1, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ((lam v114. (exists v115. $c = #a) & #b = #a) #b1)) (lamr (seq (#b2 = #b1, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ((lam v114. (exists v115. $c = #a) & #b = #a) #b1)) (laml (seq (#b2 = #b1, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ((exists v115. $c = #a9) & #b = #a9)) (wl (seq (#b2 = #b1, (exists v115. $c = #a) & #b = #a) ((exists v115. $c = #a) & #b = #a)) (ax (seq ((exists v115. $c = #a) & #b = #a) ((exists v115. $c = #a) & #b = #a))))))))) (wl (seq (Q(#b1), (lam v114. (exists v115. $c = #a) & #b = #a) #b2, #b1 = #b2) (Q(#b2))) (eqminus (seq (#b1 = #b2, Q(#b1)) (Q(#b2))) (ax (seq (Q(#b2)) (Q(#b2))))))))',
     'rejected path=0.0.0.0.0.0: no laml abstract matches the premise'),
    # desk 41: drop at 0.0.0.0.0
    ('(impr (seq (#b1 = #b2, (lam v114. (exists v115. $c = #a) & #b = #a) #b1 -> Q(#b1)) ((lam v114. (exists v115. $c = #a) & #b = #a) #b2 -> Q(#b2))) (impl (seq ((lam v114. (exists v115. $c = #a) & #b = #a) #b1 -> Q(#b1), (lam v114. (exists v115. $c = #a) & #b = #a) #b2, #b1 = #b2) (Q(#b2))) (wr (seq ((lam v114. (exists v115. $c = #a) & #b = #a) #b2, #b1 = #b2) (Q(#b2), (lam v114. (exists v115. $c = #a) & #b = #a) #b1)) (eqplus (seq (#b1 = #b2, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ((lam v114. (exists v115. $c = #a) & #b = #a) #b1)) (eqminus (seq (#b1 = #b2, #b1 = #b1, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ((lam v114. (exists v115. $c = #a) & #b = #a) #b1)) (lamr (seq (#b2 = #b1, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ()) (laml (seq (#b2 = #b1, (lam v114. (exists v115. $c = #a) & #b = #a) #b2) ((exists v115. $c = #a) & #b = #a)) (wl (seq (#b2 = #b1, (exists v115. $c = #a) & #b = #a) ((exists v115. $c = #a) & #b = #a)) (ax (seq ((exists v115. $c = #a) & #b = #a) ((exists v115. $c = #a) & #b = #a))))))))) (wl (seq (Q(#b1), (lam v114. (exists v115. $c = #a) & #b = #a) #b2, #b1 = #b2) (Q(#b2))) (eqminus (seq (#b1 = #b2, Q(#b1)) (Q(#b2))) (ax (seq (Q(#b2)) (Q(#b2))))))))',
     'rejected path=0.0.0.0.0: no lamr abstract matches the premise'),
    # desk 33: at at 0
    ('(negr (seq (#b1 = #b2, ~Q(#b1)) (~Q(#b2))) (negl (seq (~Q(#b1), #b1 = #b2, Q(#b2)) ()) :at 3 (eqplus (seq (#b1 = #b2, Q(#b2)) (Q(#b1))) (eqminus (seq (#b1 = #b2, #b1 = #b1, Q(#b2)) (Q(#b1))) (eqminus (seq (#b2 = #b1, Q(#b2)) (Q(#b1))) (ax (seq (Q(#b1)) (Q(#b1)))))))))',
     'rejected path=0: no negl principal formula matches the premise'),
    # desk 33: drop at root
    ('(negr (seq (#b1 = #b2) (~Q(#b2))) (negl (seq (~Q(#b1), #b1 = #b2, Q(#b2)) ()) (eqplus (seq (#b1 = #b2, Q(#b2)) (Q(#b1))) (eqminus (seq (#b1 = #b2, #b1 = #b1, Q(#b2)) (Q(#b1))) (eqminus (seq (#b2 = #b1, Q(#b2)) (Q(#b1))) (ax (seq (Q(#b1)) (Q(#b1)))))))))',
     'rejected path=root: no negr principal formula matches the premise'),
    # desk 7: duplicate at 0.1.0
    ('(impr (seq (#b1 = #b2, Q(#b1) -> Q(#b1) | Q($c)) (Q(#b2) -> Q(#b2) | Q($c))) (impl (seq (Q(#b1) -> Q(#b1) | Q($c), Q(#b2), #b1 = #b2) (Q(#b2) | Q($c))) (wr (seq (Q(#b2), #b1 = #b2) (Q(#b2) | Q($c), Q(#b1))) (eqplus (seq (#b1 = #b2, Q(#b2)) (Q(#b1))) (eqminus (seq (#b1 = #b2, #b1 = #b1, Q(#b2)) (Q(#b1))) (eqminus (seq (#b2 = #b1, Q(#b2)) (Q(#b1))) (ax (seq (Q(#b1)) (Q(#b1)))))))) (wl (seq (Q(#b1) | Q($c), Q(#b2), #b1 = #b2) (Q(#b2) | Q($c))) (orl (seq (#b1 = #b2, Q(#b1) | Q($c)) (Q(#b2) | Q($c), Q(#b2) | Q($c))) (orr (seq (#b1 = #b2, Q(#b1)) (Q(#b2) | Q($c))) (wr (seq (#b1 = #b2, Q(#b1)) (Q(#b2), Q($c))) (eqminus (seq (#b1 = #b2, Q(#b1)) (Q(#b2))) (ax (seq (Q(#b2)) (Q(#b2))))))) (orr (seq (#b1 = #b2, Q($c)) (Q(#b2) | Q($c))) (wr (seq (#b1 = #b2, Q($c)) (Q(#b2), Q($c))) (wl (seq (#b1 = #b2, Q($c)) (Q($c))) (ax (seq (Q($c)) (Q($c)))))))))))',
     'rejected path=0.1.0: no orl principal formula matches the premises'),
    # desk 57: move at 1
    ('(orl (seq (#b1 = #b2, (exists v165. ~#b = $c) | Q(#b1)) ((exists v165. ~#b = $c) | Q(#b2))) (orr (seq (#b1 = #b2, exists v165. ~#b = $c) ((exists v165. ~#b = $c) | Q(#b2))) (wr (seq (#b1 = #b2, exists v165. ~#b = $c) (exists v165. ~#b = $c, Q(#b2))) (wl (seq (#b1 = #b2, exists v165. ~#b = $c) (exists v165. ~#b = $c)) (ax (seq (exists v165. ~#b = $c) (exists v165. ~#b = $c)))))) (orr (seq ((exists v165. ~#b = $c) | Q(#b2), #b1 = #b2, Q(#b1)) ()) (wr (seq (#b1 = #b2, Q(#b1)) (exists v165. ~#b = $c, Q(#b2))) (eqminus (seq (#b1 = #b2, Q(#b1)) (Q(#b2))) (ax (seq (Q(#b2)) (Q(#b2))))))))',
     'rejected path=1: no orr principal formula matches the premise'),
    # desk 47
    ('(wl (seq (#b1 = #b2, P(#b) | Q($c)) (P(#b) | Q($c))) (ax (seq (P(#b) | Q($c)) (P(#b) | Q($c)))))',
     'ok height=2 cut_degrees=()'),
    # desk 54: rename at 0
    ('(wl (seq (#b1 = #b2, forall v156. ~forall v157. ~exists v158. Q(v156)) (forall v156. ~forall v157. ~exists v158. Q(v156))) (ax (seq (forall v156. ~forall v157. ~exists v158. Q(v156)) (forall v156. ~forall v157. ~exists v158. Q(v156)))))',
     'ok height=2 cut_degrees=()'),
    # desk 57: term at 1.0.0.0
    ('(orl (seq (#b1 = #b2, (exists v165. ~#b = $c) | Q(#b1)) ((exists v165. ~#b = $c) | Q(#b2))) (orr (seq (#b1 = #b2, exists v165. ~#b = $c) ((exists v165. ~#b = $c) | Q(#b2))) (wr (seq (#b1 = #b2, exists v165. ~#b = $c) (exists v165. ~#b = $c, Q(#b2))) (wl (seq (#b1 = #b2, exists v165. ~#b = $c) (exists v165. ~#b = $c)) (ax (seq (exists v165. ~#b = $c) (exists v165. ~#b = $c)))))) (orr (seq (#b1 = #b2, Q(#b1)) ((exists v165. ~#b = $c) | Q(#b2))) (wr (seq (#b1 = #b2, Q(#b1)) (exists v165. ~#b = $c, Q(#b2))) (eqminus (seq (#b1 = #b2, Q(#b1)) (Q(#b2))) (ax (seq (Q(#b2)) (Q(#b2))) :term #b2)))))',
     'rejected path=1.0.0.0: ax takes no annotated term'),
    # fixture sym_trans: drop at root
    ('(eqplus (seq (#b1 = #b) (#b1 = #b2)) (eqminus (seq (#b2 = #b, #b2 = #b2, #b1 = #b) (#b1 = #b2)) (eqminus (seq (#b = #b2, #b1 = #b) (#b1 = #b2)) (ax (seq (#b1 = #b2) (#b1 = #b2))))))',
     'rejected path=root: premise must have exactly one extra antecedent formula'),
    # desk 57: drop at 1.0
    ('(orl (seq (#b1 = #b2, (exists v165. ~#b = $c) | Q(#b1)) ((exists v165. ~#b = $c) | Q(#b2))) (orr (seq (#b1 = #b2, exists v165. ~#b = $c) ((exists v165. ~#b = $c) | Q(#b2))) (wr (seq (#b1 = #b2, exists v165. ~#b = $c) (exists v165. ~#b = $c, Q(#b2))) (wl (seq (#b1 = #b2, exists v165. ~#b = $c) (exists v165. ~#b = $c)) (ax (seq (exists v165. ~#b = $c) (exists v165. ~#b = $c)))))) (orr (seq (#b1 = #b2, Q(#b1)) ((exists v165. ~#b = $c) | Q(#b2))) (wr (seq (Q(#b1)) (exists v165. ~#b = $c, Q(#b2))) (eqminus (seq (#b1 = #b2, Q(#b1)) (Q(#b2))) (ax (seq (Q(#b2)) (Q(#b2))))))))',
     'rejected path=1.0: weakening must leave the antecedent side alone'),
    # desk 15: drop at root
    ('(wl (seq (#b1 = #b2, Q($c) -> Q(#b)) ()) (ax (seq (Q($c) -> Q(#b)) (Q($c) -> Q(#b)))))',
     'rejected path=root: weakening must leave the succedent side alone'),
    # fixture sym_trans: term at 0.0
    ('(eqplus (seq (#b1 = #b, #b2 = #b) (#b1 = #b2)) (eqminus (seq (#b2 = #b, #b2 = #b2, #b1 = #b) (#b1 = #b2)) (eqminus (seq (#b = #b2, #b1 = #b) (#b1 = #b2)) :term #a9 (ax (seq (#b1 = #b2) (#b1 = #b2))))))',
     'rejected path=0.0: eqminus takes two annotated terms or none'),
    # a contraction whose premise lacks a succedent formula
    ('(cl (seq (P(#a)) (P(#a), Q(#a))) (ax (seq (P(#a)) (P(#a)))))',
     'rejected path=root: contraction must leave the succedent side alone'),
    # annotations a rule does not take
    ('(ax (seq (P(#a)) (P(#a))) :term #b :eigen #c)',
     'rejected path=root: ax takes no annotated term'),
    ('(negl (seq (~P(#a), P(#a)) ()) :term #b (ax (seq (P(#a)) (P(#a)))))',
     'rejected path=root: negl takes no annotated term'),
    ('(foralll (seq (forall x. P(x)) (P(#a))) :term #a :term #a (ax (seq (P(#a)) (P(#a)))))',
     'rejected path=root: foralll takes one annotated term or none'),
    ('(eqplus (seq (Q(#b)) (#a = #a)) :term #a :term #a (wl (seq (#a = #a, Q(#b)) (#a = #a)) (ax (seq (#a = #a) (#a = #a)))))',
     'rejected path=root: eqplus takes one annotated term or none'),
    ('(foralll (seq (forall x. P(x)) (P(#a))) :term #a :eigen #b (ax (seq (P(#a)) (P(#a)))))',
     'rejected path=root: foralll takes no eigenvariable'),
    # an :at on a rule whose conclusion carries no principal formula
    ('(ax (seq (P(#a)) (P(#a))) :at 7)',
     'rejected path=root: ax takes no :at'),
    ('(cut (seq (P(#a)) (P(#a))) :at 0 (ax (seq (P(#a)) (P(#a)))) (ax (seq (P(#a)) (P(#a)))))',
     'rejected path=root: cut takes no :at'),
    ('(wl (seq (Q(#a), P(#a)) (P(#a))) :at 0 (ax (seq (P(#a)) (P(#a)))))',
     'rejected path=root: wl takes no :at'),
    ('(wr (seq (P(#a)) (P(#a), Q(#a))) :at 1 (ax (seq (P(#a)) (P(#a)))))',
     'rejected path=root: wr takes no :at'),
    ('(cl (seq (P(#a)) (P(#a))) :at 0 (wl (seq (P(#a), P(#a)) (P(#a))) (ax (seq (P(#a)) (P(#a))))))',
     'rejected path=root: cl takes no :at'),
    ('(cr (seq (P(#a)) (P(#a))) :at 0 (wr (seq (P(#a)) (P(#a), P(#a))) (ax (seq (P(#a)) (P(#a))))))',
     'rejected path=root: cr takes no :at'),
    ('(eqplus (seq (P(#a)) (P(#a))) :at 0 (wl (seq (#a = #a, P(#a)) (P(#a))) (ax (seq (P(#a)) (P(#a))))))',
     'rejected path=root: eqplus takes no :at'),
    # eqminus reads :at as its identity's index
    ('(eqminus (seq (#b1 = #b2, Q(#b1)) (Q(#b2))) :at 0 (ax (seq (Q(#b2)) (Q(#b2)))))',
     'ok height=2 cut_degrees=()'),
    ('(eqminus (seq (#b1 = #b2, Q(#b1)) (Q(#b2))) :at 1 (ax (seq (Q(#b2)) (Q(#b2)))))',
     'rejected path=root: no identity/atom pair in the antecedent matches the premise'),
    ('(eqminus (seq (Q(#b1), #b1 = #b2) (Q(#b2))) :at 1 (ax (seq (Q(#b2)) (Q(#b2)))))',
     'ok height=2 cut_degrees=()'),
    # an annotated term that is a variable, in every term slot alike
    ('(iotar (seq (Q, P(#c), forall z. z = #c) ((lam x. P(x)) (iota y. Q))) :term x :eigen #a (wl (seq (Q, P(#c), forall z. z = #c) (Q)) (wl (seq (P(#c), Q) (Q)) (ax (seq (Q) (Q))))) (wl (seq (Q, P(#c), forall z. z = #c) (P(#c))) (wl (seq (Q, P(#c)) (P(#c))) (ax (seq (P(#c)) (P(#c)))))) (foralll (seq (Q, Q, P(#c), forall z. z = #c) (#a = #c)) :term #a (wl (seq (#a = #c, Q, Q, P(#c)) (#a = #c)) (wl (seq (Q, Q, #a = #c) (#a = #c)) (wl (seq (Q, #a = #c) (#a = #c)) (ax (seq (#a = #c) (#a = #c))))))))',
     "rejected path=root: iotar instantiation term must be a parameter or constant, got Var(name='x')"),
    ('(iota2l (seq ((lam x. P(x)) (iota y. Q(y)), Q(#a), Q(#b)) (#a = #b)) :term x :term #b (wr (seq (Q(#a), Q(#b)) (#a = #b, Q(#a))) (wl (seq (Q(#a), Q(#b)) (Q(#a))) (ax (seq (Q(#a)) (Q(#a)))))) (wr (seq (Q(#a), Q(#b)) (#a = #b, Q(#b))) (wl (seq (Q(#a), Q(#b)) (Q(#b))) (ax (seq (Q(#b)) (Q(#b)))))) (wl (seq (#a = #b, Q(#a), Q(#b)) (#a = #b)) (wl (seq (Q(#b), #a = #b) (#a = #b)) (ax (seq (#a = #b) (#a = #b))))))',
     "rejected path=root: iota2l instantiation term must be a parameter or constant, got Var(name='x')"),
]


def _verdict(root) -> str:
    try:
        proof = check_proof(root)
    except CheckError as e:
        return f"rejected {e}"
    return f"ok height={proof.height} cut_degrees={proof.cut_degrees}"


def test_kernel_verdict_table():
    wrong = []
    for text, verdict in KERNEL_VERDICTS:
        got = _verdict(parse_proof(text))
        if got != verdict:
            wrong.append((text, got))
    assert not wrong


# ---------------------------------------------------------------------------
# parameter substitution through proofs


def exists_roundtrip_proof(p):
    f = Exists("x", P(x))
    inner = node("existsr", [P(p)], [f], [ax(P(p))], terms=(p,))
    return node("existsl", [f], [f], [inner], eigen=p)


def test_subst_param_identity_when_absent():
    proof = exists_roundtrip_proof(a)
    assert subst_param_proof(proof, "zz", b) is proof
    # a branch that mentions neither name comes back as it is
    side = ax(Q(c))
    proof = node("cut", [Q(c), P(a)], [P(a)], [side, node("wl", [Q(c), P(a)], [P(a)], [ax(P(a))])])
    check_proof(proof)
    out = subst_param_proof(proof, "a", b)
    assert out.conclusion == seq([Q(c), P(b)], [P(b)])
    assert out.premises[0] is side


def test_subst_param_proof_of_a_deep_proof():
    """On a 40,000-high wl/cl chain, a -> b keeps the height and puts #b
    everywhere: the walk is a loop, so the child lowers the recursion limit
    to 1,000 after the import. It runs in a child process, so a C-stack
    overflow (segfault) fails this test instead of killing the test run."""
    code = (
        "import sys\n"
        "from ddproof.kernel import ProofNode, subst_param_proof\n"
        "from ddproof.syntax import Param, PredAtom, Sequent\n"
        "sys.setrecursionlimit(1_000)\n"
        "def chain(f):\n"
        "    one, two = Sequent((f,), (f,)), Sequent((f, f), (f,))\n"
        "    node = ProofNode('ax', one)\n"
        "    for i in range(1, 40_000):\n"
        "        rule, concl = ('wl', two) if i % 2 else ('cl', one)\n"
        "        node = ProofNode(rule, concl, (node,))\n"
        "    return node\n"
        "node = subst_param_proof(chain(PredAtom('P', (Param('a'),))), 'a', Param('b'))\n"
        "want = chain(PredAtom('P', (Param('b'),)))\n"
        "height = 0\n"
        "while node is not None:\n"
        "    height += 1\n"
        "    assert (node.rule, node.conclusion) == (want.rule, want.conclusion)\n"
        "    node, want = (node.premises or (None,))[0], (want.premises or (None,))[0]\n"
        "print(height, want is None)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["40000", "True"]


def subst_pin_corpus():
    """Fixture proofs, the criterion-4 corpus, seeded ProofGen proofs, and
    a kernel-rejected proof whose eigenparameter `a` occurs in its own
    conclusion and terms, alone and under a weakening that adds `b`."""
    from genutil import ProofGen, perfbench_gen
    from test_acceptance import SEED

    from ddproof.cli import fixture_proofs

    proofs = [p for _, p in fixture_proofs() + perfbench_gen.cut_corpus()]
    gen = ProofGen(random.Random(SEED + 23), max_steps=8)
    proofs += [gen.proof() for _ in range(30)]
    dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
    inner = node("impr", [], [Imp(P(a), P(b))], [leaf([P(a)], [P(b)])])
    bad = node("iotar", [P(a)], [dd, Q(a)], [inner], terms=(a,), eigen=a)
    return proofs + [bad, node("wl", [Q(b)], [dd, Q(a)], [bad])]


def test_subst_param_proof_is_pinned():
    """A digest pins subst_param_proof's output for every old name of each
    proof plus one absent name, and for every new name of it, a fresh
    parameter and a constant; the count pins the calls that rename an
    eigenparameter."""
    h = hashlib.sha256()
    calls = renamed = 0
    for p in subst_pin_corpus():
        names = sorted(p.params)
        eigens = [n.eigen for _, n in iter_nodes(p)]
        absent = syntax.scan_fresh("z", set(names))
        fresh = Param(syntax.scan_fresh("b", set(names)))
        for old in names + [absent]:
            for new in [Param(n) for n in names] + [fresh, k]:
                out = subst_param_proof(p, old, new)
                calls += 1
                renamed += [n.eigen for _, n in iter_nodes(out)] != eigens
                h.update(f"{format_proof(out)}\0".encode())
    assert (calls, renamed) == (2468, 784)
    assert h.hexdigest()[:12] == "b8550ad8a343"


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
    assert checked.height == check_proof(root).height
    assert out.conclusion.ant == (Q(a),)
    # the inner eigen is no longer a
    assert out.premises[0].eigen != a


def test_subst_param_old_is_eigen():
    proof = exists_roundtrip_proof(a)
    out = subst_param_proof(proof, "a", d)
    assert check_proof(out).height == 3
    # root conclusion had no occurrence of the eigen, so it is unchanged
    assert out.conclusion == proof.conclusion


def test_subst_param_reuses_an_eigen_rename_made_nearer_the_root():
    """b is the eigenparameter of both forallr steps, the upper one above a
    weakening that drops b. Substituting for b renames the lower one's
    eigenparameter apart, and the upper one, which meets that rename on its
    way down from the root, takes the same new name."""
    proof = parse_proof(
        "(forallr (seq (forall z. Q(z)) (forall x. P(x), forall y. Q(y))) :eigen #b\n"
        "(wr (seq (forall z. Q(z)) (P(#b), forall y. Q(y)))\n"
        "(forallr (seq (forall z. Q(z)) (forall y. Q(y))) :eigen #b\n"
        "(foralll (seq (forall z. Q(z)) (Q(#b))) :term #b\n"
        "(ax (seq (Q(#b)) (Q(#b))))))))"
    )
    check_proof(proof)
    out = subst_param_proof(proof, "b", c)
    check_proof(out)
    assert out.conclusion == proof.conclusion
    eigens = [n.eigen for _, n in iter_nodes(out) if n.eigen is not None]
    assert eigens == [Param("a1"), Param("a1")]
    assert out.premises[0].premises[0].premises[0].terms == (Param("a1"),)


def test_subst_param_const_target():
    f = Exists("x", P(x))
    inner = node("existsr", [P(b)], [f], [ax(P(b))], terms=(b,))
    out = subst_param_proof(inner, "b", k)
    check_proof(out)
    assert out.conclusion.ant == (P(k),)


def test_proofs_equal():
    assert proofs_equal(exists_roundtrip_proof(a), exists_roundtrip_proof(a))
    assert not proofs_equal(exists_roundtrip_proof(a), ax(P(a)))


# ---------------------------------------------------------------------------
# instantiation matching, against substitution and alpha-equality

from hypothesis import given, settings, strategies as st  # noqa: E402

from genutil import TERMS, formula_strategy  # noqa: E402

from ddproof.kernel import match_subst  # noqa: E402
from ddproof.syntax import alpha_equal, free_vars, substitute  # noqa: E402

INSTANCE_TERMS = st.sampled_from([a, b, k, Param("x")])
# the pattern variables: one, or two at once
PATTERN_VARS = st.sampled_from([("x",), ("y",), ("x", "y")])


def _instantiate(body, xs, terms):
    """body with each of xs replaced by its term; the terms are closed, so
    the order of the substitutions does not matter."""
    for v, t in zip(xs, terms):
        body = substitute(body, v, t)
    return body


@given(formula_strategy(), PATTERN_VARS, st.lists(INSTANCE_TERMS, min_size=2, max_size=2))
@settings(max_examples=300, deadline=None)
def test_match_subst_finds_the_substituted_term(body, xs, terms):
    chi = _instantiate(body, xs, terms)
    want = {v: t for v, t in zip(xs, terms) if v in free_vars(body)}
    assert match_subst(body, xs, chi) == want
    if not want:
        assert chi is body


def _scatter(f, v, terms: list):
    """f with its free occurrences of Var v replaced by terms, in turn and
    cycling, read off the record fields."""
    if isinstance(f, Var):
        if f.name != v:
            return f
        terms.append(terms.pop(0))  # the next term, cycling
        return terms[-1]
    if isinstance(f, tuple):
        return tuple(_scatter(g, v, terms) for g in f)
    if not hasattr(f, "__match_args__"):
        return f
    return replace(f, **{
        name: _scatter(getattr(f, name), v, terms)
        for name in f.__match_args__
        if not (name == "body" and getattr(f, "bound", None) == v)
    })


@given(
    formula_strategy(),
    PATTERN_VARS,
    st.one_of(
        formula_strategy(2),
        st.tuples(st.sampled_from(["x", "y", "z"]), st.sampled_from(TERMS)),
        st.lists(INSTANCE_TERMS, min_size=2, max_size=3),
    ),
)
@settings(max_examples=300, deadline=None)
def test_match_subst_answers_instantiate_to_chi(body, xs, other):
    """Whatever match_subst returns for some other chi is sound: a term for
    each pattern variable free in body, and none for another, that
    instantiate body to chi. The chis are drawn formulas, substitutions
    into body, and body with the free occurrences of each pattern variable
    replaced by differing terms."""
    if isinstance(other, list):
        chi = body
        for v in xs:
            chi = _scatter(chi, v, list(other))
    elif isinstance(other, tuple):
        chi = substitute(body, *other)
    else:
        chi = other
    m = match_subst(body, xs, chi)
    if m is not None:
        assert set(m) == set(xs) & free_vars(body)
        assert all(isinstance(t, (Param, Const)) for t in m.values())
        assert alpha_equal(_instantiate(body, list(m), list(m.values())), chi)


# ---------------------------------------------------------------------------
# annotation inference over every rule with instance slots

from ddproof import kernel  # noqa: E402
from ddproof.kernel import RULES  # noqa: E402
from ddproof.syntax import params_in, scan_fresh  # noqa: E402

SLOT_RULES = ("foralll", "forallr", "existsl", "existsr", "iota1l", "iota2l", "iotar")
INFERENCE_SEED = 20261023


def _seeded_body(rng, v: str, depth: int = 2):
    """A formula over P, R and identity whose one free variable, if any, is
    v; v is often left out, or shadowed by a binder."""
    if depth == 0 or rng.random() < 0.3:
        ts = [Var(v), a, b, k]
        kind = rng.randrange(3)
        if kind == 0:
            return P(rng.choice(ts))
        if kind == 1:
            return PredAtom("R", (rng.choice(ts), rng.choice(ts)))
        return Identity(rng.choice(ts), rng.choice(ts))
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_seeded_body(rng, v, depth - 1))
    if kind == 1:
        return And(_seeded_body(rng, v, depth - 1), _seeded_body(rng, v, depth - 1))
    # a binder of another variable, or one that shadows v
    return rng.choice([Forall, Exists])(rng.choice(["z", v]), _seeded_body(rng, v, depth - 1))


def _seeded_step(rng, rule: str):
    """A valid step of `rule` with seeded bodies and instance: its node
    with the instance annotated, and the instance, terms then
    eigenparameter."""
    schema = RULES[rule]
    if rule.startswith("iota"):
        f = LambdaAtom("x", _seeded_body(rng, "x"), IotaTerm("y", _seeded_body(rng, "y")))
    else:
        f = schema.kind("x", _seeded_body(rng, "x"))
    # c and d occur in no body, so an eigenparameter among them is fresh
    # for the conclusion, and differs from the witness
    eigen = rng.choice([c, d])
    pool = [a, b, k, d if eigen == c else c]
    inst = tuple(rng.choice(pool) for _ in range(schema.terms))
    inst += (eigen,) * schema.eigen
    ant, suc = [G], [H]
    prems = [leaf([*add_ant, *ant], [*suc, *add_suc])
             for add_ant, add_suc in schema.actives(f, *inst)]
    if schema.side == "ant":
        ant = [f, *ant]
    else:
        suc = [*suc, f]
    terms, eigen = (inst[:-1], inst[-1]) if schema.eigen else (inst, None)
    return node(rule, ant, suc, prems, terms=terms, eigen=eigen), f, inst


@pytest.mark.parametrize("rule", SLOT_RULES)
def test_inference_recovers_the_annotated_instance(rule):
    """Each step checks with its annotations and without them; without
    them the kernel infers the annotated terms and eigenparameter, except
    in a slot that occurs in no active formula, where it infers the fresh
    parameter. Bodies that do not mention their variable are among them."""
    rng = random.Random(f"{INFERENCE_SEED} {rule}")
    schema = RULES[rule]
    vacuous = 0
    for _ in range(60):
        step, f, inst = _seeded_step(rng, rule)
        info = analyze_step(step)
        assert info.terms + (info.eigen,) * schema.eigen == inst
        bare = replace(step, terms=(), eigen=None)
        info = analyze_step(bare)
        prems = [p.conclusion for p in step.premises]
        fresh = Param(scan_fresh("a", params_in([step.conclusion, *prems])))
        want = []
        for i, t in enumerate(inst):
            marked = inst[:i] + (Param("marker"),) + inst[i + 1:]
            occurs = "marker" in params_in(schema.actives(f, *marked))
            want.append(t if occurs else fresh)
            vacuous += not occurs
        assert info.terms + (info.eigen,) * schema.eigen == tuple(want)
    assert vacuous or rule in ("iota2l", "iotar")


def _conjunction(n: int):
    """R(#p0) & ... & R(#p(n-1))."""
    out = PredAtom("R", (Param("p0"),))
    for i in range(1, n):
        out = And(out, PredAtom("R", (Param(f"p{i}"),)))
    return out


BIG = _conjunction(300)


@pytest.mark.parametrize("rule, ant, suc, prems, slots", [
    # iota2l: each slot matches one term, in premise 1 or 2
    ("iota2l", [DD], [], [leaf([], [Q(b)]), leaf([], [Q(c)]), leaf([BIG], [])],
     [{b}, {c}]),
    # iotar: the witness matches b, the eigenparameter a
    ("iotar", [], [DD], [leaf([], [Q(b)]), leaf([], [P(b)]), leaf([BIG], [Identity(a, b)])],
     [{b}, {a}]),
], ids=["iota2l", "iotar"])
def test_inference_stays_bounded(monkeypatch, rule, ant, suc, prems, slots):
    """A premise that adds a formula with 300 parameters gives each slot no
    candidate beyond the fresh parameter and its matches."""
    step = node(rule, ant, suc, prems)
    fresh = Param(scan_fresh("a", params_in([step.conclusion, *(p.conclusion for p in prems)])))
    tried = list(kernel._instances(step, DD))
    for i, matches in enumerate(slots):
        assert {inst[i] for inst in tried} <= {fresh} | matches
    calls = []
    real = kernel._premise_is
    monkeypatch.setattr(kernel, "_premise_is", lambda *args: calls.append(1) or real(*args))
    with pytest.raises(RuleError, match=f"^no {rule} instance matches the premises$"):
        analyze_step(step)
    bound = 1
    for matches in slots:
        bound *= 1 + len(matches)
    assert len(tried) <= bound and len(calls) <= bound * len(prems)


@pytest.mark.parametrize("rule, message", [
    ("negl", "no negl principal formula matches the premise"),
    ("negr", "no negr principal formula matches the premise"),
    ("andl", "no andl principal formula matches the premise"),
    ("andr", "no andr principal formula matches the premises"),
    ("orl", "no orl principal formula matches the premises"),
    ("orr", "no orr principal formula matches the premise"),
    ("impl", "no impl principal formula matches the premises"),
    ("impr", "no impr principal formula matches the premise"),
    ("iffl", "no iffl principal formula matches the premises"),
    ("iffr", "no iffr principal formula matches the premises"),
    ("foralll", "no foralll instance matches the premise"),
    ("forallr", "no forallr instance matches the premise"),
    ("existsl", "no existsl instance matches the premise"),
    ("existsr", "no existsr instance matches the premise"),
    ("laml", "no laml abstract matches the premise"),
    ("lamr", "no lamr abstract matches the premise"),
    ("iota1l", "no iota1l instance matches the premise"),
    ("iota2l", "no iota2l instance matches the premises"),
    ("iotar", "no iotar instance matches the premises"),
])
def test_every_table_rule_names_what_did_not_match(rule, message):
    """Every RULES entry whose handler the table alone builds (all but
    eqminus and eqplus): with no principal candidate in the conclusion and
    the right number of premises, the rejection names the rule, what it
    looked for, and its premise count."""
    step = node(rule, [G], [G], [ax(G)] * RULES[rule].arity)
    with pytest.raises(RuleError) as e:
        analyze_step(step)
    assert str(e.value) == message
