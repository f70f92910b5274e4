"""Bounded proof search: verdicts, budgets, and the paraphrase suite."""

import os
import random
import subprocess
import sys

import pytest

from ddproof.kernel import (
    RULES,
    Proof,
    ProofNode,
    analyze_step,
    check_proof,
    iter_nodes,
    proof_size,
)
from ddproof import kernel, search
from ddproof.search import (
    DEFAULT_BUDGET,
    NODE_CAP,
    QUICK_REFUTE_CAP,
    Proved,
    Refuted,
    SearchBudget,
    Unknown,
    _choice_groups,
    _closed,
    _invertible,
    _keeps_countermodels,
    _kept,
    _key,
    _Group,
    _leaf,
    _node,
    _premises,
    _State,
    prove,
)
from ddproof.semantics import EnumerationCapError, eval_sequent, find_countermodel
from ddproof.surface import format_formula, parse_formula, parse_sequent
from ddproof.syntax import (
    And,
    Exists,
    Forall,
    Identity,
    Iff,
    Imp,
    LambdaAtom,
    Not,
    Or,
    ParamSupply,
    PredAtom,
    Sequent,
    Var,
    alpha_key,
    sequent_key,
)

import genutil
from genutil import FormulaGen, perfbench_gen, rlambda_goals


def skeleton(node):
    return (node.rule, tuple(skeleton(p) for p in node.premises))


QUICK = SearchBudget(max_depth=8, term_pool_cap=2, contraction_cap=2, model_cap=2)


def _offered(g, groups):
    """Each move of the groups on g, as (group, inst), with its instance's
    key tokens, and the key of each of its premises and whether the leaf
    test closes it."""
    for group in groups:
        sides = _kept(g, group.rule, group.drop)
        for inst, tokens in group.instances:
            leaves = [_leaf(sides, cut, tokens) for cut in group.template]
            leaves = [(_key(sides, ak, sk), closes) for ak, sk, closes in leaves]
            yield (group, inst), tokens, leaves


# the first sequents of the prove-sample, drawn as perfbench/gen.py draws them
SAMPLE_SLICE = 100


class TestVerdicts:
    def test_identity_axiom(self):
        v = prove(parse_sequent("P(#a) => P(#a)"))
        assert isinstance(v, Proved)
        assert v.proof.root.rule == "ax"

    def test_weakened_axiom(self):
        v = prove(parse_sequent("P(#a), Q(#b) => P(#a), R(#c)"))
        assert isinstance(v, Proved)
        assert v.proof.root.conclusion == parse_sequent("P(#a), Q(#b) => P(#a), R(#c)")

    def test_reflexive_identity(self):
        v = prove(parse_sequent("Q(#b) => #a = #a"))
        assert isinstance(v, Proved)
        assert v.proof.root.rule == "eqplus"

    def test_description_implies_existential(self):
        goal = parse_sequent("=> ((lam x. P(x)) iota y. P(y)) -> exists y. P(y)")
        v = prove(goal, SearchBudget(max_depth=12, term_pool_cap=2, contraction_cap=2, model_cap=2))
        assert isinstance(v, Proved)
        assert v.proof.root.conclusion == goal

    def test_maximal_dot_reading_is_refutable(self):
        # without parentheses the iota body swallows the implication, and
        # that reading is false in the one-element model with P empty
        goal = parse_sequent("=> (lam x. P(x)) iota y. P(y) -> exists y. P(y)")
        v = prove(goal)
        assert isinstance(v, Refuted)
        assert len(v.model.domain) == 1

    def test_refuted_at_size_one(self):
        goal = parse_sequent("=> (lam x. P(x)) iota y. Q(y)")
        v = prove(goal)
        assert isinstance(v, Refuted)
        assert len(v.model.domain) == 1
        assert not eval_sequent(goal, v.model, v.assignment)

    def test_empty_sequent_refuted(self):
        v = prove(Sequent((), ()))
        assert isinstance(v, Refuted)
        assert len(v.model.domain) == 1

    def test_proved_proof_is_kernel_checked(self):
        goal = parse_sequent("P(#a) & Q(#a) => Q(#a) & P(#a)")
        v = prove(goal)
        assert isinstance(v, Proved)
        assert isinstance(v.proof, Proof)
        # re-checking from scratch agrees
        again = check_proof(v.proof.root)
        assert again.height == v.proof.height

    def test_equality_rewriting(self):
        v = prove(parse_sequent("#a = #b, P(#a) => P(#b)"))
        assert isinstance(v, Proved)

    def test_equality_rewriting_flipped(self):
        v = prove(parse_sequent("#b = #a, P(#a) => P(#b)"))
        assert isinstance(v, Proved)

    def test_symmetry_of_identity(self):
        v = prove(parse_sequent("#a = #b => #b = #a"))
        assert isinstance(v, Proved)

    def test_quantifier_shuffle(self):
        v = prove(parse_sequent("forall x. P(x) => exists y. P(y)"))
        assert isinstance(v, Proved)

    def test_invalid_quantifier_direction(self):
        v = prove(parse_sequent("exists y. P(y) => forall x. P(x)"))
        assert isinstance(v, Refuted)
        assert len(v.model.domain) == 2


class TestBudgets:
    def test_depth_exhaustion(self):
        goal = parse_sequent("=> P(#a) -> P(#a)")
        v = prove(goal, SearchBudget(max_depth=0, term_pool_cap=0, contraction_cap=0, model_cap=1))
        assert v == Unknown("budget-exhausted")
        assert isinstance(prove(goal), Proved)

    def test_signature_cap(self):
        # valid, so refutation must sweep the whole space, and the ternary
        # predicate blows the interpretation cap at size 3; depth 0 keeps
        # the proof side from settling the question first
        goal = parse_sequent("T(#a, #a, #a) => exists x. T(x, x, x)")
        v = prove(goal, SearchBudget(max_depth=0, term_pool_cap=0, contraction_cap=0, model_cap=3))
        assert v == Unknown("signature-cap")

    def test_contraction_cap_zero_blocks_instantiation(self):
        goal = parse_sequent("forall x. P(x) => P(#a)")
        v = prove(goal, SearchBudget(max_depth=8, term_pool_cap=2, contraction_cap=0, model_cap=2))
        assert v == Unknown("budget-exhausted")
        assert isinstance(prove(goal, QUICK), Proved)


class TestDeterminism:
    def test_same_proof_twice(self):
        goal = parse_sequent("forall x. (P(x) -> Q(x)), P(#a) => Q(#a)")
        v1 = prove(goal, QUICK)
        v2 = prove(goal, QUICK)
        assert isinstance(v1, Proved) and isinstance(v2, Proved)
        assert skeleton(v1.proof.root) == skeleton(v2.proof.root)


# a principal formula for each rule of the kernel's table
PRINCIPAL_OF_CLASS = {
    Not: "~P(#a)",
    And: "P(#a) & Q(#a)",
    Or: "P(#a) | Q(#a)",
    Imp: "P(#a) -> Q(#a)",
    Iff: "P(#a) <-> Q(#a)",
    Forall: "forall x. R(x, #a)",
    Exists: "exists x. R(x, #a)",
    LambdaAtom: "(lam x. R(x, #b)) #a",
}
PRINCIPAL = {rule: PRINCIPAL_OF_CLASS.get(schema.kind) for rule, schema in RULES.items()}
PRINCIPAL.update(
    {rule: "(lam x. R(x, #b)) iota y. Q(y)" for rule in ("iota1l", "iota2l", "iotar")},
    # eqplus has no principal formula; search offers it beside an equation
    eqminus="#a = #b",
    eqplus="#a = #b",
)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_search_premises_satisfy_the_kernel(rule):
    """Each move search offers for a conclusion with one principal formula,
    built with axiom leaves, passes analyze_step at every node, and the
    rule's own node has that formula as its principal."""
    side = RULES[rule].side
    f = parse_formula(PRINCIPAL[rule])
    mine = (parse_formula("R(#b, #a)"), f, parse_formula("R(#b, #b)"))
    other = (parse_formula("Q(#b)"),)
    g = Sequent(mine, other) if side == "ant" else Sequent(other, mine)
    st = _State(g, QUICK)
    # a loss-free rule is committed; the others are choices, in keeping form
    committed = _invertible(g, st)
    groups = [committed] if committed is not None else _choice_groups(g, {}, st)
    moves = [(group, inst) for (group, inst), _, _ in _offered(g, groups) if group.rule == rule]
    assert moves
    for group, inst in moves:
        leaves = [ProofNode("ax", c) for c in _premises(g, group, inst)]
        root = _node(g, group, inst, leaves)
        for _, n in iter_nodes(root):
            if n.rule != "ax":
                info = analyze_step(n)
            if n.premises[:1] and n.premises[0] is leaves[0]:
                node, principal = n, info.principal
        assert node.rule == rule
        if rule != "eqplus":
            # a kept conclusion holds f twice, and eqminus may use it
            # flipped; the kernel names the first
            where = getattr(node.conclusion, side).index(group.flip or f)
            assert principal == (side, where)


def test_search_builds_only_the_proofs_it_returns(monkeypatch):
    """On a slice of the prove-sample sequents, prove constructs at most
    twice as many proof nodes as its proofs keep."""
    built = 0
    init = ProofNode.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProofNode, "__init__", counting_init)
    kept = 0
    for goal in perfbench_gen.prove_sample(n=SAMPLE_SLICE):
        v = prove(goal, QUICK)
        if isinstance(v, Proved):
            kept += proof_size(v.proof.root)
    assert kept > 0 and built <= 2 * kept, (built, kept)


def test_bulk_generators_are_the_benchmarks():
    """The tests draw formulas and proofs from perfbench/gen.py itself, so
    a forked copy of its generators cannot drift from the benchmark's."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert perfbench_gen.__file__ == os.path.join(root, "perfbench", "gen.py")
    assert genutil.FormulaGen is perfbench_gen.FormulaGen
    assert genutil.ProofGen is perfbench_gen.ProofGen


# (budget, prove-sample item, expansions, fresh() draws): the three
# heaviest items at the gate budget, item 203, which has depth-1 leaves
# whose keys are on the branch, as 478 and 88 have, and the four that end
# budget-exhausted at the default one
_EFFORT = [
    ("gate", 478, 50_046, 8_874),
    ("gate", 324, 11_610, 1_800),
    ("gate", 88, 10_995, 986),
    ("gate", 203, 1_031, 78),
    ("default", 17, 50_035, 3_615),
    ("default", 383, 50_044, 2_506),
    ("default", 457, 50_052, 6_183),
    ("default", 478, 50_033, 8_767),
]


@pytest.mark.parametrize(
    "budget, item, expansions, fresh",
    _EFFORT,
    ids=[f"{i}-{e}-{f}" + ("" if b == "gate" else f"-{b}") for b, i, e, f in _EFFORT],
)
def test_search_effort_is_pinned(monkeypatch, budget, item, expansions, fresh):
    """Heavy prove-sample items end at the same expansion count, which
    fixes each NODE_CAP verdict, and draw the same fresh parameters: work
    saved per expansion must not change how much the search expands or
    which names it mints."""
    states = []
    init, mint = _State.__init__, ParamSupply.fresh

    def recording_init(self, *args):
        init(self, *args)
        self.minted = 0
        states.append(self)

    def counting_fresh(self):
        for st in states:
            st.minted += st.supply is self
        return mint(self)

    monkeypatch.setattr(_State, "__init__", recording_init)
    monkeypatch.setattr(ParamSupply, "fresh", counting_fresh)
    limits = perfbench_gen.PROVE_BUDGET if budget == "gate" else DEFAULT_BUDGET
    verdict = prove(perfbench_gen.prove_sample()[item], limits)
    (st,) = states
    assert (st.expansions, st.minted) == (expansions, fresh)
    capped = item == 478 or budget == "default"
    assert (st.expansions > NODE_CAP) == capped
    if capped:
        assert verdict == Unknown("budget-exhausted")


# (prove-sample item, kernel._inst calls at a term that is no placeholder)
# at the gate budget, for the three heaviest items: the actives the search
# builds, for the premises it recurses into and the proof it returns.
# Building the actives of every move offered takes 88,966, 17,369 and
# 8,201 such calls.
_BUILT = [(478, 1_429), (324, 713), (88, 592)]


@pytest.mark.parametrize("item, built", _BUILT, ids=[f"{i}-{b}" for i, b in _BUILT])
def test_search_builds_actives_only_where_it_recurses(monkeypatch, item, built):
    """Heavy prove-sample items instantiate a pinned number of actives: a
    leaf is tested from its key template, so a move's actives are built
    only for the premises the search enters or the proof it returns."""
    calls, real = 0, kernel._inst

    def counting(f, b):
        nonlocal calls
        calls += not b.name.startswith("?")
        return real(f, b)

    monkeypatch.setattr(kernel, "_inst", counting)
    prove(perfbench_gen.prove_sample()[item], perfbench_gen.PROVE_BUDGET)
    assert calls == built


# (prove-sample item, `_Group` records made) at the gate budget, for the
# three heaviest items
_GROUPS = [(478, 11_013), (324, 4_709), (88, 4_544)]


@pytest.mark.parametrize("item, made", _GROUPS, ids=[f"{i}-{m}" for i, m in _GROUPS])
def test_search_makes_a_pinned_number_of_groups(monkeypatch, item, made):
    """Heavy prove-sample items make a pinned number of `_Group` records:
    one per group offered at each goal expanded, but eqplus's, made once
    per term in a search."""
    records, real = 0, _Group.__init__

    def counting(self, *args, **kwargs):
        nonlocal records
        records += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(_Group, "__init__", counting)
    prove(perfbench_gen.prove_sample()[item], perfbench_gen.PROVE_BUDGET)
    assert records == made


def test_template_keys_match_built_actives():
    """On the leaf test's seeded sequents, on premises of theirs, and on
    written ones whose names spell key tags (P, iff, ex) and tokens (b0, v,
    p), every move's key template, filled with its instance, gives each
    active's `alpha_key` as built, and marks a succedent identity between
    instance terms reflexive exactly when the built one is."""
    fgen = FormulaGen(random.Random(20250919), max_conn=4, max_dd_depth=1)
    written = [
        "forall x. iff(x, #b0), (lam x. P(x, $v)) iota y. ex(y, #p) => exists x. P(x, $b0)",
        "(lam x. x = #v) iota y. y = $p, $p = #b0 => (lam x. iff(x, #v)) iota y. ex(#p, y)",
        "exists x. iff(#p, x, $b0), #v = $p => #v = #v | P(#b0), forall x. ex(x, $p, b0)",
    ]
    goals = [parse_sequent(text) for text in written] + [fgen.sequent() for _ in range(150)]
    rules, marked = set(), set()
    for g in goals:
        st = _State(g, QUICK)
        groups = [group for group in [_invertible(g, st)] if group is not None]
        for (group, inst), tokens, _ in _offered(g, groups + _choice_groups(g, {}, st)):
            built = RULES[group.rule].actives(group.f, *inst)
            assert len(built) == len(group.template)
            for (a, s), (ta, ts, eqs) in zip(built, group.template):
                assert [x.format(*tokens) for x in ta] == [alpha_key(x) for x in a]
                assert [x.format(*tokens) for x in ts] == [alpha_key(x) for x in s]
                reflexive = [x.format(*tokens) == y.format(*tokens) for x, y in eqs]
                identities = [x for x in s if RULES["eqminus"].principal(x)]
                assert reflexive == [RULES["eqplus"].principal(x) for x in identities]
                marked.update(reflexive)
            for p in _premises(g, group, inst):
                if len(goals) < 400:
                    goals.append(p)
            rules.add(group.rule)
    slots = {"iota1l", "foralll", "existsr", "iotar", "iota2l", "forallr", "existsl"}
    assert rules >= slots | {"eqminus", "eqplus"}
    assert marked == {True, False}


def test_leaf_test_agrees_with_closed():
    """On seeded sequents that do not close, and on such premises of
    theirs, every premise of every move offered gets from the leaf test
    the key and the verdict that building it and calling `_closed` give.
    A few written sequents make sure premises close both ways."""
    fgen = FormulaGen(random.Random(20250919), max_conn=4, max_dd_depth=1)
    written = ["~#a = #a =>", "=> exists x. x = #b", "#a = #b, P(#a) => P(#b)"]
    goals = [parse_sequent(text) for text in written] + [fgen.sequent() for _ in range(150)]
    rules, closed_by = set(), set()
    for g in goals:
        if _closed(g) is not None:
            continue
        st = _State(g, QUICK)
        groups = [group for group in [_invertible(g, st)] if group is not None]
        groups += _choice_groups(g, {}, st)
        assert all(group.instances for group in groups if isinstance(group.instances, list))
        for (group, inst), _, leaves in _offered(g, groups):
            premises = _premises(g, group, inst)
            assert len(leaves) == len(premises)
            for p, (key, closes) in zip(premises, leaves):
                assert key == sequent_key(p)
                proof = _closed(p)
                assert closes == (proof is not None), (g, group.rule, p)
                if closes:
                    assert proof.conclusion == p
                    closed_by.add("eqplus" if proof.rule == "eqplus" else "ax")
                elif len(goals) < 600:
                    goals.append(p)
            rules.add(group.rule)
    assert closed_by == {"ax", "eqplus"}
    assert rules == set(RULES)


def test_search_expands_no_goal_that_closes(monkeypatch):
    """The leaf test is the search's one closure test: on the first
    prove-sample items and the three heaviest at the gate budget, no goal
    that `_search` is called on closes, the root included."""
    calls, closing, real = 0, [], search._search

    def watched(g, *args):
        nonlocal calls
        calls += 1
        if _closed(g) is not None:
            closing.append(g)
        return real(g, *args)

    monkeypatch.setattr(search, "_search", watched)
    sample = perfbench_gen.prove_sample()
    for goal in sample[:SAMPLE_SLICE] + [sample[i] for i in (478, 324, 88)]:
        prove(goal, perfbench_gen.PROVE_BUDGET)
    assert calls > 0 and closing == []


def _has_countermodel(s: Sequent) -> bool:
    """Whether a model of size 1 or 2 refutes s; a cap error is not a yes."""
    try:
        return find_countermodel(s, max_size=2, cap=QUICK_REFUTE_CAP) is not None
    except EnumerationCapError:
        return False


def test_moves_that_pass_the_fact_on_keep_countermodels():
    """A move passes "no countermodel up to the probe's size" from its goal
    to its premises only if every such countermodel of a premise is one of
    the goal. The eqminus moves that rewrite `#a = #b` itself, to `#b = #b`
    or, flipped, to `#a = #a`, have premises with countermodels below a goal
    with none, so they must not pass it on."""
    fgen = FormulaGen(random.Random(20251019), max_conn=4, max_dd_depth=1)
    written = ["#a = #b, P(#a) => P(#b)", "$c = #a, Q($c) => Q(#a)",
               "#a = #b, P(#a) => Q(#b)", "#a = #b, R(#a, #b) => R(#b, #b)"]
    goals = [parse_sequent(text) for text in written] + [fgen.sequent() for _ in range(100)]
    rules, withheld = set(), set()
    for g in goals:
        if _closed(g) is not None:
            continue
        st = _State(g, QUICK)
        goal_refuted = None
        groups = [group for group in [_invertible(g, st)] if group is not None]
        for (group, inst), _, _ in _offered(g, groups + _choice_groups(g, {}, st)):
            keeps = _keeps_countermodels(g, group)
            for p in _premises(g, group, inst):
                if not _has_countermodel(p):
                    continue
                if goal_refuted is None:
                    goal_refuted = _has_countermodel(g)
                if keeps:
                    assert goal_refuted, (g, group.rule, p)
                    rules.add(group.rule)
                elif not goal_refuted:
                    withheld.add((sequent_key(g), sequent_key(p)))
                if len(goals) < 400:
                    goals.append(p)
    assert rules == set(RULES)
    held = parse_sequent("#a = #b, P(#a) => P(#b)")
    for rewritten in ("#b = #b", "#a = #a"):
        p = Sequent((parse_formula(rewritten), *held.ant[1:]), held.suc)
        assert (sequent_key(held), sequent_key(p)) in withheld


@pytest.mark.parametrize("item, probes", [(478, 4), (324, 4), (88, 28), (451, 2)])
def test_no_skipped_probe_could_have_hit(monkeypatch, item, probes):
    """On the prove-sample items whose probes hit (88, 451) and the two
    heaviest, every goal whose probe the search skips has no countermodel
    up to size 2, and the number of probes made is pinned."""
    skipped, made = {}, 0
    real_probe, real_find = search._quick_refuted, search.find_countermodel

    def probe(g, st, free):
        if free:
            skipped.setdefault(sequent_key(g), g)
        return real_probe(g, st, free)

    def find(*args, **kwargs):
        nonlocal made
        made += 1
        return real_find(*args, **kwargs)

    monkeypatch.setattr(search, "_quick_refuted", probe)
    monkeypatch.setattr(search, "find_countermodel", find)
    prove(perfbench_gen.prove_sample()[item], perfbench_gen.PROVE_BUDGET)
    assert made - 1 == probes  # the first call is prove's up-front pass
    assert skipped
    for g in skipped.values():
        assert find_countermodel(g, max_size=2, cap=QUICK_REFUTE_CAP) is None, g


def test_probe_past_its_cap_prunes_nothing(monkeypatch):
    """Five binary predicates: the up-front pass hits PROVE_ENUM_CAP, so no
    goal is known to be free of small countermodels, and the size-2 probe
    of the root has 2 * 16**5 interpretations, past QUICK_REFUTE_CAP. The
    probe then answers None, which prunes nothing, and the search proves
    the goal."""
    goal = parse_sequent(
        "R1(#a, #a), R2(#a, #a), R3(#a, #a), R4(#a, #a) => R5(#a, #a) | R1(#a, #a)"
    )
    answers, real = [], search._quick_refuted

    def probe(g, st, free):
        answers.append((free, real(g, st, free)))
        return answers[-1][1]

    monkeypatch.setattr(search, "_quick_refuted", probe)
    with pytest.raises(EnumerationCapError):
        find_countermodel(goal, max_size=QUICK.model_cap, cap=search.PROVE_ENUM_CAP)
    verdict = prove(goal, QUICK)
    assert answers == [(False, None)]
    assert isinstance(verdict, Proved)
    rules = [n.rule for _, n in iter_nodes(verdict.proof.root)]
    assert rules == ["orr", "wr", "wl", "wl", "wl", "ax"]


def test_eqminus_spends_a_use_per_identity_and_atom(monkeypatch):
    """An eqminus move spends a use of its (identity, atom) pair; a pair
    with contraction_cap uses on the branch is not rewritten again. With no
    countermodel probe (model_cap 0) the search of an invalid goal runs to
    its depth, where a branch meets that cap, and ends unknown."""
    goal = parse_sequent("#a = #b, P(#a) => Q(#b)")
    budget = SearchBudget(max_depth=4, term_pool_cap=2, contraction_cap=1, model_cap=0)
    st = _State(goal, budget)
    # the flipped identity does not rewrite P(#a), so it makes no group there
    fresh = list(search._eqminus_groups(goal, {}, st))
    rewrites = [[format_formula(chi) for (chi,), _ in group.instances] for group in fresh]
    assert rewrites == [["#b = #b"], ["P(#b)"], ["#a = #a"]]
    (pair,) = fresh[0].spent  # the use the identity rewritten by itself spends
    left = search._eqminus_groups(goal, {pair: 1}, st)
    assert [group.instances for group in left] == [fresh[1].instances]

    capped, real = [], search._eqminus_groups

    def groups(g, uses, st):
        out = list(real(g, uses, st))
        capped.append(len(out) < len(list(real(g, {}, st))))
        return iter(out)

    monkeypatch.setattr(search, "_eqminus_groups", groups)
    assert prove(goal, budget) == Unknown("budget-exhausted")
    assert any(capped)


def test_choice_groups_put_fewer_spent_uses_first():
    """`_choice_groups` orders its groups by the uses on the branch of the
    key each spends, fewest first, and the sort is stable: ties keep the
    rule order iota1l, eqminus, foralll, existsr, iotar, iota2l, eqplus."""
    g = parse_sequent("#a = #b, forall x. P(x), P(#a) => exists x. Q(x)")
    eq, forall, atom = (alpha_key(f) for f in g.ant)
    st = _State(g, DEFAULT_BUDGET)
    assert [group.rule for group in _choice_groups(g, {}, st)] == [
        "eqminus", "eqminus", "eqminus", "foralll", "existsr", "eqplus", "eqplus"]
    uses = {("foralll", forall): 1}
    assert [group.rule for group in _choice_groups(g, uses, st)] == [
        "eqminus", "eqminus", "eqminus", "existsr", "eqplus", "eqplus", "foralll"]
    uses[("eqminus", eq, atom)] = 1
    ordered = [(group.rule, group.f) for group in _choice_groups(g, uses, st)]
    assert [rule for rule, _ in ordered] == [
        "eqminus", "eqminus", "existsr", "eqplus", "eqplus", "eqminus", "foralll"]
    assert ordered[-2] == ("eqminus", g.ant[0])


def test_first_rewrite_needs_no_other_mask():
    """`rewrite_variants` yields the rewrite of all 40 places of a 40-place
    atom first, without making the other 2^40 - 2 masks. It runs in a child
    limited to 256 MiB of address space, so an enumerator that built them
    first fails with MemoryError instead of exhausting the host."""
    resource = pytest.importorskip("resource")
    limit = 256 << 20
    code = (
        "from ddproof.search import rewrite_variants\n"
        "from ddproof.surface import format_formula, parse_formula\n"
        "from ddproof.syntax import Param\n"
        "atom = parse_formula('P(' + ', '.join(['#a'] * 40) + ')')\n"
        "print(format_formula(next(rewrite_variants(atom, Param('a'), Param('b')))))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "P(" + ", ".join(["#b"] * 40) + ")\n"


class TestRlambdaSuite:
    def test_goals_shape(self):
        psi = PredAtom("P", (Var("x"),))
        phi = PredAtom("Q", (Var("y"),))
        unfold, fold = rlambda_goals(psi, phi)
        assert unfold.ant == fold.suc and unfold.suc == fold.ant

    def test_unfold_direction(self):
        psi = PredAtom("P", (Var("x"),))
        phi = PredAtom("Q", (Var("y"),))
        unfold, _ = rlambda_goals(psi, phi)
        v = prove(unfold)
        assert isinstance(v, Proved)

    def test_fold_direction(self):
        psi = PredAtom("P", (Var("x"),))
        phi = PredAtom("Q", (Var("y"),))
        _, fold = rlambda_goals(psi, phi)
        v = prove(fold)
        assert isinstance(v, Proved)

    def test_suite_all_proved(self):
        pairs = [
            (PredAtom("P", (Var("x"),)), PredAtom("Q", (Var("y"),))),
            (
                Identity(Var("x"), Var("x")),
                And(PredAtom("Q", (Var("y"),)), PredAtom("S", (Var("y"),))),
            ),
            (Not(PredAtom("P", (Var("x"),))), PredAtom("Q", (Var("y"),))),
        ]
        for psi, phi in pairs:
            for direction, goal in zip(("unfold", "fold"), rlambda_goals(psi, phi)):
                assert isinstance(prove(goal), Proved), (direction, psi, phi)


class TestSoundness:
    def test_verdicts_consistent_on_random_sequents(self):
        gen = FormulaGen(random.Random(20240817), max_conn=3, max_dd_depth=1)
        proved = refuted = unknown = 0
        for _ in range(40):
            goal = gen.sequent(max_side=2)
            v = prove(goal, QUICK)
            if isinstance(v, Proved):
                proved += 1
                assert v.proof.root.conclusion == goal
                assert find_countermodel(goal, max_size=2) is None
            elif isinstance(v, Refuted):
                refuted += 1
                assert not eval_sequent(goal, v.model, v.assignment)
            else:
                unknown += 1
                assert v.reason in ("budget-exhausted", "signature-cap")
        # the sample should exercise both definite verdicts
        assert proved > 0 and refuted > 0
