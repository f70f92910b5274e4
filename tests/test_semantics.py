"""Semantics: frozen truth tables, the description clause, connective
interdefinability, the substitution lemma, and countermodel enumeration
order (first model frozen)."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from genutil import FormulaGen, closed_formula_strategy, formula_strategy, perfbench_gen
from ddproof import semantics
from ddproof.semantics import (
    Countermodel,
    EnumerationCapError,
    Model,
    Signature,
    eval_formula,
    eval_sequent,
    find_countermodel,
    iter_interpretations,
    signature_of,
)
from ddproof.surface import parse_formula, parse_sequent
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
    Sequent,
    Var,
    _Node,
    _parts,
    alpha_equal,
    free_vars,
    substitute,
)


def M(domain, preds=None, consts=None):
    return Model(tuple(domain), preds or {}, consts or {})


def ev(text, model, asg=None):
    return eval_formula(parse_formula(text), model, asg or {})


# ---------------------------------------------------------------------------
# basic evaluation


def test_atoms_and_connectives():
    m = M([0, 1], {("P", 1): frozenset({(0,)})}, {"c": 0})
    assert ev("P($c)", m)
    assert not ev("~P($c)", m)
    assert ev("P(#a)", m, {Param("a"): 0})
    assert not ev("P(#a)", m, {Param("a"): 1})
    assert ev("#a = #b", m, {Param("a"): 1, Param("b"): 1})
    assert not ev("#a = $c", m, {Param("a"): 1})
    assert ev("P($c) & ~P(#a)", m, {Param("a"): 1})
    assert ev("P(#a) | P($c)", m, {Param("a"): 1})
    assert ev("P(#a) -> P($c)", m, {Param("a"): 1})
    assert ev("P(#a) <-> P(#b)", m, {Param("a"): 1, Param("b"): 1})


def test_quantifiers():
    m = M([0, 1], {("P", 1): frozenset({(0,)})})
    assert ev("exists x. P(x)", m)
    assert not ev("forall x. P(x)", m)
    assert ev("forall x. P(x) | ~P(x)", m)
    assert ev("forall x. exists y. x = y", m)
    assert not ev("exists x. forall y. x = y", m)


def test_lambda_term_argument():
    m = M([0, 1], {("P", 1): frozenset({(1,)})}, {"c": 1})
    assert ev("(lam x. P(x)) $c", m)
    assert not ev("(lam x. ~P(x)) $c", m)


def test_description_clause():
    dd = "(lam x. P(x)) (iota y. Q(y))"
    # no witness
    m = M([0, 1], {("P", 1): frozenset({(0,)}), ("Q", 1): frozenset()})
    assert not ev(dd, m)
    # unique witness satisfying the abstract
    m = M([0, 1], {("P", 1): frozenset({(0,)}), ("Q", 1): frozenset({(0,)})})
    assert ev(dd, m)
    # unique witness failing the abstract
    m = M([0, 1], {("P", 1): frozenset(), ("Q", 1): frozenset({(0,)})})
    assert not ev(dd, m)
    # two witnesses: never true, whatever the abstract
    m = M([0, 1], {("P", 1): frozenset({(0,), (1,)}), ("Q", 1): frozenset({(0,), (1,)})})
    assert not ev(dd, m)
    # the negation of the abstract is still false on two witnesses
    assert not ev("(lam x. ~P(x)) (iota y. Q(y))", m)


def test_description_scopes_outer_binder():
    # the description body may mention an outer quantified variable
    m = M(
        [0, 1],
        {("R", 2): frozenset({(0, 0), (1, 1)}), ("P", 1): frozenset({(0,), (1,)})},
    )
    # for every x there is exactly one y with R(y, x), and it satisfies P
    assert ev("forall x. (lam z. P(z)) (iota y. R(y, x))", m)
    m2 = M(
        [0, 1],
        {("R", 2): frozenset({(0, 0), (1, 0)}), ("P", 1): frozenset({(0,), (1,)})},
    )
    assert not ev("forall x. (lam z. P(z)) (iota y. R(y, x))", m2)


def test_eval_sequent():
    m = M([0], {("G", 0): frozenset(), ("H", 0): frozenset({()})})
    assert eval_sequent(parse_sequent("G => H"), m, {})  # false antecedent
    assert eval_sequent(parse_sequent("H => H"), m, {})
    assert not eval_sequent(parse_sequent("H => G"), m, {})
    assert not eval_sequent(parse_sequent("=>"), m, {})
    assert eval_sequent(parse_sequent("G =>"), m, {})


# ---------------------------------------------------------------------------
# interdefinability and invariances


@given(closed_formula_strategy(2), closed_formula_strategy(2), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_connective_equivalences(f, g, size):
    sig = signature_of(f, g)
    for model, asg in iter_interpretations(sig, size):
        vf, vg = eval_formula(f, model, asg), eval_formula(g, model, asg)
        assert eval_formula(Imp(f, g), model, asg) == ((not vf) or vg)
        assert eval_formula(Iff(f, g), model, asg) == (vf == vg)
        assert eval_formula(Not(f), model, asg) == (not vf)
        assert eval_formula(And(f, g), model, asg) == (vf and vg)
        assert eval_formula(Or(f, g), model, asg) == (vf or vg)


@given(formula_strategy(2), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_quantifier_duality(f, size):
    fa, ex = Forall("x", f), Exists("x", Not(f))
    sig = signature_of(fa)
    for model, asg in iter_interpretations(sig, size):
        base = {**asg, Var("y"): 0, Var("z"): 0}
        assert eval_formula(fa, model, base) == (
            not eval_formula(ex, model, base)
        )


@given(formula_strategy(2), st.integers(1, 2))
@settings(max_examples=80, deadline=None)
def test_substitution_lemma(f, size):
    # evaluating f[x/#p] equals evaluating f with x bound to #p's value
    g = substitute(f, "x", Param("p"))
    sig = signature_of(g, f)
    for model, asg in iter_interpretations(sig, size):
        for pv in model.domain:
            env = {**asg, Param("p"): pv}
            lhs = eval_formula(g, model, {**env, Var("y"): 0, Var("z"): 0})
            rhs = eval_formula(
                f, model, {**env, Var("x"): pv, Var("y"): 0, Var("z"): 0}
            )
            assert lhs == rhs


@given(formula_strategy(2), st.integers(1, 2))
@settings(max_examples=50, deadline=None)
def test_eval_respects_alpha(f, size):
    g = substitute(
        Forall("x", f), "q_unused", Param("q")
    )  # no-op, keeps types honest
    fa = Forall("x", f)
    fb = Forall("w9", substitute(f, "x", Var("w9")))
    assert alpha_equal(fa, fb)
    sig = signature_of(fa, fb)
    for model, asg in iter_interpretations(sig, size):
        env = {**asg, Var("y"): 0, Var("z"): 0}
        assert eval_formula(fa, model, env) == eval_formula(fb, model, env)


# ---------------------------------------------------------------------------
# countermodel search


def test_countermodel_first_model_frozen():
    cm = find_countermodel(parse_sequent("=> (lam x. P(x)) (iota y. Q(y))"))
    assert cm is not None
    assert cm.model.domain == (0,)
    assert cm.model.preds == {("P", 1): frozenset(), ("Q", 1): frozenset()}
    assert cm.assignment == {}
    assert cm.size == 1


def test_countermodel_none_for_valid():
    assert find_countermodel(parse_sequent("P(#a) => P(#a)")) is None
    assert find_countermodel(parse_sequent("=> P(#a) | ~P(#a)")) is None
    assert find_countermodel(parse_sequent("=> (lam x. P(x)) #a <-> P(#a)")) is None


def test_countermodel_enumeration_order():
    cm = find_countermodel(parse_sequent("P($c) => Q($c)"))
    assert cm is not None
    assert cm.model.domain == (0,)
    assert cm.model.preds[("P", 1)] == frozenset({(0,)})
    assert cm.model.preds[("Q", 1)] == frozenset()
    assert cm.model.consts == {"c": 0}


def test_countermodel_needs_two_elements():
    cm = find_countermodel(parse_sequent("=> #a = #b"))
    assert cm is not None
    assert cm.size == 2
    a, b = Param("a"), Param("b")
    assert cm.assignment[a] != cm.assignment[b]


def test_describe_countermodel():
    cm = find_countermodel(parse_sequent("P($c), R(#a, $c) => Q($c)"))
    assert cm is not None
    text = cm.describe()
    assert "domain:" in text
    assert "P/1:" in text
    assert "$c = " in text
    assert "#a = " in text


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError) as e:
        find_countermodel(parse_sequent("P(#a) => P(#a)"), max_size=2, cap=5)
    assert e.value.count == 6


def test_enumeration_cap_bounds_memory():
    """30 parameters give 2^30 assignments at size 2; the cap must stop the
    search after enumerating `cap` of them, without building the rest. The
    search runs in a child limited to 1 GiB of address space, so an
    enumeration that materialized the assignments fails with MemoryError
    instead of exhausting the host."""
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    code = (
        "from ddproof.semantics import EnumerationCapError, find_countermodel\n"
        "from ddproof.surface import parse_sequent\n"
        "ant = ', '.join(f'P(#a{i})' for i in range(1, 31))\n"
        "try:\n"
        "    find_countermodel(parse_sequent(ant + ' => P(#a1)'), 2, cap=1000)\n"
        "except EnumerationCapError as e:\n"
        "    print(e.count)\n"
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
    assert child.stdout.split() == ["1001"]


def test_signature_of():
    s = parse_sequent("P(#a), R(#a, $c) => forall x. Q(x)")
    sig = signature_of(s)
    assert sig.preds == (("P", 1), ("Q", 1), ("R", 2))
    assert sig.consts == ("c",)
    assert sig.params == ("a",)


def test_signature_of_rejects_a_predicate_with_two_arities():
    """The arity clash may span items: each sequent is well formed alone."""
    items = parse_sequent("P(#a) => G"), parse_sequent("P(#a, #a) => G")
    with pytest.raises(IllFormed) as e:
        signature_of(*items)
    assert (e.value.path, e.value.reason) == ("signature", "predicate P used with two arities")


def test_eval_formula_rejects_a_term():
    model = Model((0,), {}, {})
    with pytest.raises(TypeError, match=r"^not a formula: Param\(name='a'\)$"):
        eval_formula(Param("a"), model, {Param("a"): 0})


def _ref_depth(f, scope=frozenset()):
    """How deep f nests its binders, or KeyError on the first variable no
    binder binds: the recursive walk the countermodel pass made before it
    surveyed each sequent in one walk."""
    if isinstance(f, (PredAtom, Identity)):
        for t in f.args if isinstance(f, PredAtom) else (f.lhs, f.rhs):
            if isinstance(t, Var) and t.name not in scope:
                raise KeyError(t)
        return 0
    if isinstance(f, Not):
        return _ref_depth(f.sub, scope)
    if isinstance(f, (And, Or, Imp, Iff)):
        return max(_ref_depth(f.left, scope), _ref_depth(f.right, scope))
    if isinstance(f, LambdaAtom) and isinstance(f.arg, IotaTerm):
        return 1 + max(_ref_depth(f.body, scope | {f.bound}),
                       _ref_depth(f.arg.body, scope | {f.arg.bound}))
    if isinstance(f, LambdaAtom) and isinstance(f.arg, Var) and f.arg.name not in scope:
        raise KeyError(f.arg)
    return 1 + _ref_depth(f.body, scope | {f.bound})


def _outcome(run):
    try:
        return run()
    except (KeyError, IllFormed) as e:
        return type(e), e.args


def test_survey_matches_signature_and_depth():
    """`_survey` gives `signature_of`'s signature and the reference depth,
    or raises what they raise, in their order: an arity clash before an
    unbound variable. It stores nothing on the nodes it walks."""
    sample = perfbench_gen.prove_sample()
    # x is free in most desk-check formulas, and those raise KeyError
    sample += [Sequent((), (f,)) for f in perfbench_gen.desk_formulas(random.Random(5), 400)]
    fgen = FormulaGen(random.Random(5), max_conn=8, max_dd_depth=3)
    sample += [fgen.sequent() for _ in range(400)]
    raised = 0
    for s in sample:
        got = _outcome(lambda: semantics._survey(s.ant + s.suc))
        expected = _outcome(lambda: (signature_of(s), max(map(_ref_depth, s.ant + s.suc), default=0)))
        assert got == expected, s
        raised += expected[0] is KeyError
    assert 200 < raised < 400
    clash = Sequent((PredAtom("P", (Var("x"),)),), (PredAtom("P", (Param("a"), Param("b"))),))
    assert _outcome(lambda: semantics._survey(clash.ant + clash.suc)) == (
        IllFormed, ("signature: predicate P used with two arities",))

    def nodes(x):
        yield x
        for p in x.ant + x.suc if isinstance(x, Sequent) else _parts(x):
            if isinstance(p, _Node):
                yield from nodes(p)

    goal = parse_sequent("P(#a), (lam x. Q(x)) iota y. R(y, $c) => exists z. P(z) & ~Q(#b)")
    assert find_countermodel(goal) is not None
    assert [n for n in nodes(goal) if getattr(n, "_names", None) is not None] == []


# ---------------------------------------------------------------------------
# the compiled countermodel search against the reference evaluator


def _reference_countermodel(s, max_size):
    """(first (model, assignment, size) that eval_sequent rejects, or None;
    the number of interpretations enumerated to decide)."""
    sig = signature_of(s)
    count = 0
    for size in range(1, max_size + 1):
        for model, asg in iter_interpretations(sig, size):
            count += 1
            if not eval_sequent(s, model, asg):
                return (model, asg, size), count
    return None, count


def _random_formula(rng, depth, scope=(), params="ab", unary=True):
    """Closed over `scope`. Bound names come from {x, y}, so inner binders
    often shadow outer ones. With `unary` off, R/2 stands where P/1 would."""

    def term():
        pool = [Param(p) for p in params] + [Const("c")] + [Var(v) for v in scope]
        return rng.choice(pool)

    def sub(scope):
        return _random_formula(rng, depth - 1, scope, params, unary)

    kinds = ["atom", "atom"]
    if depth:
        kinds += ["not", "bin", "quant", "lam", "dd"]
    kind = rng.choice(kinds)
    if kind == "atom":
        pick = rng.randrange(3)
        if pick == 0 and unary:
            return PredAtom("P", (term(),))
        if pick < 2:
            return PredAtom("R", (term(), term()))
        return Identity(term(), term())
    if kind == "not":
        return Not(sub(scope))
    if kind == "bin":
        ctor = rng.choice([And, Or, Imp, Iff])
        return ctor(sub(scope), sub(scope))
    v = rng.choice("xy")
    body = sub(scope + (v,))
    if kind == "quant":
        return rng.choice([Forall, Exists])(v, body)
    if kind == "lam":
        return LambdaAtom(v, body, term())
    w = rng.choice("xy")
    phi = sub(scope + (w,))
    return LambdaAtom(v, body, IotaTerm(w, phi))


def test_compiled_countermodel_matches_reference():
    rng = random.Random(3)
    shadowing = parse_sequent(
        "forall x. (lam x. P(x)) (iota x. R(x, $c)) => exists y. forall y. R(y, #a)"
    )
    sample = [shadowing] + [
        Sequent(
            tuple(_random_formula(rng, 3) for _ in range(rng.randint(0, 2))),
            tuple(_random_formula(rng, 3) for _ in range(rng.randint(1, 2))),
        )
        for _ in range(150)
    ]
    found = 0
    for s in sample:
        expected, count = _reference_countermodel(s, max_size=2)
        cm = find_countermodel(s, max_size=2)
        got = None if cm is None else (cm.model, cm.assignment, cm.size)
        assert got == expected, s
        found += cm is not None
        with pytest.raises(EnumerationCapError) as e:
            find_countermodel(s, max_size=2, cap=count - 1)
        assert e.value.count == count
    # both outcomes are exercised
    assert 0 < found < len(sample)


def test_compiled_countermodel_unbound_variable():
    s = Sequent((), (PredAtom("P", (Var("x"),)),))
    with pytest.raises(KeyError):
        eval_sequent(s, M([0], {("P", 1): frozenset()}), {})
    with pytest.raises(KeyError):
        find_countermodel(s)


def test_bit_parallel_countermodel_matches_reference_up_to_size_3(monkeypatch):
    """Sequents over R/2, $c and #a, #b, #d, up to domain size 3 (41,472
    interpretations there), against the reference: the same answer, and
    the cap error raised exactly one interpretation short of the count the
    reference enumerated to decide. Each sample runs again with blocks of
    1,024 bits, so that one call walks hundreds of blocks."""
    rng = random.Random(14)
    sample = [
        # falsified only at size 3, with R full: index 41,396 of that size
        parse_sequent("forall x. forall y. R(x, y) => #a = #b | #a = #d | #b = #d | ~R($c, #a)"),
        parse_sequent("R(#a, $c), (lam x. R(x, #b)) (iota y. R(y, #d)) => exists x. R(#b, x)"),
    ] + [
        Sequent(
            tuple(_random_formula(rng, 2, (), "abd", False) for _ in range(rng.randint(0, 2))),
            (Or(*(_random_formula(rng, 2, (), "abd", False) for _ in range(2))),),
        )
        for _ in range(40)
    ]
    small, blocks = 1 << 10, []

    class CountedBlock(semantics._Block):
        def __init__(self, *args):
            blocks.append(args)
            super().__init__(*args)

    by_size = {1: 0, 2: 0, 3: 0, None: 0}
    for s in sample:
        expected, count = _reference_countermodel(s, max_size=3)
        for block in (semantics.BLOCK, small):
            monkeypatch.setattr(semantics, "BLOCK", block)
            monkeypatch.setattr(semantics, "_Block", CountedBlock)
            blocks.clear()
            cm = find_countermodel(s, max_size=3, cap=count)
            assert (None if cm is None else (cm.model, cm.assignment, cm.size)) == expected, s
            if s is sample[0] and block == small:
                assert len(blocks) > 500, len(blocks)
            with pytest.raises(EnumerationCapError) as e:
                find_countermodel(s, max_size=3, cap=count - 1)
            assert e.value.count == count
            monkeypatch.undo()
        by_size[expected and expected[2]] += 1
    assert all(by_size.values()), by_size
