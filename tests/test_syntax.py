"""Core syntax: substitution (against a naive oracle), alpha-equality,
validation, traversal helpers, and the facts nodes store."""

import concurrent.futures as cf
import itertools
import multiprocessing
import os
import pickle
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ddproof import syntax
from ddproof.surface import parse_sequent
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
    ParamSupply,
    PredAtom,
    Sequent,
    Var,
    _key,
    alpha_equal,
    alpha_key,
    consts_in,
    free_vars,
    is_formula,
    logical_constants,
    params_in,
    preds_in,
    rename_param,
    replace,
    scan_fresh,
    sequent_key,
    sequents_alpha_equal,
    substitute,
    validate_formula,
    validate_sequent,
)


# ---------------------------------------------------------------------------
# oracle: substitution by exhaustive renaming
#
# Rename every binder in the formula to a globally unused name first; after
# that no capture is possible and substitution is plain replacement. The
# implementation under test must agree up to alpha-equality.

_oracle_counter = itertools.count(1)


def _rename_all_binders(f, env):
    """env maps in-scope bound names to their replacements."""
    if isinstance(f, PredAtom):
        return PredAtom(f.pred, tuple(_rename_term(a, env) for a in f.args))
    if isinstance(f, Identity):
        return Identity(_rename_term(f.lhs, env), _rename_term(f.rhs, env))
    if isinstance(f, Not):
        return Not(_rename_all_binders(f.sub, env))
    if isinstance(f, (And, Or, Imp, Iff)):
        return type(f)(
            _rename_all_binders(f.left, env), _rename_all_binders(f.right, env)
        )
    if isinstance(f, (Forall, Exists)):
        new = f"_o{next(_oracle_counter)}"
        return type(f)(new, _rename_all_binders(f.body, {**env, f.bound: new}))
    if isinstance(f, LambdaAtom):
        new = f"_o{next(_oracle_counter)}"
        body = _rename_all_binders(f.body, {**env, f.bound: new})
        if isinstance(f.arg, IotaTerm):
            anew = f"_o{next(_oracle_counter)}"
            arg = IotaTerm(
                anew, _rename_all_binders(f.arg.body, {**env, f.arg.bound: anew})
            )
        else:
            arg = _rename_term(f.arg, env)
        return LambdaAtom(new, body, arg)
    raise AssertionError(f)


def _rename_term(t, env):
    if isinstance(t, Var) and t.name in env:
        return Var(env[t.name])
    return t


def _blind_replace(f, x, t):
    if isinstance(f, PredAtom):
        return PredAtom(
            f.pred, tuple(t if a == Var(x) else a for a in f.args)
        )
    if isinstance(f, Identity):
        return Identity(
            t if f.lhs == Var(x) else f.lhs, t if f.rhs == Var(x) else f.rhs
        )
    if isinstance(f, Not):
        return Not(_blind_replace(f.sub, x, t))
    if isinstance(f, (And, Or, Imp, Iff)):
        return type(f)(_blind_replace(f.left, x, t), _blind_replace(f.right, x, t))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.bound, _blind_replace(f.body, x, t))
    if isinstance(f, LambdaAtom):
        if isinstance(f.arg, IotaTerm):
            arg = IotaTerm(f.arg.bound, _blind_replace(f.arg.body, x, t))
        else:
            arg = t if f.arg == Var(x) else f.arg
        return LambdaAtom(f.bound, _blind_replace(f.body, x, t), arg)
    raise AssertionError(f)


def oracle_substitute(f, x, t):
    return _blind_replace(_rename_all_binders(f, {}), x, t)


# ---------------------------------------------------------------------------
# formula generator shared with the other test modules

from genutil import (  # noqa: E402
    closed_formula_strategy,
    formula_strategy,
    ref_degree,
    ref_occurrences,
    term_strategy,
)


# ---------------------------------------------------------------------------
# substitution


@given(formula_strategy(), st.sampled_from(["x", "y"]), term_strategy())
@settings(max_examples=300, deadline=None)
def test_substitute_matches_oracle(f, x, t):
    assert alpha_equal(substitute(f, x, t), oracle_substitute(f, x, t))


def test_substitute_examples():
    # replacement under a quantifier that does not bind x
    f = Forall("y", PredAtom("R", (Var("x"), Var("y"))))
    g = substitute(f, "x", Param("b"))
    assert g == Forall("y", PredAtom("R", (Param("b"), Var("y"))))

    # shadowing: bound x is untouched
    f = Forall("x", PredAtom("P", (Var("x"),)))
    assert substitute(f, "x", Param("b")) is f

    # abstract argument position is substituted
    f = LambdaAtom("z", Identity(Var("z"), Var("x")), Param("a"))
    g = substitute(f, "x", Param("b"))
    assert g == LambdaAtom("z", Identity(Var("z"), Param("b")), Param("a"))

    # description body is substituted
    f = LambdaAtom("z", PredAtom("P", (Var("z"),)), IotaTerm("w", Identity(Var("w"), Var("x"))))
    g = substitute(f, "x", Const("c"))
    assert g.arg == IotaTerm("w", Identity(Var("w"), Const("c")))


def test_substitute_capture_renames_binder():
    # (forall y. R(x, y))[x/y] must rename the binder, not capture
    f = Forall("y", PredAtom("R", (Var("x"), Var("y"))))
    g = substitute(f, "x", Var("y"))
    assert isinstance(g, Forall)
    assert g.bound == "y1"
    assert g.body == PredAtom("R", (Var("y"), Var(g.bound)))
    assert alpha_equal(g, oracle_substitute(f, "x", Var("y")))
    # the minted name depends on the input only
    assert substitute(f, "x", Var("y")) == g


def test_substitute_iota_capture():
    f = LambdaAtom(
        "z",
        PredAtom("P", (Var("z"),)),
        IotaTerm("w", PredAtom("R", (Var("w"), Var("x")))),
    )
    g = substitute(f, "x", Var("w"))
    assert alpha_equal(g, oracle_substitute(f, "x", Var("w")))
    assert g.arg.bound != "w"


@given(formula_strategy(2), st.sampled_from(["x", "y"]))
@settings(max_examples=150, deadline=None)
def test_substitute_param_then_param_commutes(f, x):
    # substituting distinct params for distinct vars commutes
    g1 = substitute(substitute(f, x, Param("p")), "z", Param("q"))
    g2 = substitute(substitute(f, "z", Param("q")), x, Param("p"))
    assert alpha_equal(g1, g2)


def test_substitute_identity_when_absent():
    f = PredAtom("P", (Param("a"),))
    assert substitute(f, "x", Const("c")) is f


# ---------------------------------------------------------------------------
# alpha equality


def test_alpha_equal_basics():
    f = Forall("x", PredAtom("P", (Var("x"),)))
    g = Forall("y", PredAtom("P", (Var("y"),)))
    assert alpha_equal(f, g)
    assert alpha_key(f) == alpha_key(g)
    assert not alpha_equal(f, Exists("x", PredAtom("P", (Var("x"),))))


def test_alpha_distinguishes_params_from_bound():
    f = Forall("x", Identity(Var("x"), Param("x")))
    g = Forall("y", Identity(Var("y"), Param("x")))
    h = Forall("y", Identity(Var("y"), Param("y")))
    assert alpha_equal(f, g)
    assert not alpha_equal(f, h)


def test_alpha_lambda_and_iota():
    f = LambdaAtom("x", PredAtom("P", (Var("x"),)), IotaTerm("y", PredAtom("Q", (Var("y"),))))
    g = LambdaAtom("u", PredAtom("P", (Var("u"),)), IotaTerm("v", PredAtom("Q", (Var("v"),))))
    assert alpha_equal(f, g)
    # argument matters
    h = LambdaAtom("u", PredAtom("P", (Var("u"),)), Param("a"))
    assert not alpha_equal(f, h)


def test_shadowing_keys():
    f = Forall("x", Forall("x", PredAtom("P", (Var("x"),))))
    g = Forall("y", Forall("x", PredAtom("P", (Var("x"),))))
    assert alpha_equal(f, g)


def test_sequent_alpha_multiset():
    p, q = PredAtom("P", ()), PredAtom("Q", ())
    assert sequents_alpha_equal(Sequent((p, q), ()), Sequent((q, p), ()))
    assert not sequents_alpha_equal(Sequent((p, p), ()), Sequent((p,), ()))


@given(formula_strategy(2))
@settings(max_examples=100, deadline=None)
def test_alpha_key_stable_under_bound_rename(f):
    # renaming a binder through substitution keeps the key
    if isinstance(f, (Forall, Exists)):
        fresh = Var("w9")
        g = type(f)("w9", substitute(f.body, f.bound, fresh))
        assert alpha_equal(f, g)


# ---------------------------------------------------------------------------
# traversal / counting


def test_free_vars_and_params():
    f = And(
        Forall("x", PredAtom("R", (Var("x"), Var("y")))),
        LambdaAtom("z", Identity(Var("z"), Param("a")), IotaTerm("w", PredAtom("P", (Var("u"),)))),
    )
    assert free_vars(f) == {"y", "u"}
    assert params_in(f) == {"a"}
    assert consts_in(f) == frozenset()
    assert params_in([f, Param("b")]) == {"a", "b"}


@pytest.mark.parametrize("gather", [params_in, consts_in])
@pytest.mark.parametrize("x, text", [
    ("ab", "'ab'"), (("x", Param("b")), "'x'"), ([Const("c"), ["d"]], "'d'"),
])
def test_name_gathers_reject_a_string(gather, x, text):
    """A string's items are strings, so a gather over one would never end:
    it is a TypeError naming the string, however deep it sits."""
    with pytest.raises(TypeError) as e:
        gather(x)
    assert str(e.value) == f"not a node, term or iterable of them: {text}"


def test_logical_constants():
    dd = LambdaAtom("x", PredAtom("P", (Var("x"),)), IotaTerm("y", PredAtom("Q", (Var("y"),))))
    assert logical_constants(dd) == 2
    assert logical_constants(PredAtom("P", (Param("a"),))) == 0
    assert logical_constants(Identity(Param("a"), Param("b"))) == 0
    assert logical_constants(Iff(PredAtom("P", ()), PredAtom("Q", ()))) == 1
    f = Forall("x", Imp(PredAtom("P", (Var("x"),)), Not(PredAtom("Q", (Var("x"),)))))
    assert logical_constants(f) == 3
    nested = LambdaAtom(
        "x",
        And(PredAtom("P", (Var("x"),)), PredAtom("Q", (Var("x"),))),
        IotaTerm("y", Not(PredAtom("Q", (Var("y"),)))),
    )
    # lam + iota + and + not
    assert logical_constants(nested) == 4


# ---------------------------------------------------------------------------
# validation


def test_validate_ok_with_outer_binder_over_description():
    f = Forall(
        "x",
        LambdaAtom("z", PredAtom("P", (Var("z"),)), IotaTerm("y", Identity(Var("y"), Var("x")))),
    )
    validate_formula(f)


def test_validate_arity_clash():
    f = And(PredAtom("P", (Param("a"),)), PredAtom("P", (Param("a"), Param("b"))))
    with pytest.raises(IllFormed) as e:
        validate_formula(f)
    assert "arity" in str(e.value)
    assert e.value.path.startswith("root.right")


def test_validate_arity_across_formulas():
    arities = validate_formula(PredAtom("P", (Param("a"),)))
    with pytest.raises(IllFormed):
        validate_formula(PredAtom("P", ()), arities)


def test_validate_iota_outside_abstract():
    bad = PredAtom("P", (IotaTerm("y", PredAtom("Q", (Var("y"),))),))
    with pytest.raises(IllFormed) as e:
        validate_formula(bad)
    assert "description" in e.value.reason


def test_validate_sequent_var_closed():
    s = Sequent((PredAtom("P", (Var("x"),)),), ())
    with pytest.raises(IllFormed) as e:
        validate_sequent(s)
    assert "free variable" in e.value.reason
    ok = Sequent((PredAtom("P", (Param("a"),)),), (Forall("x", PredAtom("P", (Var("x"),))),))
    validate_sequent(ok)


_DESC = IotaTerm("y", PredAtom("Q", (Var("y"),)))


@pytest.mark.parametrize(
    "bad, path, reason",
    [
        (PredAtom("P", (Param("a"), _DESC)), "root.arg1",
         "description outside an abstract argument"),
        (Identity(Not(PredAtom("G", ())), Param("a")), "root.lhs",
         "not a term: Not(sub=PredAtom(pred='G', args=()))"),
        (Not(Param("a")), "root.sub", "not a formula: Param(name='a')"),
        (And(_DESC, PredAtom("G", ())), "root.left", f"not a formula: {_DESC!r}"),
        (Forall("x", PredAtom("P", (_DESC,))), "root.body.arg0",
         "description outside an abstract argument"),
        (LambdaAtom("x", PredAtom("G", ()), IotaTerm("y", Identity(Var("y"), _DESC))),
         "root.arg.body.rhs", "description outside an abstract argument"),
        (LambdaAtom("x", PredAtom("G", ()), IotaTerm("y", PredAtom("G", (Var("y"),)))),
         "root.arg.body", "predicate G used with arity 1, previously 0"),
        (Param("a"), "root", "not a formula: Param(name='a')"),
    ],
)
def test_validate_paths(bad, path, reason):
    with pytest.raises(IllFormed) as e:
        validate_formula(bad)
    assert (e.value.path, e.value.reason) == (path, reason)


@pytest.mark.parametrize(
    "bad, path, reason",
    [
        (Sequent((Param("a"),), ()), "root.ant0", "not a formula: Param(name='a')"),
        (Sequent((PredAtom("G", ()),), (PredAtom("G", ()), And(_DESC, PredAtom("G", ())))),
         "root.suc1.left", f"not a formula: {_DESC!r}"),
        (Sequent((), (PredAtom("G", ()), PredAtom("P", (Var("x"),)))), "root.suc1",
         "free variable(s) ['x'] in sequent"),
    ],
)
def test_validate_sequent_paths(bad, path, reason):
    """A sequent's formulas are named by side and index below the path
    given, which the CLI starts with the input's line number."""
    for given in ("root", "line 3: root"):
        with pytest.raises(IllFormed) as e:
            validate_sequent(bad, path=given)
        assert (e.value.path, e.value.reason) == (given + path[4:], reason)


# ---------------------------------------------------------------------------
# shapes


_ONE_OF_EACH = [
    PredAtom("G", ()),
    PredAtom("R", (Var("x"), Param("a"), Const("c"))),
    Identity(Var("x"), Const("c")),
    Not(PredAtom("G", ())),
    And(PredAtom("G", ()), Not(PredAtom("G", ()))),
    Or(PredAtom("G", ()), Not(PredAtom("G", ()))),
    Imp(PredAtom("G", ()), Not(PredAtom("G", ()))),
    Iff(PredAtom("G", ()), Not(PredAtom("G", ()))),
    Forall("x", PredAtom("P", (Var("x"),))),
    Exists("x", PredAtom("P", (Var("x"),))),
    LambdaAtom("x", PredAtom("P", (Var("x"),)), Param("a")),
    LambdaAtom("x", PredAtom("P", (Var("x"),)), _DESC),
    _DESC,
]


def test_shapes_cover_every_node_class():
    assert {type(f) for f in _ONE_OF_EACH} == set(syntax._SHAPES)
    assert [is_formula(f) for f in _ONE_OF_EACH] == [True] * 12 + [False]


@pytest.mark.parametrize("f", _ONE_OF_EACH, ids=lambda f: type(f).__name__)
def test_rebuild_of_parts_is_the_node(f):
    parts = syntax._parts(f)
    fields = [getattr(f, name) for name in f.__match_args__ if name not in ("pred", "bound")]
    assert parts == (fields[0] if isinstance(f, PredAtom) else tuple(fields))
    assert syntax._rebuild(f, parts) == f
    if hasattr(f, "bound"):
        assert syntax._rebuild(f, parts, "w").bound == "w"


@given(formula_strategy())
@settings(max_examples=150, deadline=None)
def test_rebuild_of_parts_is_the_node_throughout(f):
    for g in _nodes(f):
        assert syntax._rebuild(g, list(syntax._parts(g))) == g


# ---------------------------------------------------------------------------
# fresh parameters


def test_param_supply_cursor_matches_scan_fresh():
    """Every name a supply mints is the smallest free one, as `scan_fresh`
    finds it over the avoid set grown by the names minted so far: the
    cursor never skips a name that is still free."""
    supply = ParamSupply({"a1", "a3", "a4", "b2", "aa2"})
    assert [supply.fresh().name for _ in range(4)] == ["a2", "a5", "a6", "a7"]
    rng = random.Random(20261018)
    for _ in range(200):
        avoid = {f"a{i}" for i in range(1, 16) if rng.random() < 0.5}
        avoid |= set(rng.sample(["a", "a0", "aa1", "b1", "b2", "wa3", "a012"], 3))
        supplies = [(ParamSupply(avoid), set(avoid)) for _ in range(2)]
        for _ in range(25):
            supply, seen = rng.choice(supplies)
            expected = scan_fresh("a", seen)
            seen.add(expected)
            assert supply.fresh() == Param(expected)


# ---------------------------------------------------------------------------
# stored facts against fresh walks
#
# Every formula node, description and sequent stores its hash, canonical
# key, free variables and names on first use. The reference walks below
# store nothing and read nothing stored, except the children's hashes
# inside the field tuple, which are checked at every node themselves.


def _ref_free_vars(f, bound=frozenset()) -> set:
    if isinstance(f, (PredAtom, Identity)):
        terms = f.args if isinstance(f, PredAtom) else (f.lhs, f.rhs)
        return {t.name for t in terms if isinstance(t, Var) and t.name not in bound}
    if isinstance(f, Not):
        return _ref_free_vars(f.sub, bound)
    if isinstance(f, (And, Or, Imp, Iff)):
        return _ref_free_vars(f.left, bound) | _ref_free_vars(f.right, bound)
    if isinstance(f, (Forall, Exists)):
        return _ref_free_vars(f.body, bound | {f.bound})
    out = _ref_free_vars(f.body, bound | {f.bound})
    if isinstance(f.arg, IotaTerm):
        out |= _ref_free_vars(f.arg.body, bound | {f.arg.bound})
    elif isinstance(f.arg, Var) and f.arg.name not in bound:
        out.add(f.arg.name)
    return out


def _nodes(x):
    """Every formula node and description in x, x included."""
    yield x
    if isinstance(x, Sequent):
        for f in x.ant + x.suc:
            yield from _nodes(f)
    elif isinstance(x, Not):
        yield from _nodes(x.sub)
    elif isinstance(x, (And, Or, Imp, Iff)):
        yield from _nodes(x.left)
        yield from _nodes(x.right)
    elif isinstance(x, (Forall, Exists, IotaTerm)):
        yield from _nodes(x.body)
    elif isinstance(x, LambdaAtom):
        yield from _nodes(x.body)
        if isinstance(x.arg, IotaTerm):
            yield from _nodes(x.arg)


def _assert_facts_fresh(x) -> None:
    for g in _nodes(x):
        assert hash(g) == hash(tuple(getattr(g, name) for name in g.__match_args__))
        terms, preds = [], []
        ref_occurrences(g, terms, preds)
        assert params_in(g) == {t.name for t in terms if isinstance(t, Param)}
        assert consts_in(g) == {t.name for t in terms if isinstance(t, Const)}
        assert preds_in(g) == tuple(dict.fromkeys(preds))
        if isinstance(g, Sequent):
            assert sequent_key(g) == (
                tuple(sorted(_key(f, ()) for f in g.ant)),
                tuple(sorted(_key(f, ()) for f in g.suc)),
            )
        else:
            assert logical_constants(g) == ref_degree(g)
            if not isinstance(g, IotaTerm):
                assert free_vars(g) == _ref_free_vars(g)
                assert alpha_key(g) == _key(g, ())


def _respell(x, preds: dict, terms: dict):
    """x with predicate names and terms renamed by the two maps, read off
    the record fields."""
    if isinstance(x, tuple):
        return tuple(_respell(y, preds, terms) for y in x)
    if isinstance(x, (Var, Param, Const)):
        return terms.get(x, x)
    if not hasattr(x, "__match_args__"):
        return x
    fields = {name: _respell(getattr(x, name), preds, terms) for name in x.__match_args__}
    if isinstance(x, PredAtom):
        fields["pred"] = preds.get(x.pred, x.pred)
    return replace(x, **fields)


# predicate, parameter and constant names that spell the key's tags or its
# term tokens
_TAG_PREDS = ["P", "not", "and", "all", "iff"]
_TAG_TERMS = ["P", "b0", "v"]


def _formula_fields(f) -> list:
    return [name for name in f.__match_args__ if is_formula(getattr(f, name))]


@given(
    formula_strategy(),
    formula_strategy(2),
    st.sampled_from(["x", "y"]),
    term_strategy(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_stored_facts_match_fresh_walks(f, g, x, t, root_first):
    # the facts of a node are asked before or after those of its children
    for h in _nodes(f) if not root_first else [f]:
        if not isinstance(h, IotaTerm):
            alpha_key(h), free_vars(h), params_in(h)
    _assert_facts_fresh(f)
    _assert_facts_fresh(substitute(f, x, t))
    _assert_facts_fresh(rename_param(f, "a", Param("b")))
    _assert_facts_fresh(rename_param(f, "b", Const("c")))
    # a sequent's names are the union of its formulas' stored ones: asked
    # of a sequent that holds one formula object twice, before the formula
    # is asked itself (g is not asked above) ...
    _assert_facts_fresh(Sequent((g,), (g,)))
    # ... and of a sequent whose formulas stored their names before it
    params_in(g), preds_in(f)
    _assert_facts_fresh(Sequent((f, g), (g,)))
    # a replaced field is seen: nothing stored on f is carried over
    for name in _formula_fields(f):
        _assert_facts_fresh(replace(f, **{name: g}))
    if isinstance(f, PredAtom):
        _assert_facts_fresh(replace(f, args=f.args + (t,)))
    # names that spell tags and tokens are read by their place in the key
    for i, name in enumerate(_TAG_PREDS):
        p, b, c = (_TAG_TERMS[(i + j) % 3] for j in range(3))
        preds = {"P": name, "R": _TAG_PREDS[i - 1]}
        terms = {Param("a"): Param(p), Param("b"): Param(b), Const("c"): Const(c)}
        _assert_facts_fresh(And(_respell(f, preds, terms), PredAtom("ex", ())))


def test_rename_param_keeps_a_formula_without_the_parameter():
    f = Forall("x", And(PredAtom("P", (Var("x"), Param("a"))), Identity(Const("c"), Var("x"))))
    key = alpha_key(f)
    kept = rename_param(f, "zz", Param("b"))
    assert kept is f and kept._akey is key
    renamed = rename_param(f, "a", Param("b"))
    assert renamed is not f and params_in(renamed) == {"b"}


def test_stored_hash_is_the_field_tuple_hash():
    f = Forall("x", And(PredAtom("P", (Var("x"), Param("a"))), Identity(Const("c"), Var("x"))))
    assert hash(f) == hash(("x", f.body))
    assert hash(f.body) == hash((f.body.left, f.body.right))
    assert hash(f.body.left) == hash(("P", (Var("x"), Param("a"))))
    s = Sequent((f,), ())
    assert hash(s) == hash(((f,), ()))
    # equal formulas built apart agree on every fact
    g = Forall("x", And(PredAtom("P", (Var("x"), Param("a"))), Identity(Const("c"), Var("x"))))
    assert g == f and g is not f and hash(g) == hash(f) and {f: 1}[g] == 1


def _lookup_in_child(data: bytes, text: str):
    """Run in a spawned interpreter: unpickle a sequent hashed and keyed in
    the parent and look its formulas up among equal ones built here."""
    from ddproof.surface import parse_sequent

    s = pickle.loads(data)
    fresh = parse_sequent(text)
    here = set(fresh.ant + fresh.suc)
    return (
        hash("ddproof"),
        [f in here for f in s.ant + s.suc],
        s in {fresh},
        sequent_key(s) == sequent_key(fresh),
    )


def test_stored_hash_does_not_cross_processes(monkeypatch):
    """String hashes are salted per process, so a hash stored in one must
    not be pickled into another: a pickled sequent unpickled in a process
    with another salt must hash and key as one built there."""
    text = "forall x. P(x, #a), (lam y. Q(y)) iota z. R(z, $c) => exists y. P(y, #a), #a = $c"
    s = parse_sequent(text)
    for f in s.ant + s.suc:
        hash(f), alpha_key(f), free_vars(f), params_in(f)
    hash(s), sequent_key(s), params_in(s)
    seed = "54321" if os.environ.get("PYTHONHASHSEED") == "12345" else "12345"
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    ctx = multiprocessing.get_context("spawn")
    with cf.ProcessPoolExecutor(max_workers=1, mp_context=ctx) as ex:
        salt, found, seq_found, same_key = ex.submit(
            _lookup_in_child, pickle.dumps(s), text
        ).result(timeout=120)
    assert salt != hash("ddproof"), "the child was not salted differently"
    assert found == [True] * 4
    assert seq_found and same_key


# ---------------------------------------------------------------------------
# stored side multisets: `sequent_key`, each side's alpha keys sorted


def _ref_counts(s: Sequent) -> list:
    return [Counter(alpha_key(f) for f in side) for side in (s.ant, s.suc)]


def _as_counts(keys: tuple) -> list:
    """The multisets a `sequent_key` holds, once each side is seen sorted."""
    assert all(list(side) == sorted(side) for side in keys)
    return [Counter(side) for side in keys]


@given(
    st.lists(closed_formula_strategy(2), min_size=1, max_size=3),
    st.lists(st.integers(0, 7), max_size=6),
    st.lists(st.integers(0, 7), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_sequent_keys_are_the_alpha_key_multisets(drawn, ant_at, suc_at):
    # two alpha-variants, so that formulas built apart share a key
    pool = drawn + [Forall(v, PredAtom("P", (Var(v),))) for v in ("x", "y")]
    s = Sequent(
        tuple(pool[i % len(pool)] for i in ant_at),
        tuple(pool[i % len(pool)] for i in suc_at),
    )
    keys = sequent_key(s)
    assert _as_counts(keys) == _ref_counts(s)
    assert sequent_key(s) is keys
    # a replaced side is seen: nothing stored on s is carried over
    for changed in (
        replace(s, ant=s.suc),
        replace(s, suc=s.suc + (pool[0],)),
        replace(s, ant=()),
    ):
        assert _as_counts(sequent_key(changed)) == _ref_counts(changed)


def test_sequent_keys_follow_replace():
    f, g = PredAtom("P", (Param("a"),)), PredAtom("Q", ())
    fk, gk = alpha_key(f), alpha_key(g)
    s = Sequent((f, g, f), (g,))
    assert sequent_key(s) == (tuple(sorted((fk, fk, gk))), (gk,))
    moved = replace(s, suc=(f,))
    assert sequent_key(moved) == (tuple(sorted((fk, fk, gk))), (fk,))
    assert sequent_key(s)[1] == (gk,)


def _keys_in_child(data: bytes, text: str):
    """Run in a spawned interpreter: is anything stored on the unpickled
    sequent, and are its side multisets those of the same text parsed here?"""
    s = pickle.loads(data)
    stored = getattr(s, "_akey", None) is not None
    fresh = parse_sequent(text)
    keys = sequent_key(s)
    return hash("ddproof"), stored, keys == sequent_key(fresh), _as_counts(keys) == _ref_counts(s)


def test_sequent_keys_do_not_cross_processes(monkeypatch):
    text = "forall x. P(x, #a), forall y. P(y, #a), Q(#a) => Q(#a), (lam y. Q(y)) iota z. R(z, $c)"
    s = parse_sequent(text)
    assert Counter(sequent_key(s)[0]) == {alpha_key(s.ant[0]): 2, alpha_key(s.ant[2]): 1}
    seed = "54321" if os.environ.get("PYTHONHASHSEED") == "12345" else "12345"
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    ctx = multiprocessing.get_context("spawn")
    with cf.ProcessPoolExecutor(max_workers=1, mp_context=ctx) as ex:
        salt, stored, same, reference = ex.submit(
            _keys_in_child, pickle.dumps(s), text
        ).result(timeout=120)
    assert salt != hash("ddproof"), "the child was not salted differently"
    assert not stored
    assert same and reference


def test_substitute_is_linear_in_depth(monkeypatch):
    """`substitute` reads the free variables stored on each node, so it
    asks for them a bounded number of times per level (the unstored walk
    asked for every suffix of the chain: 20,301 calls at depth 200)."""
    n = 200
    f = PredAtom("P", (Var("x"),))
    for _ in range(n):
        f = Not(f)
    calls = 0
    fresh_walk = syntax.free_vars

    def counting(g):
        nonlocal calls
        calls += 1
        return fresh_walk(g)

    monkeypatch.setattr(syntax, "free_vars", counting)
    out = substitute(f, "x", Param("a"))
    assert calls <= 3 * (n + 1)
    expect = PredAtom("P", (Param("a"),))
    for _ in range(n):
        expect = Not(expect)
    assert out == expect


# ---------------------------------------------------------------------------
# records: every class `syntax.record` makes keeps the dataclass contract
# (repr, equality, hash, frozenness, defaults, replace, pickling)


def _records() -> dict:
    import ddproof.cli  # noqa: F401  (loads every module)

    found = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("ddproof"):
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__repr__ is syntax._repr:
                    found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return found


# the record classes that are mutable, that compare by identity, and that
# have slots; the others are frozen, compare fields and keep a `__dict__`
_MUTABLE = {"kernel.StepInfo", "search._Move", "semantics.Model", "semantics.Countermodel"}
_IDENTITY = {"kernel.ProofNode", "kernel.Proof"}
_SLOTTED = {
    f"syntax.{c}" for c in (
        "IotaTerm PredAtom Identity Not And Or Imp Iff Forall Exists "
        "LambdaAtom Sequent"
    ).split()
}


def test_record_classes_and_their_kinds():
    names = {name.removeprefix("ddproof.") for name in _records()}
    assert len(names) == 27
    assert _MUTABLE | _IDENTITY | _SLOTTED <= names
    assert sum(name.startswith("syntax.") for name in names) == 15


@pytest.mark.parametrize("name", sorted(_records()))
def test_record_semantics(name):
    cls = _records()[name]
    name = name.removeprefix("ddproof.")
    fields = cls.__match_args__
    values = tuple(f"{n}!" for n in fields)
    x, y = cls(*values), cls(**dict(zip(fields, values)))
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(fields, values))
    assert repr(x) == f"{cls.__qualname__}({shown})"
    assert tuple(getattr(y, n) for n in fields) == values
    other = cls(*values[:-1], "other")
    if name in _IDENTITY:
        assert x != y and x == x and hash(x) == object.__hash__(x)
    else:
        assert x == y and x is not y and x != other
        assert x.__eq__(values) is NotImplemented
    if name in _MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(x)
        changed = cls(*values)
        setattr(changed, fields[0], "changed")
        assert getattr(changed, fields[0]) == "changed"
    else:
        if name not in _IDENTITY:
            assert hash(x) == hash(y) == hash(values)
        for attempt in (lambda: setattr(x, fields[0], "z"), lambda: delattr(x, fields[0])):
            with pytest.raises(AttributeError):
                attempt()
        assert getattr(x, fields[0]) == values[0]
    assert (name in _SLOTTED) == ("__dict__" not in dir(x))
    if name in _SLOTTED:
        assert x._hash == hash(values)  # stored
    # a replaced or unpickled record holds its fields and nothing stored
    moved = syntax.replace(x, **{fields[-1]: "new"})
    back = pickle.loads(pickle.dumps(x))
    assert x.__reduce__() == (cls, tuple(getattr(x, n) for n in fields))
    for z, want in ((moved, values[:-1] + ("new",)), (back, tuple(getattr(x, n) for n in fields))):
        assert type(z) is cls and z is not x
        assert tuple(getattr(z, n) for n in fields) == want
        if name in _SLOTTED:
            extra = {s for c in cls.__mro__ for s in getattr(c, "__slots__", ())} - set(fields)
            assert extra and not [s for s in extra if hasattr(z, s)]
        else:
            assert set(vars(z)) == set(fields)


def test_record_methods_are_compiled_under_their_class_name():
    """Profilers key functions by (file, line, name) and tracebacks show the
    file, so each record class's written-out methods are compiled under a
    file name of its own, outside the package path."""
    records = _records()
    names = {name: cls.__init__.__code__.co_filename for name, cls in records.items()}
    assert names == {name: f"<record {name}>" for name in records}
    assert names["ddproof.syntax.Param"] != names["ddproof.syntax.Const"]
    assert syntax.Param.__eq__.__code__.co_filename == "<record ddproof.syntax.Param>"


def test_record_defaults():
    from ddproof.kernel import StepInfo
    from ddproof.search import DEFAULT_BUDGET, SearchBudget
    from ddproof.semantics import Model

    assert DEFAULT_BUDGET == SearchBudget(20, 4, 2, 3)
    assert StepInfo("ax") == StepInfo("ax", None, (), None, None)
    assert PredAtom("P") == PredAtom("P", ())
    # a `{}` default is a new dict for each instance
    a, b = Model((0,), {}).consts, Model((0,), {}).consts
    assert a == b == {} and a is not b
    assert Model((0,), {}, {"k": 1}).consts == {"k": 1}
