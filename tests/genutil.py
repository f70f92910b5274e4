"""Shared random generators for the test suite.

Hypothesis strategies for formulas, for shrinking; and, for cheap bulk
sampling with size knobs, the seeded generators `FormulaGen` and
`ProofGen` of `perfbench/gen.py`, the benchmark's own input module, which
also builds the criterion-4 cut corpus (`perfbench_gen.cut_corpus()`).
The tests and the benchmark thus draw the same inputs from one copy.
"""

import functools
import importlib.util
import os

from hypothesis import strategies as st

from ddproof.builders import mk_cut, paraphrase
from ddproof.cli import fixture_proofs
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
)

# perfbench is a directory of scripts, not a package: load gen.py by path
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_gen", os.path.join(_ROOT, "perfbench", "gen.py")
)
perfbench_gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_gen)
FormulaGen, ProofGen = perfbench_gen.FormulaGen, perfbench_gen.ProofGen

TERMS = [Var("x"), Var("y"), Param("a"), Param("b"), Const("c")]


def rlambda_goals(psi, phi):
    """The two implication sequents relating (lam x. psi)(iota y. phi) to
    its quantified paraphrase: unfold (the description proves the
    paraphrase), then fold."""
    dd = LambdaAtom("x", psi, IotaTerm("y", phi))
    ex = paraphrase(dd)
    return Sequent((dd,), (ex,)), Sequent((ex,), (dd,))


def cut_chain(n: int):
    """n lemma cuts composed. L (dd => ex) and R (ex => dd) are the
    paraphrase bridges: the chain starts with cut(L, R) on ex, then cuts in
    L on dd and R on ex in turn."""
    golden = dict(fixture_proofs())
    left, right = golden["rlambda_left"], golden["rlambda_right"]
    (dd,), (ex,) = left.conclusion.ant, left.conclusion.suc
    p = mk_cut(left, right, ex)
    for i in range(2, n + 1):
        p = mk_cut(p, left, dd) if i % 2 == 0 else mk_cut(p, right, ex)
    return p


def term_strategy():
    return st.sampled_from(TERMS)


def atom_strategy():
    unary = st.builds(PredAtom, st.just("P"), st.tuples(term_strategy()))
    binary = st.builds(
        PredAtom, st.just("R"), st.tuples(term_strategy(), term_strategy())
    )
    ident = st.builds(Identity, term_strategy(), term_strategy())
    return st.one_of(unary, binary, ident)


def formula_strategy(depth=3):
    base = atom_strategy()
    if depth == 0:
        return base
    sub = formula_strategy(depth - 1)
    bound = st.sampled_from(["x", "y", "z"])
    lam_arg = st.one_of(term_strategy(), st.builds(IotaTerm, bound, sub))
    return st.one_of(
        base,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(Forall, bound, sub),
        st.builds(Exists, bound, sub),
        st.builds(LambdaAtom, bound, sub, lam_arg),
    )


@functools.lru_cache(maxsize=None)
def closed_formula_strategy(depth=3, scope=frozenset()):
    """Formulas over the atoms of `formula_strategy` with no free variable,
    by construction: a variable is drawn only from the binders in scope.
    Bound names come from {x, y, z}, so inner binders may shadow outer
    ones."""
    term = st.sampled_from([Param("a"), Param("b"), Const("c")] + [Var(v) for v in sorted(scope)])
    base = st.one_of(
        st.builds(PredAtom, st.just("P"), st.tuples(term)),
        st.builds(PredAtom, st.just("R"), st.tuples(term, term)),
        st.builds(Identity, term, term),
    )
    if depth == 0:
        return base
    sub = closed_formula_strategy(depth - 1, scope)

    def bind(make):
        # one choice per bound name, the body closed under it
        return st.one_of(*[make(st.just(v), closed_formula_strategy(depth - 1, scope | {v}))
                           for v in "xyz"])

    lam_arg = st.one_of(term, bind(lambda v, body: st.builds(IotaTerm, v, body)))
    return st.one_of(
        base,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
        st.builds(Iff, sub, sub),
        bind(lambda v, body: st.builds(Forall, v, body)),
        bind(lambda v, body: st.builds(Exists, v, body)),
        bind(lambda v, body: st.builds(LambdaAtom, v, body, lam_arg)),
    )


def sequent_strategy(depth=2, max_side=3):
    forms = st.lists(closed_formula_strategy(depth), max_size=max_side)
    return st.builds(lambda a, s: Sequent(tuple(a), tuple(s)), forms, forms)


def ref_occurrences(x, terms: list, preds: list) -> None:
    """Append the term and (name, arity) occurrences of a sequent, formula
    or description, in walk order: a reference walk over the node classes,
    independent of the names `syntax` stores."""
    if isinstance(x, Sequent):
        for f in x.ant + x.suc:
            ref_occurrences(f, terms, preds)
    elif isinstance(x, PredAtom):
        terms.extend(x.args)
        preds.append((x.pred, len(x.args)))
    elif isinstance(x, Identity):
        terms.extend((x.lhs, x.rhs))
    elif isinstance(x, Not):
        ref_occurrences(x.sub, terms, preds)
    elif isinstance(x, (And, Or, Imp, Iff)):
        ref_occurrences(x.left, terms, preds)
        ref_occurrences(x.right, terms, preds)
    elif isinstance(x, (Forall, Exists, IotaTerm)):
        ref_occurrences(x.body, terms, preds)
    else:
        ref_occurrences(x.body, terms, preds)
        if isinstance(x.arg, IotaTerm):
            ref_occurrences(x.arg.body, terms, preds)
        else:
            terms.append(x.arg)


def ref_degree(f) -> int:
    """Connectives, quantifiers, abstracts and descriptions in a formula or
    description, each counted once: a reference walk over the node
    classes, independent of the key `logical_constants` reads."""
    if isinstance(f, (PredAtom, Identity)):
        return 0
    if isinstance(f, Not):
        return 1 + ref_degree(f.sub)
    if isinstance(f, (And, Or, Imp, Iff)):
        return 1 + ref_degree(f.left) + ref_degree(f.right)
    if isinstance(f, (Forall, Exists, IotaTerm)):
        return 1 + ref_degree(f.body)
    return 1 + ref_degree(f.body) + (ref_degree(f.arg) if isinstance(f.arg, IotaTerm) else 0)


def has_description(f):
    """True when the formula contains a predicate abstract applied to a
    definite description."""
    if isinstance(f, LambdaAtom):
        if isinstance(f.arg, IotaTerm):
            return True
        return has_description(f.body)
    if isinstance(f, Not):
        return has_description(f.sub)
    if isinstance(f, (And, Or, Imp, Iff)):
        return has_description(f.left) or has_description(f.right)
    if isinstance(f, (Forall, Exists)):
        return has_description(f.body)
    return False
