"""Truth tables over every small interpretation at once, as big integers.

The exhaustive substitution-lemma sweep has to evaluate hundreds of
thousands of formulas over every model of the {P/1, Q/1, R/2} signature
with domain size 1 or 2, every interpretation of the parameter a, and
every assignment to the variable pool. Evaluating each (formula, model,
assignment) triple one call at a time is far too slow, so this module
assigns every (model, assignment) pair a fixed bit position and computes,
per formula, the integer whose bit i says whether the formula holds at
pair i. Connectives become single integer operations; quantifiers,
abstracts, and descriptions become shift-and-mask gathers along one
variable's digit.

Index layout. Positions [0, 8) hold the eight domain-size-1
interpretations (bits: 0 in P, 0 in Q, (0,0) in R; everything else is
forced). Positions [8, 8 + 4096) hold the size-2 interpretations as
mixed-radix digits, fastest first:

    x(2) y(2) y1(2) a(2) P(4) Q(4) R(16)

The variable pool {x, y, y1} covers the two free variables of the
enumerated formulas plus the one binder name that capture-avoiding
renaming mints in the sweep: a rename takes the smallest index not free
in the binder's body, and the enumerated binders are x and y only, so
every rename is y1. A name outside the pool has no digit and no value in
ASGS, so a formula that uses one fails with a KeyError: from STRIDE at a
binder, from the assignment at an atom.

The same layout is exposed as explicit Model/assignment pairs (MODELS,
ASGS) so the packed evaluator can be cross-checked bit by bit against
the reference evaluator.
"""

from itertools import product

from ddproof.semantics import Model, eval_formula
from ddproof.syntax import (
    Const,
    Identity,
    IotaTerm,
    LambdaAtom,
    Not,
    And,
    Or,
    Imp,
    Iff,
    Forall,
    Exists,
    Param,
    PredAtom,
    Var,
    alpha_key,
    logical_constants,
)

VARS = ("x", "y", "y1")
DIGITS = VARS + ("a",)
SIZE1_COUNT = 8
# one bit per digit, then the predicate codes: 2 bits for P, 2 for Q, 4 for R
BLOCK = 1 << (len(DIGITS) + 8)
WIDTH = SIZE1_COUNT + BLOCK

STRIDE = {name: 1 << i for i, name in enumerate(DIGITS)}
_PRED_SHIFT = {"P": len(DIGITS), "Q": len(DIGITS) + 2, "R": len(DIGITS) + 4}

SIZE1_MASK = (1 << SIZE1_COUNT) - 1
SIZE2_MASK = ((1 << BLOCK) - 1) << SIZE1_COUNT
FULL = (1 << WIDTH) - 1

_R_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _digit_mask(name: str, value: int) -> int:
    """Bits of the size-2 block whose digit `name` equals `value`, plus the
    whole size-1 block when value is 0 (there every digit is 0)."""
    s = STRIDE[name]
    tile = ((1 << s) - 1) << (value * s)
    period = 2 * s
    reps = BLOCK // period
    pattern = tile * (((1 << (period * reps)) - 1) // ((1 << period) - 1))
    mask = pattern << SIZE1_COUNT
    if value == 0:
        mask |= SIZE1_MASK
    return mask


MASK = {(n, v): _digit_mask(n, v) for n in DIGITS for v in (0, 1)}


def _decode(i: int):
    """Model and assignment at bit position i."""
    if i < SIZE1_COUNT:
        domain = (0,)
        preds = {
            ("P", 1): frozenset({(0,)} if i & 1 else ()),
            ("Q", 1): frozenset({(0,)} if i & 2 else ()),
            ("R", 2): frozenset({(0, 0)} if i & 4 else ()),
        }
        vals = {name: 0 for name in DIGITS}
    else:
        j = i - SIZE1_COUNT
        domain = (0, 1)
        vals = {name: (j >> k) & 1 for k, name in enumerate(DIGITS)}
        pcode = (j >> _PRED_SHIFT["P"]) & 3
        qcode = (j >> _PRED_SHIFT["Q"]) & 3
        rcode = (j >> _PRED_SHIFT["R"]) & 15
        preds = {
            ("P", 1): frozenset((d,) for d in (0, 1) if pcode >> d & 1),
            ("Q", 1): frozenset((d,) for d in (0, 1) if qcode >> d & 1),
            ("R", 2): frozenset(p for k, p in enumerate(_R_PAIRS) if rcode >> k & 1),
        }
    asg = {Var(name): vals[name] for name in VARS}
    asg[Param("a")] = vals["a"]
    return Model(domain, preds), asg


_pairs = [_decode(i) for i in range(WIDTH)]
MODELS = [m for m, _ in _pairs]
ASGS = [v for _, v in _pairs]
del _pairs


def gather_const(vec: int, name: str, value: int) -> int:
    """vec reindexed so position i reads from i with digit `name` set to
    `value`. Size-1 positions are only meaningful for value 0."""
    s = STRIDE[name]
    res = 0
    for e in (0, 1):
        shift = (e - value) * s
        part = vec << shift if shift >= 0 else vec >> -shift
        res |= part & MASK[(name, e)]
    return res & FULL


def gather_var(vec: int, name: str, source: str) -> int:
    """vec reindexed so position i reads from i with digit `name` set to
    the value of digit `source` at i."""
    return (gather_const(vec, name, 0) & MASK[(source, 0)]) | (
        gather_const(vec, name, 1) & MASK[(source, 1)]
    )


def v_not(a: int) -> int:
    return FULL ^ a


def v_imp(a: int, b: int) -> int:
    return (FULL ^ a) | b


def v_iff(a: int, b: int) -> int:
    return FULL ^ (a ^ b)


def v_forall(body: int, bound: str) -> int:
    g0 = gather_const(body, bound, 0)
    g1 = gather_const(body, bound, 1)
    return (g0 & g1 & SIZE2_MASK) | (g0 & SIZE1_MASK)


def v_exists(body: int, bound: str) -> int:
    g0 = gather_const(body, bound, 0)
    g1 = gather_const(body, bound, 1)
    return ((g0 | g1) & SIZE2_MASK) | (g0 & SIZE1_MASK)


def v_lambda(body: int, bound: str, arg: str) -> int:
    return gather_var(body, bound, arg)


def v_iota(body: int, bound: str, dbody: int, dbound: str) -> int:
    """Russellian description: the abstract holds when the description body
    has exactly one witness and the abstract body holds of it."""
    u0 = gather_const(dbody, dbound, 0)
    u1 = gather_const(dbody, dbound, 1)
    g0 = gather_const(body, bound, 0)
    g1 = gather_const(body, bound, 1)
    size2 = ((u0 & ~u1 & g0) | (u1 & ~u0 & g1)) & SIZE2_MASK
    return size2 | (u0 & g0 & SIZE1_MASK)


def _atom_vec(f) -> int:
    vec = 0
    for i in range(WIDTH):
        if eval_formula(f, MODELS[i], ASGS[i]):
            vec |= 1 << i
    return vec


def vec_of(f, memo: dict) -> int:
    """Truth vector of an arbitrary formula whose variables (free and
    bound) come from the pool. Subresults of at most two connectives are
    memoized by alpha key; larger ones are recomputed to bound memory."""
    key = alpha_key(f)
    got = memo.get(key)
    if got is not None:
        return got
    if isinstance(f, (PredAtom, Identity)):
        vec = _atom_vec(f)
    elif isinstance(f, Not):
        vec = v_not(vec_of(f.sub, memo))
    elif isinstance(f, And):
        vec = vec_of(f.left, memo) & vec_of(f.right, memo)
    elif isinstance(f, Or):
        vec = vec_of(f.left, memo) | vec_of(f.right, memo)
    elif isinstance(f, Imp):
        vec = v_imp(vec_of(f.left, memo), vec_of(f.right, memo))
    elif isinstance(f, Iff):
        vec = v_iff(vec_of(f.left, memo), vec_of(f.right, memo))
    elif isinstance(f, Forall):
        vec = v_forall(vec_of(f.body, memo), f.bound)
    elif isinstance(f, Exists):
        vec = v_exists(vec_of(f.body, memo), f.bound)
    elif isinstance(f, LambdaAtom):
        if isinstance(f.arg, IotaTerm):
            vec = v_iota(
                vec_of(f.body, memo), f.bound, vec_of(f.arg.body, memo), f.arg.bound
            )
        else:
            if isinstance(f.arg, Const):
                raise ValueError("constants are outside the indexed signature")
            vec = v_lambda(vec_of(f.body, memo), f.bound, f.arg.name)
    else:
        raise TypeError(f"not a formula: {f!r}")
    if logical_constants(f) <= 2:
        memo[key] = vec
    return vec


# ---------------------------------------------------------------------------
# formula enumeration by connective count

ATOM_BASIS = (
    PredAtom("P", (Var("x"),)),
    PredAtom("Q", (Var("y"),)),
    PredAtom("R", (Var("x"), Var("y"))),
    Identity(Var("x"), Var("y")),
)
BINDERS = ("x", "y")


def level_stream(lf, lv, k):
    """Every (formula, vector) of exactly k connectives over the atom basis,
    built from the materialized lower levels. A quantifier, an abstract, and
    a negation each cost one connective; a description argument costs one
    more, matching the degree measure."""
    for f, v in zip(lf[k - 1], lv[k - 1]):
        yield Not(f), v_not(v)
        for b in BINDERS:
            yield Forall(b, f), v_forall(v, b)
            yield Exists(b, f), v_exists(v, b)
            for arg in BINDERS:
                yield LambdaAtom(b, f, Var(arg)), v_lambda(v, b, arg)
    for i in range(k):
        j = k - 1 - i
        for fl, vl in zip(lf[i], lv[i]):
            for fr, vr in zip(lf[j], lv[j]):
                yield And(fl, fr), vl & vr
                yield Or(fl, fr), vl | vr
                yield Imp(fl, fr), v_imp(vl, vr)
                yield Iff(fl, fr), v_iff(vl, vr)
    for i in range(k - 1):
        j = k - 2 - i
        for fb, vb in zip(lf[i], lv[i]):
            for fd, vd in zip(lf[j], lv[j]):
                for b in BINDERS:
                    for z in BINDERS:
                        yield LambdaAtom(b, fb, IotaTerm(z, fd)), v_iota(vb, b, vd, z)


def build_levels(memo, upto=2):
    """Materialize formula and vector lists for connective counts 0..upto."""
    lf = {0: list(ATOM_BASIS)}
    lv = {0: [vec_of(a, memo) for a in ATOM_BASIS]}
    for k in range(1, upto + 1):
        pairs = list(level_stream(lf, lv, k))
        lf[k] = [f for f, _ in pairs]
        lv[k] = [v for _, v in pairs]
    return lf, lv
