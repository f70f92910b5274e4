"""Finite first-order models and evaluation.

A model has domain {0, ..., n-1}, a relation per predicate symbol and a
denotation per constant. Parameters are interpreted by a separate assignment
dict (keyed by the Param/Var AST nodes), since countermodel search varies
them independently of the model. `eval_formula` and `eval_sequent` evaluate
over that representation directly; they are the reference evaluator.

An abstract applied to a description, (lam x. psi)(iota y. phi), holds iff
some domain element o satisfies phi (as y), is the only element doing so,
and satisfies psi (as x). The description body is evaluated by extending the
environment at its bound variable, never by substituting terms into it, so
evaluation and the first-order translation agree on every formula.

`find_countermodel` first surveys the sequent in one walk (`_survey`): its
signature, as `signature_of` builds it, and how deep it nests binders. The
walk stores nothing on the nodes, so a goal refuted here stores no names.
It enumerates interpretations smallest-first and deterministically: domain
sizes ascending; predicate relations in binary-counter order over the
lexicographically sorted tuple space (all relations empty first); constant,
then parameter denotations as numerals with the rightmost position cycling
fastest. The first interpretation falsifying the sequent is returned, so
reported countermodels are stable across runs.

It evaluates a sequent on all interpretations of a size at once: the i-th
in that order is bit i of a Python integer, i read in mixed radix as one
binary digit per predicate tuple (the predicates in signature order, tuple
0 the fastest within each), then one n-ary digit per constant, then one
per parameter, the last the fastest of all. Each binder in scope adds one
n-ary digit above those. Connectives are integer operations; quantifiers,
abstracts and descriptions combine the slices of their binder's digit, a
description keeping its test for exactly one witness. The lowest set bit
of the antecedents' AND with the succedents' NOR is the first
countermodel, and only that index is decoded into a model and assignment.

Interpretations are counted across sizes from 1, and none past the first
`cap` is evaluated: EnumerationCapError(cap + 1) is raised when the first
falsifying one comes later or, with none, when the sizes hold more than
`cap` in all. A size whose vectors would be wider than BLOCK bits is
walked in blocks of its fastest digits, so memory stays bounded.

`eval_formula` and `eval_sequent` check one interpretation directly, the
way the definitions read; the tests hold the bit-parallel engine to them.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from typing import Iterator, Optional

from .syntax import (
    And,
    Const,
    Exists,
    Forall,
    Formula,
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
    Term,
    Var,
    consts_in,
    params_in,
    preds_in,
    record,
)


class EnumerationCapError(Exception):
    """Raised when countermodel search exceeds its interpretation budget."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"gave up after enumerating {count} interpretations")


@record(frozen=True)
class Signature:
    preds: tuple[tuple[str, int], ...]  # (name, arity), sorted by name
    consts: tuple[str, ...]
    params: tuple[str, ...]


def signature_of(*items) -> Signature:
    preds: dict[str, int] = {}
    consts: set[str] = set()
    params: set[str] = set()
    for item in items:
        for name, arity in preds_in(item):
            if preds.setdefault(name, arity) != arity:
                raise IllFormed("signature", f"predicate {name} used with two arities")
        consts |= consts_in(item)
        params |= params_in(item)
    return Signature(
        preds=tuple(sorted(preds.items())),
        consts=tuple(sorted(consts)),
        params=tuple(sorted(params)),
    )


@record
class Model:
    domain: tuple[int, ...]
    preds: dict[tuple[str, int], frozenset]
    consts: dict[str, int] = {}  # a new dict for each model

    def rel(self, name: str, arity: int) -> frozenset:
        return self.preds.get((name, arity), frozenset())

    def describe(self, assignment: Optional[dict] = None) -> str:
        lines = ["domain: {" + ", ".join(str(d) for d in self.domain) + "}"]
        for (name, arity), rel in sorted(self.preds.items()):
            shown = sorted(rel)
            if arity == 1:
                inner = ", ".join(str(t[0]) for t in shown)
            else:
                inner = ", ".join("(" + ", ".join(map(str, t)) + ")" for t in shown)
            lines.append(f"{name}/{arity}: {{{inner}}}")
        for name in sorted(self.consts):
            lines.append(f"${name} = {self.consts[name]}")
        if assignment:
            for t in sorted(assignment, key=lambda t: (isinstance(t, Var), t.name)):
                prefix = "#" if isinstance(t, Param) else ""
                lines.append(f"{prefix}{t.name} = {assignment[t]}")
        return "\n".join(lines)


Assignment = dict  # Var/Param AST node -> domain element


def eval_term(t: Term, model: Model, asg: Assignment) -> int:
    if isinstance(t, Const):
        return model.consts[t.name]
    return asg[t]


def eval_formula(f: Formula, model: Model, asg: Assignment) -> bool:
    if isinstance(f, PredAtom):
        tup = tuple(eval_term(a, model, asg) for a in f.args)
        return tup in model.rel(f.pred, len(f.args))
    if isinstance(f, Identity):
        return eval_term(f.lhs, model, asg) == eval_term(f.rhs, model, asg)
    if isinstance(f, Not):
        return not eval_formula(f.sub, model, asg)
    if isinstance(f, And):
        return eval_formula(f.left, model, asg) and eval_formula(f.right, model, asg)
    if isinstance(f, Or):
        return eval_formula(f.left, model, asg) or eval_formula(f.right, model, asg)
    if isinstance(f, Imp):
        return (not eval_formula(f.left, model, asg)) or eval_formula(
            f.right, model, asg
        )
    if isinstance(f, Iff):
        return eval_formula(f.left, model, asg) == eval_formula(f.right, model, asg)
    if isinstance(f, Forall):
        v = Var(f.bound)
        return all(
            eval_formula(f.body, model, {**asg, v: o}) for o in model.domain
        )
    if isinstance(f, Exists):
        v = Var(f.bound)
        return any(
            eval_formula(f.body, model, {**asg, v: o}) for o in model.domain
        )
    if isinstance(f, LambdaAtom):
        v = Var(f.bound)
        if not isinstance(f.arg, IotaTerm):
            o = eval_term(f.arg, model, asg)
            return eval_formula(f.body, model, {**asg, v: o})
        w = Var(f.arg.bound)
        witness: Optional[int] = None
        for o in model.domain:
            if eval_formula(f.arg.body, model, {**asg, w: o}):
                if witness is not None:
                    return False  # not unique
                witness = o
        if witness is None:
            return False  # no witness
        return eval_formula(f.body, model, {**asg, v: witness})
    raise TypeError(f"not a formula: {f!r}")


def eval_sequent(s: Sequent, model: Model, asg: Assignment) -> bool:
    """True when the sequent holds: some succedent formula is true whenever
    every antecedent formula is."""
    if all(eval_formula(f, model, asg) for f in s.ant):
        return any(eval_formula(f, model, asg) for f in s.suc)
    return True


# ---------------------------------------------------------------------------
# interpretation enumeration


def _iter_relations(spaces: list) -> Iterator[tuple[frozenset, ...]]:
    """Lazy product over relation choices, one subset mask per predicate,
    masks ascending. Materializing the subsets first would explode for
    higher arities (a ternary predicate over three elements already has
    2^27 relations), so build each one only when reached."""
    if not spaces:
        yield ()
        return
    space, rest = spaces[0], spaces[1:]
    for mask in range(1 << len(space)):
        head = frozenset(t for i, t in enumerate(space) if mask >> i & 1)
        for tail in _iter_relations(rest):
            yield (head,) + tail


def iter_interpretations(
    sig: Signature, size: int
) -> Iterator[tuple[Model, Assignment]]:
    """All interpretations of `sig` with domain {0..size-1}, in the
    deterministic order documented at the top of the module."""
    domain = tuple(range(size))
    tuple_spaces = [
        sorted(product(domain, repeat=arity)) for _, arity in sig.preds
    ]
    # the keys are built once per call; every dict is filled in signature
    # order and only when reached, since size^params of them would not fit
    # in memory for a sequent with many parameters
    keys = [Param(name) for name in sig.params]
    for rels in _iter_relations(tuple_spaces):
        preds = dict(zip(sig.preds, rels))
        for const_vals in product(domain, repeat=len(sig.consts)):
            model = Model(domain, preds, dict(zip(sig.consts, const_vals)))
            for vals in product(domain, repeat=len(keys)):
                yield model, dict(zip(keys, vals))


# ---------------------------------------------------------------------------
# bit-parallel evaluation

BLOCK = 1 << 18  # bits in the widest truth vector of one block
_OPS = {And: int.__and__, Or: int.__or__, Imp: lambda a, b: ~a | b, Iff: lambda a, b: ~(a ^ b)}


def _pattern(w: int, r: int, v: int, length: int) -> int:
    """Bits p < length whose digit of weight w and radix r, (p // w) % r, is v."""
    x, period = ((1 << w) - 1) << (v * w), w * r
    while period < length:
        x |= x << period
        period <<= 1
    return x & ((1 << length) - 1)


def _survey(fs: tuple) -> tuple[Signature, int]:
    """The signature of formulas fs, as `signature_of` builds it, and how
    deep they nest their binders (quantifiers, abstracts, descriptions), in
    one walk that stores nothing on the nodes. Raises IllFormed on a
    predicate used with two arities, else KeyError, as evaluating would, on
    the first variable no binder binds."""
    preds: dict[str, int] = {}
    consts, params, depth, unbound = set(), set(), 0, None
    stack = [(f, frozenset(), 0) for f in reversed(fs)]  # pre-order, field order
    while stack:
        f, scope, d = stack.pop()
        cls = type(f)
        if cls is PredAtom:
            terms = f.args
            if preds.setdefault(f.pred, len(terms)) != len(terms):
                raise IllFormed("signature", f"predicate {f.pred} used with two arities")
        elif cls is Identity:
            terms = (f.lhs, f.rhs)
        elif cls is Not:
            stack.append((f.sub, scope, d))
            continue
        elif cls in _OPS:
            stack += ((f.right, scope, d), (f.left, scope, d))
            continue
        else:  # a binder: its body one level down, and an abstract's argument
            terms, d = (), d + 1
            if d > depth:
                depth = d
            if cls is LambdaAtom and type(f.arg) is IotaTerm:
                stack.append((f.arg.body, scope | {f.arg.bound}, d))
            elif cls is LambdaAtom:
                terms = (f.arg,)
            stack.append((f.body, scope | {f.bound}, d))
        for t in terms:
            if type(t) is Const:
                consts.add(t.name)
            elif type(t) is Param:
                params.add(t.name)
            elif unbound is None and t.name not in scope:
                unbound = t
    if unbound is not None:
        raise KeyError(unbound)
    sig = Signature(tuple(sorted(preds.items())), tuple(sorted(consts)), tuple(sorted(params)))
    return sig, depth


class _Block:
    """Interpretations start..start+length-1 of size n as the bits of a
    vector, with width[k] = length * n**k bits under k binders, a digit per
    binder above the interpretation's, the innermost the slowest. `digits`
    maps each term's (class, name) and predicate's (name, arity) to its
    digit's weight (tuple 0's, for a predicate); those below `fast` vary."""

    def __init__(self, n: int, digits: dict, fast: int, start: int, length: int, depth: int):
        self.n, self.digits, self.fast, self.start = n, digits, fast, start
        self.width = [length * n**k for k in range(depth + 1)]
        self.ones = [(1 << w) - 1 for w in self.width]
        self.masks: dict = {}

    def at(self, key, k: int) -> list:
        """Per value of key, the bits of depth k where key has it: per element
        a term denotes or a binder's level binds; per tuple of the domain,
        in `product` order, where a predicate holds of it."""
        got = self.masks.get((key, k))
        if got is None:
            if type(key) is int and key == k - 1:  # a binder's level, under it
                got = [self.ones[key] << (v * self.width[key]) for v in range(self.n)]
            elif k:  # as one binder fewer, copied across that binder's digit
                step = self.width[k - 1]
                got = [sum(m << (v * step) for v in range(self.n)) for m in self.at(key, k - 1)]
            else:
                w, length = self.digits[key], self.width[0]
                places = ([(w << j, 2, 1) for j in range(self.n ** key[1])] if type(key[0]) is str
                          else [(w, self.n, v) for v in range(self.n)])
                got = [_pattern(w, r, v, length) if w * r <= self.fast
                       else (1 << length) - 1 if self.start // w % r == v else 0
                       for w, r, v in places]
            self.masks[(key, k)] = got
        return got

    def eval(self, f: Formula, scope: dict, d: int) -> int:
        """The vector of f under d binders, whose levels `scope` maps the
        bound names to."""
        cls = type(f)
        if cls is PredAtom or cls is Identity:
            values = [self.at(scope[t.name] if type(t) is Var else (type(t), t.name), d)
                      for t in (f.args if cls is PredAtom else (f.lhs, f.rhs))]
            if cls is Identity:
                return sum(map(int.__and__, *values))
            vec = 0
            for m, masks in zip(self.at((f.pred, len(values)), d), product(*values)):
                for x in masks:
                    m &= x
                vec |= m
            return vec
        if cls is Not:
            return self.eval(f.sub, scope, d) ^ self.ones[d]
        if cls in _OPS:
            return _OPS[cls](self.eval(f.left, scope, d), self.eval(f.right, scope, d)) & self.ones[d]
        step, m = self.width[d], self.ones[d]
        body = self.eval(f.body, {**scope, f.bound: d}, d + 1)
        chunks = [(body >> (v * step)) & m for v in range(self.n)]
        if cls is Forall or cls is Exists:
            return reduce(int.__and__ if cls is Forall else int.__or__, chunks)
        if type(f.arg) is not IotaTerm:
            arg = scope[f.arg.name] if type(f.arg) is Var else (type(f.arg), f.arg.name)
            return sum(map(int.__and__, chunks, self.at(arg, d)))
        phi = self.eval(f.arg.body, {**scope, f.arg.bound: d}, d + 1)
        one = two = hit = 0  # some witness, two or more, and the body at the witness
        for v, c in enumerate(chunks):
            u = (phi >> (v * step)) & m
            two |= one & u
            one |= u
            hit |= u & c
        return hit & ~two


@record
class Countermodel:
    model: Model
    assignment: Assignment
    size: int

    def describe(self) -> str:
        return self.model.describe(self.assignment)


DEFAULT_MAX_SIZE = 3
DEFAULT_ENUM_CAP = 2_000_000


def find_countermodel(
    s: Sequent, max_size: int = DEFAULT_MAX_SIZE, cap: int = DEFAULT_ENUM_CAP
) -> Optional[Countermodel]:
    """Search domain sizes 1..max_size for an interpretation falsifying the
    sequent. Returns the first countermodel in enumeration order, None when
    every interpretation within the size bound satisfies the sequent. Raises
    EnumerationCapError when more than `cap` interpretations would have to
    be checked, and KeyError on a variable no binder binds."""
    sig, depth = _survey(s.ant + s.suc)
    terms = [(Const, name) for name in sig.consts] + [(Param, name) for name in sig.params]
    count = 0  # interpretations of the smaller sizes
    for n in range(1, max_size + 1):
        digits, total = {}, 1
        for t in reversed(terms):
            digits[t], total = total, total * n
        for key in reversed(sig.preds):
            digits[key], total = total, total << n ** key[1]
        room, fast = BLOCK // n**depth, total
        if total > room:  # as many of the fastest digits as fit
            fast, q = 1, n ** len(terms)
            while fast < q and fast * n <= room:
                fast *= n
            while fast >= q and fast * 2 <= room:
                fast *= 2
        limit = min(total, cap - count)
        for start in range(0, limit, fast):
            blk = _Block(n, digits, fast, start, min(fast, limit - start), depth)
            vec = blk.ones[0]
            for f in s.ant:
                vec &= blk.eval(f, {}, 0) if vec else 0
            for f in s.suc:
                vec &= ~blk.eval(f, {}, 0) if vec else 0
            if vec:
                index = start + (vec & -vec).bit_length() - 1
                preds = {key: frozenset(t for j, t in enumerate(product(range(n), repeat=key[1]))
                                        if index // digits[key] >> j & 1) for key in sig.preds}
                consts = {c: index // digits[(Const, c)] % n for c in sig.consts}
                asg = {Param(p): index // digits[(Param, p)] % n for p in sig.params}
                return Countermodel(Model(tuple(range(n)), preds, consts), asg, n)
        count += total
        if count > cap:
            raise EnumerationCapError(max(cap, 0) + 1)
    return None
