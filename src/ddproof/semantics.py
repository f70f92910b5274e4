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

`find_countermodel` enumerates interpretations smallest-first and
deterministically: domain sizes ascending; predicate relations in
binary-counter order over the lexicographically sorted tuple space (all
relations empty first); constant, then parameter denotations as numerals
with the rightmost position cycling fastest. The first interpretation
falsifying the sequent is returned, so reported countermodels are stable
across runs. `find_countermodel` compiles the sequent once per call: every
formula becomes a tree of closures over one flat list of slots (domain,
relations, constants, parameters, then one slot per binder depth), and
each interpretation only refills the slots. Bound variables are resolved
to slots at compile time, so no assignment dict is built or hashed while
the closures run. It returns the same countermodel as checking each
interpretation with `eval_sequent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Optional, Union

from .syntax import (
    BINARY_OPS,
    QUANTIFIERS,
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
)


class EnumerationCapError(Exception):
    """Raised when countermodel search exceeds its interpretation budget."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"gave up after enumerating {count} interpretations")


@dataclass(frozen=True)
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


@dataclass
class Model:
    domain: tuple[int, ...]
    preds: dict[tuple[str, int], frozenset]
    consts: dict[str, int] = field(default_factory=dict)

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
# compiled evaluation


def _unbound(v: Var):
    """The closure for a formula that reads a variable no binder binds: like
    `eval_formula`, it raises KeyError when evaluated."""

    def unbound(env):
        raise KeyError(v)

    return unbound


class _Compiler:
    """Turns formulas over one signature into closures `f(env) -> bool`.

    `env` is a flat list: the domain at slot 0, then one slot per predicate
    relation, constant and parameter in signature order, then one slot per
    binder depth. A binder writes its slot before running its body and
    sibling binders reuse it, so every variable is read from the slot its
    binder was given at compile time. Each closure computes what
    `eval_formula` computes on the same interpretation."""

    def __init__(self, sig: Signature):
        slots = [(key, 1 + i) for i, key in enumerate(sig.preds)]
        self.consts = len(slots) + 1
        slots += [(Const(n), self.consts + i) for i, n in enumerate(sig.consts)]
        self.params = len(slots) + 1
        slots += [(Param(n), self.params + i) for i, n in enumerate(sig.params)]
        self.bound = len(slots) + 1
        self.slot = dict(slots)
        self.width = self.bound

    def term(self, t: Term, scope: dict) -> Optional[int]:
        """The slot of a term; None for a variable no binder in scope binds."""
        return scope.get(t.name) if isinstance(t, Var) else self.slot[t]

    def binder(self, name: str, scope: dict, depth: int) -> tuple[int, dict]:
        s = self.bound + depth
        self.width = max(self.width, s + 1)
        return s, {**scope, name: s}

    def __call__(self, f: Formula, scope: dict, depth: int):
        if isinstance(f, (PredAtom, Identity)):
            terms = f.args if isinstance(f, PredAtom) else (f.lhs, f.rhs)
            idx = [self.term(t, scope) for t in terms]
            if None in idx:
                return _unbound(terms[idx.index(None)])
            if isinstance(f, Identity):
                i, j = idx
                return lambda env: env[i] == env[j]
            r = self.slot[(f.pred, len(idx))]
            return lambda env: tuple([env[i] for i in idx]) in env[r]
        if isinstance(f, Not):
            sub = self(f.sub, scope, depth)
            return lambda env: not sub(env)
        if isinstance(f, BINARY_OPS):
            left = self(f.left, scope, depth)
            right = self(f.right, scope, depth)
            if isinstance(f, And):
                return lambda env: left(env) and right(env)
            if isinstance(f, Or):
                return lambda env: left(env) or right(env)
            if isinstance(f, Imp):
                return lambda env: not left(env) or right(env)
            return lambda env: left(env) == right(env)
        if isinstance(f, QUANTIFIERS):
            s, inner = self.binder(f.bound, scope, depth)
            body = self(f.body, inner, depth + 1)
            if isinstance(f, Forall):

                def forall(env):
                    for o in env[0]:
                        env[s] = o
                        if not body(env):
                            return False
                    return True

                return forall

            def exists(env):
                for o in env[0]:
                    env[s] = o
                    if body(env):
                        return True
                return False

            return exists
        if isinstance(f, LambdaAtom):
            s, inner = self.binder(f.bound, scope, depth)
            body = self(f.body, inner, depth + 1)
            if not isinstance(f.arg, IotaTerm):
                arg = self.term(f.arg, scope)
                if arg is None:
                    return _unbound(f.arg)

                def apply(env):
                    env[s] = env[arg]
                    return body(env)

                return apply
            w, inner = self.binder(f.arg.bound, scope, depth)
            phi = self(f.arg.body, inner, depth + 1)

            def description(env):
                witness = None
                for o in env[0]:
                    env[w] = o
                    if phi(env):
                        if witness is not None:
                            return False  # not unique
                        witness = o
                if witness is None:
                    return False  # no witness
                env[s] = witness
                return body(env)

            return description
        raise TypeError(f"not a formula: {f!r}")

    def falsifier(self, s: Sequent):
        """A closure that is true on exactly the interpretations falsifying
        `s`: every antecedent formula true, every succedent formula false."""
        ant = [self(f, {}, 0) for f in s.ant]
        suc = [self(f, {}, 0) for f in s.suc]

        def falsified(env) -> bool:
            for f in ant:
                if not f(env):
                    return False
            for f in suc:
                if f(env):
                    return False
            return True

        return falsified


@dataclass
class Countermodel:
    model: Model
    assignment: Assignment
    size: int

    def describe(self) -> str:
        return self.model.describe(self.assignment)


DEFAULT_MAX_SIZE = 3
DEFAULT_ENUM_CAP = 2_000_000


def find_countermodel(
    s: Union[Sequent, Formula],
    max_size: int = DEFAULT_MAX_SIZE,
    cap: int = DEFAULT_ENUM_CAP,
) -> Optional[Countermodel]:
    """Search domain sizes 1..max_size for an interpretation falsifying the
    sequent (a bare formula is read as its own succedent). Returns the first
    countermodel in enumeration order, None when every interpretation within
    the size bound satisfies the sequent. Raises EnumerationCapError when
    more than `cap` interpretations would have to be checked."""
    if not isinstance(s, Sequent):
        s = Sequent((), (s,))
    sig = signature_of(s)
    compiled = _Compiler(sig)
    falsified = compiled.falsifier(s)
    c, p, b = compiled.consts, compiled.params, compiled.bound
    env: list = [None] * compiled.width
    count = 0
    for size in range(1, max_size + 1):
        last = None
        # iter_interpretations fills its dicts in signature order, so their
        # values go straight into the slots
        for model, asg in iter_interpretations(sig, size):
            count += 1
            if count > cap:
                raise EnumerationCapError(count)
            if model is not last:
                last = model
                env[0] = model.domain
                env[1:c] = model.preds.values()
                env[c:p] = model.consts.values()
            env[p:b] = asg.values()
            if falsified(env):
                return Countermodel(model, asg, size)
    return None
