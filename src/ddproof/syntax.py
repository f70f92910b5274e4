"""Abstract syntax for a first-order language with identity, predicate
abstracts, and definite descriptions.

Three disjoint term namespaces: bound variables (Var), parameters (Param,
free-variable surrogates that can never be bound), and constants (Const).
Descriptions (IotaTerm) are quasi-terms: they occur only as the argument of
a predicate abstract (LambdaAtom), never inside an ordinary atom.

The module also provides capture-avoiding substitution, alpha-equality via a
canonical de Bruijn key, well-formedness validation, and the fresh-name
counter shared by everything that has to invent a variable or parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Union

# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


Term = Union[Var, Param, Const]

# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class IotaTerm:
    """A definite description binding `bound` in `body`. Only legal as the
    argument slot of a LambdaAtom."""

    bound: str
    body: "Formula"


@dataclass(frozen=True)
class PredAtom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    bound: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    bound: str
    body: "Formula"


@dataclass(frozen=True)
class LambdaAtom:
    """Predicate abstract applied to an argument: (lam bound. body) arg.

    The argument is an ordinary term or a description; this is the only
    place a description may appear.
    """

    bound: str
    body: "Formula"
    arg: Union[Term, IotaTerm]


Formula = Union[
    PredAtom, Identity, Not, And, Or, Imp, Iff, Forall, Exists, LambdaAtom
]

BINARY_OPS = (And, Or, Imp, Iff)
QUANTIFIERS = (Forall, Exists)
TERM_TYPES = (Var, Param, Const)


def is_term(t: object) -> bool:
    return isinstance(t, TERM_TYPES)


def is_formula(f: object) -> bool:
    return isinstance(
        f, (PredAtom, Identity, Not, And, Or, Imp, Iff, Forall, Exists, LambdaAtom)
    )


def is_atomic(f: Formula) -> bool:
    """Atomic formulas: predicate atoms and identities (abstracts are not)."""
    return isinstance(f, (PredAtom, Identity))


# ---------------------------------------------------------------------------
# sequents


@dataclass(frozen=True)
class Sequent:
    ant: tuple[Formula, ...]
    suc: tuple[Formula, ...]


def seq(ant: Iterable[Formula], suc: Iterable[Formula]) -> Sequent:
    return Sequent(tuple(ant), tuple(suc))


# ---------------------------------------------------------------------------
# fresh names

_counter = 1


def reset_names() -> None:
    """Reset the global fresh-name counter (tests and CLI determinism)."""
    global _counter
    _counter = 1


def fresh_name(base: str, avoid: frozenset[str] | set[str] = frozenset()) -> str:
    """Mint `base` + counter, skipping names in `avoid`. The counter is global
    and monotone so freshly minted names never collide within one run."""
    global _counter
    while True:
        cand = f"{base}{_counter}"
        _counter += 1
        if cand not in avoid:
            return cand


def scan_fresh(base: str, avoid: set[str]) -> str:
    """Deterministic per-input fresh name: smallest base+i not in avoid.

    Used where output must not depend on global counter state (regularize,
    proof-internal eigenvariables)."""
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


class ParamSupply:
    """Mints distinct parameters deterministically, skipping an avoid set.
    Shared across a recursive construction so siblings never collide.

    Every index below the cursor `_next` is taken, by an avoided name or one
    already minted, so `fresh` scans forward from the cursor and each name
    it mints is `scan_fresh(base, avoid | minted so far)`."""

    def __init__(self, avoid: Iterable[str] = (), base: str = "a"):
        self._avoid = set(avoid)
        self._base = base
        self._next = 1

    def fresh(self) -> Param:
        i = self._next
        while f"{self._base}{i}" in self._avoid:
            i += 1
        self._next = i + 1
        return Param(f"{self._base}{i}")


# ---------------------------------------------------------------------------
# traversal helpers


def _binder_views(f: Formula) -> Iterator[tuple[str, Formula]]:
    """(bound name, body) pairs for every binder directly at this node."""
    if isinstance(f, (Forall, Exists)):
        yield f.bound, f.body
    elif isinstance(f, LambdaAtom):
        yield f.bound, f.body
        if isinstance(f.arg, IotaTerm):
            yield f.arg.bound, f.arg.body


def _term_views(f: Formula) -> Iterator[Term]:
    if isinstance(f, PredAtom):
        yield from f.args
    elif isinstance(f, Identity):
        yield f.lhs
        yield f.rhs
    elif isinstance(f, LambdaAtom) and is_term(f.arg):
        yield f.arg


def _child_formulas(f: Formula) -> Iterator[Formula]:
    if isinstance(f, Not):
        yield f.sub
    elif isinstance(f, BINARY_OPS):
        yield f.left
        yield f.right


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (PredAtom, Identity)):
        return frozenset(t.name for t in _term_views(f) if isinstance(t, Var))
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, BINARY_OPS):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, QUANTIFIERS):
        return free_vars(f.body) - {f.bound}
    if isinstance(f, LambdaAtom):
        fv = free_vars(f.body) - {f.bound}
        if isinstance(f.arg, IotaTerm):
            fv |= free_vars(f.arg.body) - {f.arg.bound}
        elif isinstance(f.arg, Var):
            fv |= {f.arg.name}
        return fv
    raise TypeError(f"not a formula: {f!r}")


def _collect_terms(x) -> Iterator[Term]:
    """All term occurrences (bound or free) in formulas/sequents/terms, or
    any nesting of those inside plain iterables."""

    def walk(f: Formula) -> Iterator[Term]:
        yield from _term_views(f)
        for c in _child_formulas(f):
            yield from walk(c)
        for _, body in _binder_views(f):
            yield from walk(body)

    if isinstance(x, TERM_TYPES):
        yield x
    elif isinstance(x, IotaTerm):
        yield from walk(Forall(x.bound, x.body))
    elif isinstance(x, Sequent):
        for f in x.ant + x.suc:
            yield from walk(f)
    elif is_formula(x):
        yield from walk(x)
    elif x is None:
        return
    else:
        for item in x:
            yield from _collect_terms(item)


def params_in(x) -> frozenset[str]:
    """Parameter names occurring anywhere in a formula/sequent/term/iterable."""
    return frozenset(t.name for t in _collect_terms(x) if isinstance(t, Param))


def consts_in(x) -> frozenset[str]:
    return frozenset(t.name for t in _collect_terms(x) if isinstance(t, Const))


def preds_in(x) -> Iterator[tuple[str, int]]:
    """(name, arity) occurrences, duplicates included."""

    def walk(f: Formula) -> Iterator[tuple[str, int]]:
        if isinstance(f, PredAtom):
            yield f.pred, len(f.args)
        for c in _child_formulas(f):
            yield from walk(c)
        for _, body in _binder_views(f):
            yield from walk(body)

    if isinstance(x, Sequent):
        for f in x.ant + x.suc:
            yield from walk(f)
    elif is_formula(x):
        yield from walk(x)
    elif isinstance(x, TERM_TYPES) or x is None:
        return
    else:
        for item in x:
            yield from preds_in(item)


def logical_constants(f: Formula) -> int:
    """Count of connectives, quantifiers, abstracts and descriptions.

    An abstract contributes 1 and a description argument another 1; the
    biconditional counts as a single connective. Drives the cut-degree
    measure."""
    if isinstance(f, (PredAtom, Identity)):
        return 0
    if isinstance(f, Not):
        return 1 + logical_constants(f.sub)
    if isinstance(f, BINARY_OPS):
        return 1 + logical_constants(f.left) + logical_constants(f.right)
    if isinstance(f, QUANTIFIERS):
        return 1 + logical_constants(f.body)
    if isinstance(f, LambdaAtom):
        n = 1 + logical_constants(f.body)
        if isinstance(f.arg, IotaTerm):
            n += 1 + logical_constants(f.arg.body)
        return n
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# substitution

_NO_DIGITS = str.maketrans("", "", "0123456789")


def _var_base(name: str) -> str:
    return name.translate(_NO_DIGITS) or "x"


def substitute(f: Formula, x: str, t: Term) -> Formula:
    """Capture-avoiding substitution of term t for free occurrences of Var x.

    Only Var substituents can be captured (parameters and constants are never
    bound); a binder that would capture them is renamed via the global
    fresh-name counter."""
    if x not in free_vars(f):
        return f

    def sub_term(u: Term) -> Term:
        return t if isinstance(u, Var) and u.name == x else u

    def under_binder(bound: str, body: Formula, rebuild):
        if bound == x:
            return None  # shadowed; caller keeps node as-is for this binder
        if isinstance(t, Var) and t.name == bound and x in free_vars(body):
            nb = fresh_name(_var_base(bound), free_vars(body) | {x, t.name})
            body = substitute(body, bound, Var(nb))
            return rebuild(nb, substitute(body, x, t))
        return rebuild(bound, substitute(body, x, t))

    if isinstance(f, PredAtom):
        return PredAtom(f.pred, tuple(sub_term(a) for a in f.args))
    if isinstance(f, Identity):
        return Identity(sub_term(f.lhs), sub_term(f.rhs))
    if isinstance(f, Not):
        return Not(substitute(f.sub, x, t))
    if isinstance(f, BINARY_OPS):
        return type(f)(substitute(f.left, x, t), substitute(f.right, x, t))
    if isinstance(f, QUANTIFIERS):
        out = under_binder(f.bound, f.body, lambda b, body: type(f)(b, body))
        return f if out is None else out
    if isinstance(f, LambdaAtom):
        if isinstance(f.arg, IotaTerm):
            it = f.arg
            if it.bound == x or x not in free_vars(it.body):
                new_arg: Union[Term, IotaTerm] = it
            elif isinstance(t, Var) and t.name == it.bound:
                nb = fresh_name(
                    _var_base(it.bound), free_vars(it.body) | {x, t.name}
                )
                new_arg = IotaTerm(
                    nb, substitute(substitute(it.body, it.bound, Var(nb)), x, t)
                )
            else:
                new_arg = IotaTerm(it.bound, substitute(it.body, x, t))
        else:
            new_arg = sub_term(f.arg)
        if f.bound == x or x not in free_vars(f.body):
            return LambdaAtom(f.bound, f.body, new_arg)
        if isinstance(t, Var) and t.name == f.bound:
            nb = fresh_name(_var_base(f.bound), free_vars(f.body) | {x, t.name})
            body = substitute(f.body, f.bound, Var(nb))
            return LambdaAtom(nb, substitute(body, x, t), new_arg)
        return LambdaAtom(f.bound, substitute(f.body, x, t), new_arg)
    raise TypeError(f"not a formula: {f!r}")


def rename_param(f: Formula, old: str, new: Term) -> Formula:
    """Replace every occurrence of Param old by `new` (a Param or Const).
    Parameters are never bound, so this is plain structural replacement."""

    def sub_term(u: Term) -> Term:
        return new if isinstance(u, Param) and u.name == old else u

    if isinstance(f, PredAtom):
        return PredAtom(f.pred, tuple(sub_term(a) for a in f.args))
    if isinstance(f, Identity):
        return Identity(sub_term(f.lhs), sub_term(f.rhs))
    if isinstance(f, Not):
        return Not(rename_param(f.sub, old, new))
    if isinstance(f, BINARY_OPS):
        return type(f)(rename_param(f.left, old, new), rename_param(f.right, old, new))
    if isinstance(f, QUANTIFIERS):
        return type(f)(f.bound, rename_param(f.body, old, new))
    if isinstance(f, LambdaAtom):
        arg: Union[Term, IotaTerm]
        if isinstance(f.arg, IotaTerm):
            arg = IotaTerm(f.arg.bound, rename_param(f.arg.body, old, new))
        else:
            arg = sub_term(f.arg)
        return LambdaAtom(f.bound, rename_param(f.body, old, new), arg)
    raise TypeError(f"not a formula: {f!r}")


def rename_param_seq(s: Sequent, old: str, new: Term) -> Sequent:
    return Sequent(
        tuple(rename_param(f, old, new) for f in s.ant),
        tuple(rename_param(f, old, new) for f in s.suc),
    )


# ---------------------------------------------------------------------------
# alpha-equality via canonical keys


def _term_key(t: Term, env: tuple[str, ...]) -> str:
    if isinstance(t, Var):
        for i in range(len(env) - 1, -1, -1):
            if env[i] == t.name:
                return f"b{len(env) - 1 - i}"
        return f"v:{t.name}"
    if isinstance(t, Param):
        return f"p:{t.name}"
    return f"c:{t.name}"


def _key(f: Formula, env: tuple[str, ...]) -> str:
    if isinstance(f, PredAtom):
        inner = " ".join(_term_key(a, env) for a in f.args)
        return f"(P {f.pred}/{len(f.args)} {inner})"
    if isinstance(f, Identity):
        return f"(= {_term_key(f.lhs, env)} {_term_key(f.rhs, env)})"
    if isinstance(f, Not):
        return f"(not {_key(f.sub, env)})"
    if isinstance(f, BINARY_OPS):
        tag = {And: "and", Or: "or", Imp: "imp", Iff: "iff"}[type(f)]
        return f"({tag} {_key(f.left, env)} {_key(f.right, env)})"
    if isinstance(f, QUANTIFIERS):
        tag = "all" if isinstance(f, Forall) else "ex"
        return f"({tag} {_key(f.body, env + (f.bound,))})"
    if isinstance(f, LambdaAtom):
        if isinstance(f.arg, IotaTerm):
            arg = f"(iota {_key(f.arg.body, env + (f.arg.bound,))})"
        else:
            arg = _term_key(f.arg, env)
        return f"(lam {_key(f.body, env + (f.bound,))} {arg})"
    raise TypeError(f"not a formula: {f!r}")


@lru_cache(maxsize=65536)
def alpha_key(f: Formula) -> str:
    """Canonical string invariant under renaming of bound variables."""
    return _key(f, ())


def alpha_equal(f: Formula, g: Formula) -> bool:
    return alpha_key(f) == alpha_key(g)


def sequent_key(s: Sequent) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Canonical multiset key for a sequent (order-insensitive per side)."""
    return (
        tuple(sorted(alpha_key(f) for f in s.ant)),
        tuple(sorted(alpha_key(f) for f in s.suc)),
    )


def sequents_alpha_equal(s1: Sequent, s2: Sequent) -> bool:
    return sequent_key(s1) == sequent_key(s2)


# ---------------------------------------------------------------------------
# validation


class IllFormed(Exception):
    """A structural well-formedness violation, with a path into the tree."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


def validate_formula(
    f: Formula, arities: Optional[dict[str, int]] = None, path: str = "root"
) -> dict[str, int]:
    """Check term-sort constraints and predicate-arity consistency.

    `arities` accumulates across calls so a whole problem can be checked for
    a single consistent signature. Returns the (updated) arity map; raises
    IllFormed at the first violation, leftmost-innermost.
    """
    if arities is None:
        arities = {}

    def check_term(t, where: str) -> None:
        if isinstance(t, IotaTerm):
            raise IllFormed(where, "description outside an abstract argument")
        if not is_term(t):
            raise IllFormed(where, f"not a term: {t!r}")

    def walk(f: Formula, path: str) -> None:
        if isinstance(f, PredAtom):
            for i, a in enumerate(f.args):
                check_term(a, f"{path}.arg{i}")
            seen = arities.get(f.pred)
            if seen is None:
                arities[f.pred] = len(f.args)
            elif seen != len(f.args):
                raise IllFormed(
                    path,
                    f"predicate {f.pred} used with arity {len(f.args)}, "
                    f"previously {seen}",
                )
        elif isinstance(f, Identity):
            check_term(f.lhs, f"{path}.lhs")
            check_term(f.rhs, f"{path}.rhs")
        elif isinstance(f, Not):
            walk(f.sub, f"{path}.sub")
        elif isinstance(f, BINARY_OPS):
            walk(f.left, f"{path}.left")
            walk(f.right, f"{path}.right")
        elif isinstance(f, QUANTIFIERS):
            walk(f.body, f"{path}.body")
        elif isinstance(f, LambdaAtom):
            walk(f.body, f"{path}.body")
            if isinstance(f.arg, IotaTerm):
                walk(f.arg.body, f"{path}.arg.body")
            else:
                check_term(f.arg, f"{path}.arg")
        else:
            raise IllFormed(path, f"not a formula: {f!r}")

    walk(f, path)
    return arities


def validate_sequent(
    s: Sequent, arities: Optional[dict[str, int]] = None, path: str = "root"
) -> dict[str, int]:
    """Well-formedness plus VAR-closedness: sequent formulas may not contain
    free variables (parameters play that role)."""
    if arities is None:
        arities = {}
    for side, name in ((s.ant, "ant"), (s.suc, "suc")):
        for i, f in enumerate(side):
            where = f"{path}.{name}{i}"
            validate_formula(f, arities, where)
            fv = free_vars(f)
            if fv:
                raise IllFormed(where, f"free variable(s) {sorted(fv)} in sequent")
    return arities
