"""Abstract syntax for a first-order language with identity, predicate
abstracts, and definite descriptions.

Three disjoint term namespaces: bound variables (Var), parameters (Param,
free-variable surrogates that can never be bound), and constants (Const).
Descriptions (IotaTerm) are quasi-terms: they occur only as the argument of
a predicate abstract (LambdaAtom), never inside an ordinary atom.

Each node class's shape is stated once, in `_SHAPES`. A node's fields are
its label, if any (a predicate's name, or a binder's variable `bound`),
then its parts: terms and subnodes in field order, a predicate's arguments
one by one, each part field of one sort (formula, term, or an abstract's
argument: a term or a description). A node's `bound` binds its first part,
the body, and nothing else: in `(lam x. psi) iota y. phi`, x is bound in
psi only and y in phi only. `_parts` and `_rebuild` take a node apart and
put it together; every structural walk here is one loop over the parts.

The module also provides capture-avoiding substitution, alpha-equality via a
canonical de Bruijn key, well-formedness validation, and one fresh-name
rule: the smallest unused index. `scan_fresh` mints one name by it (the
binder renames of `substitute`, regularization, eigenvariables inside a
proof) and `ParamSupply` is its cursor form, minting parameters in order
over one construction. A minted name depends on its input only.

Formula nodes, descriptions and sequents store the structural facts that
the calculus keeps asking for, each computed on first use: hashes, canonical
keys (`alpha_key`, and `sequent_key`, the one multiset of each sequent
side), free variables, and parameter, constant and predicate names. The
key holds each name and connective as a token, so names, logical constants
and the kernel's instance matcher `match_subst` read it, with no walk, and
`key_template` cuts it at chosen terms for search to fill in again. Nodes
are frozen and `replace` builds a new node with nothing stored, so a stored
fact cannot go stale. Pickling carries the fields only: string hashes are
salted per process, so a stored hash must not reach another one.

Every record class of the package, nodes included, is made by `record`,
which writes the methods `dataclasses` would and imports nothing.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Optional, Union

# ---------------------------------------------------------------------------
# records

# sets an attribute of a frozen record: a field in `__init__`, a stored fact
_store = object.__setattr__

_NEW = object()  # stands for a `{}` default


class FrozenError(AttributeError):
    """An assignment to a frozen record."""


def _repr(self) -> str:
    # a loop, not a comprehension, so that a nested record costs one frame
    # per level
    shown = []
    for n in self.__match_args__:
        shown.append(f"{n}={getattr(self, n)!r}")
    return f"{type(self).__qualname__}({', '.join(shown)})"


def _reduce(self):
    return type(self), tuple([getattr(self, n) for n in self.__match_args__])


def _frozen(self, name, value=None):
    raise FrozenError(f"cannot assign to or delete field {name!r}")


def record(cls=None, *, frozen: bool = False, eq: bool = True, slots: bool = False):
    """Class decorator writing what `dataclasses.dataclass` would for these
    options. The fields are the class's own annotations, in order; a class
    attribute of the same name is the field's default, and a `{}` default
    is a new dict for each instance. Adds `__init__`, `__repr__` in the
    dataclass format, `__match_args__` and a `__reduce__` that pickles the
    fields only. With `eq`, `__eq__` compares the field tuples of objects
    of one class; a frozen record hashes its field tuple, a mutable one is
    unhashable. Without `eq`, equality and hash are identity. A frozen
    record raises FrozenError on assignment; `_store` still fills it.
    `slots` rebuilds the class with its fields as `__slots__`."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, eq=eq, slots=slots)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    given = [cls.__dict__[n] for n in names if n in cls.__dict__]
    fresh = [n for n in names if isinstance(cls.__dict__.get(n), dict)]
    if slots:
        ns = {k: v for k, v in cls.__dict__.items()
              if k not in names + ("__dict__", "__weakref__")}
        ns.update(__slots__=names, __qualname__=cls.__qualname__)
        cls = type(cls)(cls.__name__, cls.__bases__, ns)
    else:
        for n in fresh:
            delattr(cls, n)
    # the methods that run often are written out for the fields, in a file named for the class
    mine = "".join(f"self.{n}, " for n in names)
    src = [f"def __init__(self, {', '.join(names)}):"]
    for n in names:
        value = f"{{}} if {n} is _NEW else {n}" if n in fresh else n
        src.append(f" _store(self, {n!r}, {value})" if frozen else f" self.{n} = {value}")
    if eq:
        src += [
            "def __eq__(self, other):",
            " if type(other) is type(self):",
            f"  return ({mine}) == ({mine.replace('self.', 'other.')})",
            " return NotImplemented",
            f"def __hash__(self): return hash(({mine}))" if frozen else "__hash__ = None",
        ]
    made = {"__repr__": _repr, "__reduce__": _reduce, "__match_args__": names}
    if frozen:
        made.update(__setattr__=_frozen, __delattr__=_frozen)
    code = compile("\n".join(src), f"<record {cls.__module__}.{cls.__qualname__}>", "exec")
    exec(code, {"_store": _store, "_NEW": _NEW}, made)
    made["__init__"].__defaults__ = tuple(_NEW if isinstance(v, dict) else v for v in given)
    for k, v in made.items():
        setattr(cls, k, v)
    return cls


def replace(obj, **changes):
    """A new record of obj's class, with `changes` in place of some of its
    fields. It is built through `__init__`, so nothing stored on obj
    carries over."""
    for name in obj.__match_args__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return type(obj)(**changes)


# ---------------------------------------------------------------------------
# terms


@record(frozen=True)
class Var:
    name: str


@record(frozen=True)
class Param:
    name: str


@record(frozen=True)
class Const:
    name: str


Term = Union[Var, Param, Const]

# ---------------------------------------------------------------------------
# formulas


class _Node:
    """Slots for the facts a node stores on first use: `_hash`, `_akey` (the
    canonical key), `_fv` (free variables) and `_names` (parameters,
    constants, predicates). An unset slot raises AttributeError."""

    __slots__ = ("_hash", "_akey", "_fv", "_names")

    def __hash__(self) -> int:
        # the value `record`'s hash returns, the field tuple's, so sets and
        # dicts keyed by nodes iterate in the same order
        try:
            return self._hash
        except AttributeError:
            pass
        h = hash(tuple([getattr(self, name) for name in self.__match_args__]))
        _store(self, "_hash", h)
        return h


def _node(cls):
    """Frozen slotted record with the stored hash. A record pickles its
    fields only, so nothing stored is pickled."""
    cls = record(cls, frozen=True, slots=True)
    cls.__hash__ = _Node.__hash__
    return cls


@_node
class IotaTerm(_Node):
    """A definite description binding `bound` in `body`. Only legal as the
    argument slot of a LambdaAtom."""

    bound: str
    body: "Formula"


@_node
class PredAtom(_Node):
    pred: str
    args: tuple[Term, ...] = ()


@_node
class Identity(_Node):
    lhs: Term
    rhs: Term


@_node
class Not(_Node):
    sub: "Formula"


@_node
class And(_Node):
    left: "Formula"
    right: "Formula"


@_node
class Or(_Node):
    left: "Formula"
    right: "Formula"


@_node
class Imp(_Node):
    left: "Formula"
    right: "Formula"


@_node
class Iff(_Node):
    left: "Formula"
    right: "Formula"


@_node
class Forall(_Node):
    bound: str
    body: "Formula"


@_node
class Exists(_Node):
    bound: str
    body: "Formula"


@_node
class LambdaAtom(_Node):
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

TERM_TYPES = (Var, Param, Const)


# ---------------------------------------------------------------------------
# shapes: one row per node class, its alpha-key tag and the sort of each
# part field ("f" formula, "t" term, "a" term or description); see the
# module docstring for the rule every walk below follows


class _Shape(NamedTuple):
    tag: str
    fields: tuple[str, ...]  # the part fields, in order
    sorts: str  # one per part field
    parts: Callable  # node -> its parts
    make: Callable  # (node, parts, bound) -> a node of its class and label
    binds: bool  # the class has a `bound`
    spread: bool  # a predicate: its one part field holds every part


def _shape(cls: type, tag: str, sorts: str) -> _Shape:
    fields = cls.__match_args__[-len(sorts):]
    get = attrgetter(*fields)
    spread = fields == ("args",)
    binds = "bound" in cls.__match_args__
    if spread:
        make = lambda f, parts, bound: cls(f.pred, tuple(parts))
    elif binds:
        make = lambda f, parts, bound: cls(bound, *parts)
    else:
        make = lambda f, parts, bound: cls(*parts)
    parts = get if spread or len(fields) > 1 else lambda f: (get(f),)
    return _Shape(tag, fields, sorts, parts, make, binds, spread)


_SHAPES: dict[type, _Shape] = {
    cls: _shape(cls, tag, sorts)
    for cls, tag, sorts in (
        (PredAtom, "P", "t"),
        (Identity, "=", "tt"),
        (Not, "not", "f"),
        (And, "and", "ff"),
        (Or, "or", "ff"),
        (Imp, "imp", "ff"),
        (Iff, "iff", "ff"),
        (Forall, "all", "f"),
        (Exists, "ex", "f"),
        (LambdaAtom, "lam", "fa"),
        (IotaTerm, "iota", "f"),
    )
}

FORMULA_TYPES = tuple(cls for cls in _SHAPES if cls is not IotaTerm)


def _parts(f) -> tuple:
    """The terms and subnodes of a formula or description, in field order."""
    return _SHAPES[type(f)].parts(f)


def _rebuild(f, parts, bound: Optional[str] = None):
    """The node of f's class and label with these parts, binding `bound`
    (f's own when None) if the class binds."""
    return _SHAPES[type(f)].make(f, parts, bound or getattr(f, "bound", None))


def is_term(t: object) -> bool:
    return isinstance(t, TERM_TYPES)


def is_formula(f: object) -> bool:
    return isinstance(f, FORMULA_TYPES)


def is_atomic(f: Formula) -> bool:
    """Atomic formulas: predicate atoms and identities (abstracts are not)."""
    return isinstance(f, (PredAtom, Identity))


# ---------------------------------------------------------------------------
# sequents


@_node
class Sequent(_Node):
    ant: tuple[Formula, ...]
    suc: tuple[Formula, ...]


def seq(ant: Iterable[Formula], suc: Iterable[Formula]) -> Sequent:
    return Sequent(tuple(ant), tuple(suc))


# ---------------------------------------------------------------------------
# fresh names

def scan_fresh(base: str, avoid: set[str] | frozenset[str]) -> str:
    """The smallest base+i (i >= 1) not in avoid."""
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


class ParamSupply:
    """Mints distinct parameters deterministically, skipping an avoid set.
    Shared across a recursive construction so siblings never collide.

    Every index below the cursor `_next` is taken, by an avoided name or one
    already minted, so `fresh` scans forward from the cursor and each name
    it mints is `scan_fresh("a", avoid | minted so far)`."""

    def __init__(self, avoid: Iterable[str] = ()):
        self._avoid = set(avoid)
        self._next = 1

    def fresh(self) -> Param:
        i = self._next
        while f"a{i}" in self._avoid:
            i += 1
        self._next = i + 1
        return Param(f"a{i}")


# ---------------------------------------------------------------------------
# stored structural facts
#
# The walks recurse through plain calls, one frame per level as the unstored
# walks did. Free variables are stored on every node of the walk, so that
# `substitute`, which asks at every level, stays linear in depth. A formula's
# key is stored on the node it is asked of, as a fresh walk: filling every
# level would cost more than the walk; its names are read off the key. A
# sequent's names are the union of its formulas' stored ones, so a formula
# that many sequents share is read once. Stored facts are read with getattr, as a
# raised AttributeError costs far more than a miss; only the hash, filled
# once and read most often, is read with try.

_EMPTY: frozenset[str] = frozenset()


def free_vars(f) -> frozenset[str]:
    fv = getattr(f, "_fv", None)
    if fv is not None:
        return fv
    shape = _SHAPES[type(f)]
    bound = f.bound if shape.binds else None
    out: set[str] = set()
    for p in shape.parts(f):
        if isinstance(p, _Node):
            out |= free_vars(p)
        elif isinstance(p, Var):
            out.add(p.name)
        if bound is not None:  # the body is done
            out.discard(bound)
            bound = None
    fv = frozenset(out) or _EMPTY
    _store(f, "_fv", fv)
    return fv


def _names(x: _Node) -> tuple[frozenset[str], frozenset[str], tuple]:
    """(parameters, constants, predicates) of a formula, description or
    sequent; the predicates are the distinct (name, arity) pairs in order of
    first occurrence."""
    names = getattr(x, "_names", None)
    if names is not None:
        return names
    if isinstance(x, Sequent):  # the union of its formulas' stored names
        parts = [_names(f) for f in x.ant + x.suc]
        names = (
            _EMPTY.union(*[n[0] for n in parts]) or _EMPTY,
            _EMPTY.union(*[n[1] for n in parts]) or _EMPTY,
            tuple(dict.fromkeys([p for n in parts for p in n[2]])),
        )
    else:  # the key's tokens, in walk order
        params, consts, preds = [], [], {}
        tokens = _tokens(alpha_key(x))
        for tag, token in zip(tokens, tokens[1:]):
            if tag == "(P":
                name, _, n = token.rpartition("/")
                preds[name, int(n)] = None
            elif token[:2] == "p:":
                params.append(token[2:])
            elif token[:2] == "c:":
                consts.append(token[2:])
        names = (frozenset(params) or _EMPTY, frozenset(consts) or _EMPTY, tuple(preds))
    _store(x, "_names", names)
    return names


def _gather(x, i: int, kind: type) -> frozenset[str]:
    """Names of one sort (`_names` index i, terms of class `kind`) in a node,
    term, None, or any nesting of those inside plain iterables other than
    strings."""
    if isinstance(x, _Node):
        return _names(x)[i]
    if isinstance(x, TERM_TYPES):
        return frozenset((x.name,)) if isinstance(x, kind) else _EMPTY
    if isinstance(x, str):  # a string's items are strings: no end
        raise TypeError(f"not a node, term or iterable of them: {x!r}")
    out = _EMPTY
    for item in x or ():
        out = out | _gather(item, i, kind)
    return out


def params_in(x) -> frozenset[str]:
    """Parameter names occurring anywhere in a formula/sequent/term/iterable."""
    return _gather(x, 0, Param)


def consts_in(x) -> frozenset[str]:
    return _gather(x, 1, Const)


def preds_in(x: _Node) -> tuple[tuple[str, int], ...]:
    """Distinct (name, arity) pairs of a formula, description or sequent, in
    order of first occurrence."""
    return _names(x)[2]


def logical_constants(f: Formula) -> int:
    """Count of connectives, quantifiers, abstracts and descriptions: every
    node with a subnode counts 1, so an abstract contributes 1 and a
    description argument another 1, and the biconditional counts as a
    single connective. Drives the cut-degree measure. In the key every node
    opens with "(", and only the tags P and = have no subnode."""
    key = alpha_key(f)
    return key.count("(") - key.count("(P ") - key.count("(= ")


# ---------------------------------------------------------------------------
# substitution

_NO_DIGITS = str.maketrans("", "", "0123456789")


def _var_base(name: str) -> str:
    return name.translate(_NO_DIGITS) or "x"


def substitute(f: Formula, x: str, t: Term) -> Formula:
    """Capture-avoiding substitution of term t for free occurrences of Var x.

    Only Var substituents can be captured (parameters and constants are never
    bound); a binder that would capture one is renamed to the smallest
    index of its base name that is free in neither its body nor {x, t}."""
    if x not in free_vars(f):
        return f
    shape = _SHAPES[type(f)]
    parts = shape.parts(f)
    out = [
        substitute(p, x, t) if isinstance(p, _Node)
        else t if isinstance(p, Var) and p.name == x else p
        for p in (parts[1:] if shape.binds else parts)
    ]
    if not shape.binds:
        return shape.make(f, out, None)
    bound, body = f.bound, parts[0]
    if bound != x:  # else x is shadowed in the body
        if isinstance(t, Var) and t.name == bound and x in free_vars(body):
            nb = scan_fresh(_var_base(bound), free_vars(body) | {x, t.name})
            body, bound = substitute(body, bound, Var(nb)), nb
        body = substitute(body, x, t)
    return shape.make(f, [body, *out], bound)


def rename_param(f: Formula, old: str, new: Term) -> Formula:
    """Replace every occurrence of Param old by `new` (a Param or Const).
    Parameters are never bound, so this is plain structural replacement.
    A formula without the parameter comes back as it is."""
    return _rename(f, old, new) if old in _names(f)[0] else f


def _rename(f: Formula, old: str, new: Term) -> Formula:
    shape = _SHAPES[type(f)]
    parts = [
        _rename(p, old, new) if isinstance(p, _Node)
        else new if isinstance(p, Param) and p.name == old else p
        for p in shape.parts(f)
    ]
    return shape.make(f, parts, f.bound if shape.binds else None)


def rename_param_seq(s: Sequent, old: str, new: Term, memo: dict) -> Sequent:
    """`rename_param` on each formula of s. `memo` maps (old, new) to the
    formulas renamed so far and their results; one proof renaming passes
    one dict, so a formula that many sequents share is renamed once."""
    done = memo.setdefault((old, new), {})

    def one(f: Formula) -> Formula:
        g = done.get(f)
        if g is None:
            g = done[f] = rename_param(f, old, new)
        return g

    return Sequent(tuple(map(one, s.ant)), tuple(map(one, s.suc)))


# ---------------------------------------------------------------------------
# alpha-equality via canonical keys

# a parameter's or a constant's key token: its tag, then its name
_TAGS = {Param: "p:", Const: "c:"}


def _term_key(t: Term, env: tuple[str, ...]) -> str:
    if isinstance(t, Var):
        for i in range(len(env) - 1, -1, -1):
            if env[i] == t.name:
                return f"b{len(env) - 1 - i}"
        return f"v:{t.name}"
    return _TAGS[type(t)] + t.name


def _key(f: Formula, env: tuple[str, ...]) -> str:
    tag, _, _, parts, _, binds, spread = _SHAPES[type(f)]
    parts = parts(f)
    if spread:
        tag = f"P {f.pred}/{len(parts)}"
    inner = env + (f.bound,) if binds else env
    keys = []
    for p in parts:
        keys.append(_key(p, inner) if isinstance(p, _Node) else _term_key(p, env))
        inner = env  # the body is done
    return f"({tag} {' '.join(keys)})"


def alpha_key(f: Formula) -> str:
    """Canonical string invariant under renaming of bound variables."""
    key = getattr(f, "_akey", None)
    if key is not None:
        return key
    key = _key(f, ())
    _store(f, "_akey", key)
    return key


def alpha_equal(f: Formula, g: Formula) -> bool:
    return alpha_key(f) == alpha_key(g)


def _tokens(key: str) -> list[str]:
    """A key split into "(" with a tag, a predicate's name/arity (always
    after "(P", as a name may spell a tag), terms (b0, v:x, p:a, c:c), ""
    and ")". Names hold no space or parenthesis, so the split is exact."""
    return key.replace(")", " )").split(" ")


def key_template(f, holes: tuple = ()) -> str:
    """f's key as a `str.format` template, braces doubled, with the field of
    its index in place of each token of a term in `holes`: filled with
    `term_tokens(terms)`, it is f's key with each hole renamed to its term,
    as a key is de Bruijn for bound variables. The join undoes `_tokens`."""
    key = alpha_key(f).replace("{", "{{").replace("}", "}}")
    if not holes:
        return key
    marks = {_term_key(h, ()): f"{{{i}}}" for i, h in enumerate(holes)}
    tokens = _tokens(key)
    tokens = [u if tag == "(P" else marks.get(u, u) for tag, u in zip(["("] + tokens, tokens)]
    return " ".join(tokens).replace(" )", ")")


def term_tokens(terms: tuple) -> list[str]:
    """The key tokens of parameters and constants, to fill `key_template`s."""
    return [_TAGS[type(t)] + t.name for t in terms]


def match_subst(pattern: Formula, xs, chi: Formula) -> Optional[dict[str, Term]]:
    """Find terms for the pattern variables xs that make pattern alpha-equal
    to chi.

    Returns a map from each of xs free in pattern to the unique Param or
    Const that fits it, or None when no match exists. A variable that is
    not free in pattern is left out of the map: any term fits it. In the
    aligned keys each `v:x` (x in xs) faces one and the same `p:` or `c:`
    token, and every other token faces its equal."""
    us, vs = _tokens(alpha_key(pattern)), _tokens(alpha_key(chi))
    if len(us) != len(vs):
        return None
    found: dict[str, str] = {}
    for tag, u, v in zip(["("] + us, us, vs):
        if tag != "(P" and u[:2] == "v:" and u[2:] in xs:
            if v[:2] not in ("p:", "c:") or found.setdefault(u[2:], v) != v:
                return None
        elif u != v:
            return None
    return {x: (Param if v[0] == "p" else Const)(v[2:]) for x, v in found.items()}


def sequent_key(s: Sequent) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The multiset of each side, as its formulas' alpha keys in sorted
    order: two sides are equal as multisets up to alpha-equality exactly
    when their tuples are. Stored on first use and shared by every caller."""
    try:
        return s._akey
    except AttributeError:
        pass
    key = (
        tuple(sorted([alpha_key(f) for f in s.ant])),
        tuple(sorted([alpha_key(f) for f in s.suc])),
    )
    _store(s, "_akey", key)
    return key


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
    f: Formula, arities: Optional[dict[str, int]] = None, path: Union[str, tuple] = "root"
) -> dict[str, int]:
    """Check term-sort constraints and predicate-arity consistency.

    `arities` accumulates across calls so a whole problem can be checked for
    a single consistent signature. Returns the (updated) arity map; raises
    IllFormed at the first violation, leftmost-innermost.
    """
    if arities is None:
        arities = {}

    # a path is (parent path, node, part index) triples down from `path`, a
    # string or validate_sequent's (path, side, index); the dotted string is
    # built only for an error, so no walk builds strings
    def dotted(p) -> str:
        steps = []
        while isinstance(p, tuple):
            p, node, i = p
            if type(node) is str:
                steps.append(f"{node}{i}")
            else:
                shape = _SHAPES[type(node)]
                steps.append(f"arg{i}" if shape.spread else shape.fields[i])
        steps.append(p)
        return ".".join(reversed(steps))

    def walk(f, path) -> None:
        shape = _SHAPES[type(f)]
        parts = shape.parts(f)
        sorts, spread = shape.sorts, shape.spread
        for i, p in enumerate(parts):
            if isinstance(p, TERM_TYPES) and (spread or sorts[i] != "f"):
                continue
            sort = "t" if spread else sorts[i]
            where = (path, f, i)
            if sort == "f":
                if not isinstance(p, FORMULA_TYPES):
                    raise IllFormed(dotted(where), f"not a formula: {p!r}")
            elif not (sort == "a" and isinstance(p, IotaTerm)):
                raise IllFormed(
                    dotted(where),
                    "description outside an abstract argument"
                    if isinstance(p, IotaTerm) else f"not a term: {p!r}",
                )
            walk(p, where)
        if shape.spread and arities.setdefault(f.pred, len(parts)) != len(parts):
            raise IllFormed(
                dotted(path),
                f"predicate {f.pred} used with arity {len(parts)}, "
                f"previously {arities[f.pred]}",
            )

    if not is_formula(f):
        raise IllFormed(dotted(path), f"not a formula: {f!r}")
    walk(f, path)
    return arities


def validate_sequent(
    s: Sequent,
    arities: Optional[dict[str, int]] = None,
    path: str = "root",
    seen: Optional[set[int]] = None,
) -> dict[str, int]:
    """Well-formedness plus VAR-closedness: sequent formulas may not contain
    free variables (parameters play that role).

    `seen` holds the ids of formula objects, kept alive by the caller, that
    are already validated against `arities`; they are skipped, and each
    formula validated here is added. Validating an object again could not
    fail: its arities are in the map already, and the map never changes an
    entry. So the first violation reported stays the first in order over
    all occurrences."""
    if arities is None:
        arities = {}
    for side, name in ((s.ant, "ant"), (s.suc, "suc")):
        for i, f in enumerate(side):
            if seen is not None and id(f) in seen:
                continue
            validate_formula(f, arities, (path, name, i))
            fv = free_vars(f)
            if fv:
                raise IllFormed(f"{path}.{name}{i}", f"free variable(s) {sorted(fv)} in sequent")
            if seen is not None:
                seen.add(id(f))
    return arities
