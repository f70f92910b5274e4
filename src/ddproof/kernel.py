"""Proof representation and the checking kernel.

A proof is a tree of ProofNode values, each carrying its full conclusion
sequent, optional instantiation annotations, and its premise subtrees. The
kernel validates every node against the rule schemas; sequent sides are
matched as multisets modulo alpha-equality, so tuple order never matters.

Every rule but ax, cut, weakening and contraction is stated once, in the
table `RULES`: the side and test of its principal formula, the annotations
it takes and the formulas each premise adds. The handlers are built from
that table, and so are the search's moves.

Annotations (instantiation terms, eigenvariables) are optional. A rule's
instance has one slot per term, then one for its eigenparameter; a slot
left out takes, in turn, a fresh parameter and each value it gets where the
rule's active formulas, with a variable in each slot, match the formulas a
premise adds. The first principal candidate whose premises match at some
instance wins, and the order of its instances cannot change the outcome: a
slot that occurs in an active formula is fixed by it, so at most one value
fits, and a slot that occurs in none fits any value, so the fresh
parameter, tried first, is the one reported. A rule given annotations it
does not take, as `RULES` states them, is rejected.

Eigenvariable conditions are strict: the eigenvariable may not occur
anywhere in the conclusion. iotar also rejects an eigenvariable equal to its
witness term: with the two identified, the uniqueness premise becomes
vacuous and the rule could derive "the domain is a singleton" from nothing.

Formulas are compared only through alpha keys, but for eqminus's atoms,
which bind nothing and are compared as values, position by position.
`check_proof` reads facts stored on syntax objects, each computed once from
the object's own fields: a formula's alpha key and free variables, and a
sequent's `syntax.sequent_key`, the one form of each side's multiset: its
alpha keys in sorted order. A left-out instance is read off two keys
aligned token by token (`syntax.match_subst`), and the premises it gives
are then checked by their keys. Within one call it validates each distinct
formula object once. Step results are never stored: every call runs
`analyze_step` on every node, and nothing a check returns is read back by a
later one. The check reads the one `preorder` walk and keeps only the open
path, which it renders as a dotted path only when it rejects a node.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from functools import cached_property
from itertools import chain, product
from typing import Callable, Iterator, NamedTuple, Optional, Union

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
    Sequent,
    Term,
    Var,
    _parts,
    alpha_key,
    free_vars,
    is_atomic,
    is_term,
    logical_constants,
    match_subst,
    params_in,
    record,
    rename_param_seq,
    replace,
    scan_fresh,
    sequent_key,
    sequents_alpha_equal,
    substitute,
    validate_sequent,
)

sys.setrecursionlimit(max(sys.getrecursionlimit(), 50_000))

# ---------------------------------------------------------------------------
# proof trees

@record(frozen=True, eq=False)
class ProofNode:
    """One inference: its conclusion, premise subtrees and annotations.

    Four facts about a node are computed on first use and then stored on
    it: `own_params`, `params`, `cut_degree` and `cuts`. A node is never
    mutated (`syntax.replace` and every rewrite build new nodes), and each
    fact depends only on the node's fields and its premises' facts, so a
    stored value cannot go stale. Validity never rests on them:
    `check_proof` re-analyzes every step."""

    rule: str
    conclusion: Sequent
    premises: tuple["ProofNode", ...] = ()
    terms: tuple[Term, ...] = ()
    eigen: Optional[Param] = None
    at: Optional[int] = None

    @cached_property
    def own_params(self) -> frozenset[str]:
        """Parameters of the conclusion and the annotated terms; the
        eigenparameter is not included."""
        # a node without terms shares the set its conclusion stores
        if self.terms:
            return params_in((self.conclusion, self.terms))
        return params_in(self.conclusion)

    def _fill(self, fact: str, of):
        """The subtree fact `fact`, stored on each node as `of(node)` once
        its premises hold theirs: a post-order loop, beside `preorder`,
        that descends only into nodes without a stored value."""
        stack = [self]
        while stack:
            node = stack[-1]
            todo = [q for q in node.premises if fact not in q.__dict__]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            node.__dict__[fact] = of(node)
        return self.__dict__[fact]

    @cached_property
    def params(self) -> frozenset[str]:
        """Every parameter of the subtree: each node's `own_params` and
        annotated eigenparameter."""
        return self._fill("params", lambda node: node.own_params.union(
            *(q.params for q in node.premises), () if node.eigen is None else (node.eigen.name,)
        ))

    @cached_property
    def cut_degree(self) -> Optional[int]:
        """Logical constants in the cut formula; None unless a cut. Raises
        RuleError for a cut whose contexts do not add up."""
        if self.rule != "cut":
            return None
        return logical_constants(analyze_step(self).cut_formula)

    @cached_property
    def cuts(self) -> tuple[int, int]:
        """(highest cut degree in the subtree, number of cuts at it), or
        (-1, 0) when the subtree has no cut."""
        def of(node):
            top, count = (node.cut_degree, 1) if node.rule == "cut" else (-1, 0)
            for degree, n in (q.cuts for q in node.premises):
                if degree >= top:
                    top, count = degree, n + count * (degree == top)
            return top, count
        return self._fill("cuts", of)


@record(frozen=True, eq=False)
class Proof:
    """A checked proof: the validated tree plus facts found while checking."""

    root: ProofNode
    height: int
    cut_degrees: tuple[int, ...]  # degree of every cut, ascending


class RuleError(Exception):
    """A single inference step does not match its rule schema."""


class CheckError(Exception):
    """Proof rejection: the offending node's path and the reason."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"path={path}: {reason}")


@record
class StepInfo:
    """The resolved instantiation of one valid inference step."""

    rule: str
    principal: Optional[tuple[str, int]] = None  # side, index in conclusion
    terms: tuple[Term, ...] = ()
    eigen: Optional[Param] = None
    cut_formula: Optional[Formula] = None


# ---------------------------------------------------------------------------
# traversal helpers


def preorder(root: ProofNode) -> Iterator[tuple[int, ProofNode]]:
    """Each node with its depth (the root's is 0), node before premises,
    premises left to right: the one pre-order walk, a loop."""
    stack = [(0, root)]
    while stack:
        depth, node = stack.pop()
        yield depth, node
        depth += 1
        for q in reversed(node.premises):
            stack.append((depth, q))


def dotted(parts) -> str:
    """A node's path as reported: its premise indices from the root, or "root"."""
    return ".".join(map(str, parts)) or "root"


def iter_nodes(root: ProofNode) -> Iterator[tuple[str, ProofNode]]:
    """Pre-order, with `dotted` paths."""
    at: list[int] = []  # each node's index among its siblings, root to node
    for depth, node in preorder(root):
        at[depth:] = [at[depth] + 1 if depth < len(at) else 0]
        yield dotted(at[1:]), node


def proof_size(root: ProofNode) -> int:
    return sum(1 for _ in preorder(root))


def proof_params(root: ProofNode) -> set[str]:
    """Every parameter of the proof, as a set the caller may change."""
    return set(root.params)


def proofs_equal(p: ProofNode, q: ProofNode) -> bool:
    """Same rule tree with alpha-equal sequents and equal annotations: the
    two pre-order walks in lockstep, in step while premise counts agree."""
    return all(
        (a.rule, len(a.premises), a.terms, a.eigen) == (b.rule, len(b.premises), b.terms, b.eigen)
        and sequents_alpha_equal(a.conclusion, b.conclusion)
        for (_, a), (_, b) in zip(preorder(p), preorder(q))
    )


def cut_nodes(root: ProofNode) -> list[tuple[str, ProofNode, int]]:
    """(path, node, degree) for every cut, in pre-order."""
    return [
        (path, node, node.cut_degree)
        for path, node in iter_nodes(root)
        if node.rule == "cut"
    ]


# ---------------------------------------------------------------------------
# multiset utilities
#
# A side's multiset is its entry in `sequent_key`, stored on each sequent:
# the side's alpha keys in sorted order, so two multisets are equal exactly
# when the tuples are. Rules compare a premise's stored tuples with the
# conclusion's, adjusted by sorted copies.

_SIDE = {"ant": 0, "suc": 1}


def _moved(keys: tuple[str, ...], drop: tuple = (), add: tuple = ()) -> tuple[str, ...]:
    """Sorted `keys` less one occurrence of each key in `drop` (each is
    there) and plus one of each formula in `add`."""
    out = list(keys)
    for k in drop:
        out.remove(k)
    if add:
        out += [alpha_key(f) for f in add]
        out.sort()
    return tuple(out)


def _premise_is(
    p: Sequent, c: Sequent, drop: tuple[str, int], ant: tuple = (), suc: tuple = ()
) -> bool:
    """p's sides are c's, less c's formula at `drop` (side, index) and plus
    the formulas `ant` and `suc`."""
    have, base = sequent_key(p), sequent_key(c)
    for side, adds in (("ant", ant), ("suc", suc)):
        i = _SIDE[side]
        gone = (alpha_key(getattr(c, side)[drop[1]]),) if drop[0] == side else ()
        if len(have[i]) != len(base[i]) - len(gone) + len(adds):
            return False
        if have[i] != (_moved(base[i], gone, adds) if gone or adds else base[i]):
            return False
    return True


def _single_extra(big: tuple[str, ...], small: tuple[str, ...]) -> Optional[str]:
    """If big == small + one occurrence of some key, return it, else None."""
    for i, k in enumerate(big):  # both sorted: the first k small lacks
        if small[i : i + 1] != (k,):
            return k if big[i + 1 :] == small[i:] else None
    return None


def _first_index(forms: tuple, key: str) -> int:
    """The first index of alpha key `key` in `forms`, which the caller read it from."""
    for i, f in enumerate(forms):
        if alpha_key(f) == key:
            return i


# ---------------------------------------------------------------------------
# step analysis

_INSTANCE_TERM = (Param, Const)


def _require_slot_term(t, what: str) -> None:
    if not isinstance(t, _INSTANCE_TERM):
        raise RuleError(f"{what} must be a parameter or constant, got {t!r}")


def _require_eigen(t) -> Param:
    if not isinstance(t, Param):
        raise RuleError(f"eigenvariable must be a parameter, got {t!r}")
    return t


def _candidates(side: tuple, want, at: Optional[int]):
    """(index, formula) pairs that could be principal."""
    if at is not None:
        if 0 <= at < len(side) and want(side[at]):
            yield at, side[at]
        return
    for i, f in enumerate(side):
        if want(f):
            yield i, f


def _diff_candidates(p: Sequent, side: str, base: tuple[str, ...]) -> list[Formula]:
    """Formulas of p's `side` whose keys exceed the sorted keys `base`;
    first occurrences, in order."""
    # a merge of the two sorted tuples: a key of p's side left without an
    # occurrence in base to match is in excess
    extra, j = set(), 0
    for k in sequent_key(p)[_SIDE[side]]:
        j = bisect_left(base, k, j)
        if base[j : j + 1] == (k,):
            j += 1
        else:
            extra.add(k)
    first: dict[str, Formula] = {}
    for f in getattr(p, side):
        if alpha_key(f) in extra:
            first.setdefault(alpha_key(f), f)
    return list(first.values())


def _without(c: Sequent, side: str, f: Formula) -> tuple[str, ...]:
    """The multiset of c's `side` less one occurrence of f."""
    return _moved(sequent_key(c)[_SIDE[side]], (alpha_key(f),))


def _eigen_check(a: Param, conclusion: Sequent, witness: Optional[Term] = None) -> None:
    if isinstance(witness, Param) and witness.name == a.name:
        raise RuleError(
            f"eigenvariable {a.name} equals the witness term; the uniqueness "
            "premise would be vacuous"
        )
    if a.name in params_in(conclusion):
        raise RuleError(f"eigenvariable {a.name} occurs in the conclusion")


def analyze_step(node: ProofNode) -> StepInfo:
    """Validate one inference step and return its resolved instantiation.

    Premise subtrees are not inspected beyond their conclusions.
    """
    rule = node.rule
    if rule not in RULE_ARITY:
        raise RuleError(f"unknown rule {rule!r}")
    if len(node.premises) != RULE_ARITY[rule]:
        raise RuleError(
            f"{rule} takes {RULE_ARITY[rule]} premises, got {len(node.premises)}"
        )
    if node.terms or node.eigen is not None or node.at is not None:
        schema = RULES.get(rule)
        terms, eigen, at = (schema.terms, schema.eigen, schema.at) if schema else (0, False, False)
        if len(node.terms) not in (0, terms):
            raise RuleError(f"{rule} takes {_TERMS_TAKEN[terms]}")
        if node.eigen is not None and not eigen:
            raise RuleError(f"{rule} takes no eigenvariable")
        if node.at is not None and not at:
            raise RuleError(f"{rule} takes no :at")
    return _HANDLERS[rule](node)


_TERMS_TAKEN = ("no annotated term", "one annotated term or none", "two annotated terms or none")


# --- the rule schemas ---
#
# Every rule but ax, cut, weakening and contraction is stated once, in
# RULES: the handlers below are built from it, and search builds its moves
# from it. A rule's principal formula stands on `side`, is of class `kind`
# and passes `where` when given. The rule takes `terms` :term annotations,
# or none to have them inferred, an :eigen when `eigen` is set, and an :at
# (its principal formula's index in the conclusion) unless `at` is cleared.
# Its `arity` premises are the conclusion less the principal formula f plus,
# in premise j, the formulas actives(f, *instance)[j] = (antecedent,
# succedent). A quantifier or description rule's instance is its terms,
# then its eigenparameter; the two identity rules are described at their
# entries.


class Schema(NamedTuple):
    side: str
    kind: type
    arity: int
    actives: Callable
    terms: int = 0
    eigen: bool = False
    where: Optional[Callable[[Formula], bool]] = None
    at: bool = True

    def principal(self, f: Formula) -> bool:
        """f can be this rule's principal formula."""
        return isinstance(f, self.kind) and (self.where is None or self.where(f))


def _inst(f, b: Term) -> Formula:
    """The body of quantifier, abstract or description f at b."""
    return substitute(f.body, f.bound, b)


def _applied_to_term(f: LambdaAtom) -> bool:
    return is_term(f.arg)


def _applied_to_description(f: LambdaAtom) -> bool:
    return isinstance(f.arg, IotaTerm)


def _between_instances(f: Identity) -> bool:
    return isinstance(f.lhs, _INSTANCE_TERM) and isinstance(f.rhs, _INSTANCE_TERM)


def _reflexive(f: Identity) -> bool:
    return f.lhs == f.rhs and isinstance(f.lhs, _INSTANCE_TERM)


RULES: dict[str, Schema] = {
    "negl": Schema("ant", Not, 1, lambda f: [((), (f.sub,))]),
    "negr": Schema("suc", Not, 1, lambda f: [((f.sub,), ())]),
    "andl": Schema("ant", And, 1, lambda f: [((f.left, f.right), ())]),
    "andr": Schema("suc", And, 2, lambda f: [((), (f.left,)), ((), (f.right,))]),
    "orl": Schema("ant", Or, 2, lambda f: [((f.left,), ()), ((f.right,), ())]),
    "orr": Schema("suc", Or, 1, lambda f: [((), (f.left, f.right))]),
    "impl": Schema("ant", Imp, 2, lambda f: [((), (f.left,)), ((f.right,), ())]),
    "impr": Schema("suc", Imp, 1, lambda f: [((f.left,), (f.right,))]),
    "iffl": Schema("ant", Iff, 2, lambda f: [((), (f.left, f.right)), ((f.left, f.right), ())]),
    "iffr": Schema("suc", Iff, 2, lambda f: [((f.left,), (f.right,)), ((f.right,), (f.left,))]),
    # the body at a parameter or constant b, or at an eigenparameter a
    "foralll": Schema("ant", Forall, 1, lambda f, b: [((_inst(f, b),), ())], terms=1),
    "forallr": Schema("suc", Forall, 1, lambda f, a: [((), (_inst(f, a),))], eigen=True),
    "existsl": Schema("ant", Exists, 1, lambda f, a: [((_inst(f, a),), ())], eigen=True),
    "existsr": Schema("suc", Exists, 1, lambda f, b: [((), (_inst(f, b),))], terms=1),
    # an abstract applied to a term: its beta-reduct
    "laml": Schema("ant", LambdaAtom, 1, lambda f: [((_inst(f, f.arg),), ())],
                   where=_applied_to_term),
    "lamr": Schema("suc", LambdaAtom, 1, lambda f: [((), (_inst(f, f.arg),))],
                   where=_applied_to_term),
    # an abstract applied to a description. iota1l: some a satisfies both
    # bodies. iota2l: any b1 and b2 satisfying the description are equal.
    # iotar: b satisfies both bodies, and any a satisfying the description
    # is b
    "iota1l": Schema("ant", LambdaAtom, 1, lambda f, a: [((_inst(f.arg, a), _inst(f, a)), ())],
                     eigen=True, where=_applied_to_description),
    "iota2l": Schema("ant", LambdaAtom, 3, lambda f, b1, b2: [
        ((), (_inst(f.arg, b1),)), ((), (_inst(f.arg, b2),)), ((Identity(b1, b2),), ())],
        terms=2, where=_applied_to_description),
    "iotar": Schema("suc", LambdaAtom, 3, lambda f, b, a: [
        ((), (_inst(f.arg, b),)), ((), (_inst(f, b),)), ((_inst(f.arg, a),), (Identity(a, b),))],
        terms=1, eigen=True, where=_applied_to_description),
    # eqminus consumes its principal b1=b2 and an atom beside it, and adds
    # chi, that atom with some occurrences of b1 replaced by b2. eqplus
    # discharges its principal formula b=b: it stands only in the premise
    "eqminus": Schema("ant", Identity, 1, lambda f, chi: [((chi,), ())], terms=2,
                      where=_between_instances),
    "eqplus": Schema("ant", Identity, 1, lambda f: [((f,), ())], terms=1, where=_reflexive, at=False),
}

# the premise count of every rule, the structural ones first
RULE_ARITY: dict[str, int] = {
    "ax": 0, "cut": 2, "wl": 1, "wr": 1, "cl": 1, "cr": 1,
    **{rule: schema.arity for rule, schema in RULES.items()},
}

EIGEN_RULES = {rule for rule, schema in RULES.items() if schema.eigen}


# --- handlers, one per rule ---


def _h_ax(node: ProofNode) -> StepInfo:
    A, S = node.conclusion.ant, node.conclusion.suc
    if len(A) != 1 or len(S) != 1:
        raise RuleError("axiom must be a single formula on each side")
    if alpha_key(A[0]) != alpha_key(S[0]):
        raise RuleError("axiom sides differ")
    return StepInfo("ax")


def _h_cut(node: ProofNode) -> StepInfo:
    p1, p2 = (p.conclusion for p in node.premises)
    ant, suc = sequent_key(node.conclusion)
    (p1a, p1s), (p2a, p2s) = sequent_key(p1), sequent_key(p2)
    # the conclusion plus the cut formula on each side is the premises' sum
    both_ant, both_suc = tuple(sorted(p1a + p2a)), tuple(sorted(p1s + p2s))
    tried = set()
    for chi in p1.suc:
        k = alpha_key(chi)
        if k in tried or k not in p2a:
            continue
        tried.add(k)
        if _moved(ant, add=(chi,)) == both_ant and _moved(suc, add=(chi,)) == both_suc:
            return StepInfo("cut", cut_formula=chi)
    raise RuleError("no cut formula makes the contexts add up")


def _h_structural(mine: str, contract: bool):
    """Weakening adds one formula to side `mine` of the premise; contraction
    (`contract`) drops one of two copies there. Both leave the other side
    alone."""
    m = _SIDE[mine]
    other_side = "antecedent" if m else "succedent"
    kind, unmatched = (
        ("contraction", "premise must have exactly one extra copy") if contract
        else ("weakening", "conclusion must add exactly one formula")
    )

    def h(node: ProofNode) -> StepInfo:
        c = node.conclusion
        cc, pc = sequent_key(c), sequent_key(node.premises[0].conclusion)
        if cc[1 - m] != pc[1 - m]:
            raise RuleError(f"{kind} must leave the {other_side} side alone")
        big, small = (pc, cc) if contract else (cc, pc)
        k = _single_extra(big[m], small[m])
        if k is None:
            raise RuleError(unmatched)
        if contract and k not in cc[m]:
            raise RuleError("contracted formula must remain in the conclusion")
        return StepInfo(node.rule, principal=(mine, _first_index(getattr(c, mine), k)))

    return h


# --- instance inference


def _instances(node: ProofNode, f: Formula):
    """The instances to try for principal formula f, in order. A rule's
    instance has one slot per term, then one for its eigenparameter. A slot
    takes its annotation; one left out tries a fresh parameter, then each
    value it gets where the rule's active formulas, with a variable in each
    slot, match a formula the premise adds on that side."""
    rule, schema = node.rule, RULES[node.rule]
    given = list(node.terms or (None,) * schema.terms)
    for t in given:
        if t is not None:
            _require_slot_term(t, f"{rule} instantiation term")
    if schema.eigen:
        given.append(None if node.eigen is None else _require_eigen(node.eigen))
    if None not in given:
        return (tuple(given),)
    c = node.conclusion
    prems = [p.conclusion for p in node.premises]
    xs: list[str] = []
    for _ in given:
        xs.append(scan_fresh("_", free_vars(f) | set(xs)))
    kinds = [_INSTANCE_TERM] * schema.terms + [Param] * schema.eigen
    fresh = Param(scan_fresh("a", params_in((c, *prems))))
    slots = [[fresh] if t is None else [t] for t in given]
    for p, actives in zip(prems, schema.actives(f, *map(Var, xs))):
        for side, pats in zip(("ant", "suc"), actives):
            if not pats:
                continue
            base = _without(c, side, f) if side == schema.side else sequent_key(c)[_SIDE[side]]
            for chi in _diff_candidates(p, side, base):
                for pat in pats:
                    found = match_subst(pat, xs, chi) or {}
                    for x, t, kind, slot in zip(xs, given, kinds, slots):
                        v = found.get(x)
                        if t is None and isinstance(v, kind) and v not in slot:
                            slot.append(v)
    return product(*slots)


def _abstract_instance(node: ProofNode, f: LambdaAtom) -> list:
    _require_slot_term(f.arg, "abstract argument")
    return [()]


def _h_schema(rule: str):
    """The handler of a RULES entry, read off its Schema alone: the first
    principal candidate and the first of its instances whose premises match,
    under the eigenparameter condition when the rule has one. An abstract
    rule without slots (laml, lamr) has one empty instance, and a rejection
    names the "abstract"; every other rule tries `_instances`, and a
    rejection names the "instance" of a rule with slots, else the
    "principal formula"."""
    schema = RULES[rule]
    side, principal, actives, eigen = schema.side, schema.principal, schema.actives, schema.eigen
    slots = schema.terms or eigen
    abstract = schema.kind is LambdaAtom and not slots
    instances = _abstract_instance if abstract else _instances
    what = "abstract" if abstract else "instance" if slots else "principal formula"
    noun = "premises" if schema.arity > 1 else "premise"

    def h(node: ProofNode) -> StepInfo:
        c = node.conclusion
        prems = [p.conclusion for p in node.premises]
        for i, f in _candidates(getattr(c, side), principal, node.at):
            for inst in instances(node, f):
                if all(
                    _premise_is(p, c, (side, i), ant, suc)
                    for p, (ant, suc) in zip(prems, actives(f, *inst))
                ):
                    if not eigen:
                        return StepInfo(rule, principal=(side, i), terms=inst)
                    *terms, a = inst
                    _eigen_check(a, c, witness=terms[0] if terms else None)
                    return StepInfo(rule, principal=(side, i), terms=tuple(terms), eigen=a)
        raise RuleError(f"no {rule} {what} matches the {noun}")

    return h


def _rewrites(a0: Formula, chi: Formula, src: Term, dst: Term) -> bool:
    """chi is the atom a0 with some occurrences of src, perhaps none, replaced
    by dst: at each position chi's part is a0's, or a0's is src and chi's dst."""
    if type(chi) is not type(a0) or getattr(chi, "pred", None) != getattr(a0, "pred", None):
        return False
    xs, ys = _parts(a0), _parts(chi)
    return len(xs) == len(ys) and all(y == x or (x == src and y == dst) for x, y in zip(xs, ys))


def _h_eqminus(node: ProofNode) -> StepInfo:
    c = node.conclusion
    p = node.premises[0].conclusion
    (ca, cs), (pa, ps) = sequent_key(c), sequent_key(p)
    if cs != ps:
        raise RuleError("eqminus must leave the succedent alone")
    for i, eq in _candidates(c.ant, RULES["eqminus"].principal, node.at):
        if node.terms and (eq.lhs, eq.rhs) != tuple(node.terms):
            continue
        for j, a0 in enumerate(c.ant):
            if j == i or not is_atomic(a0):
                continue
            # the premise is the conclusion less both principal formulas, plus chi
            k = _single_extra(pa, _moved(ca, (alpha_key(eq), alpha_key(a0))))
            if k is not None and _rewrites(a0, p.ant[_first_index(p.ant, k)], eq.lhs, eq.rhs):
                return StepInfo("eqminus", principal=("ant", i), terms=(eq.lhs, eq.rhs))
    raise RuleError("no identity/atom pair in the antecedent matches the premise")


def _h_eqplus(node: ProofNode) -> StepInfo:
    c = node.conclusion
    p = node.premises[0].conclusion
    (ca, cs), (pa, ps) = sequent_key(c), sequent_key(p)
    if cs != ps:
        raise RuleError("eqplus must leave the succedent alone")
    k = _single_extra(pa, ca)
    if k is None:
        raise RuleError("premise must have exactly one extra antecedent formula")
    extra = p.ant[_first_index(p.ant, k)]
    if not RULES["eqplus"].principal(extra):
        raise RuleError("discharged formula must be a reflexive identity b=b")
    if node.terms and node.terms[0] != extra.lhs:
        raise RuleError("annotated term does not match the discharged identity")
    return StepInfo("eqplus", terms=(extra.lhs,))


_HANDLERS: dict[str, Callable[[ProofNode], StepInfo]] = {
    "ax": _h_ax,
    "cut": _h_cut,
    "wl": _h_structural("ant", False),
    "wr": _h_structural("suc", False),
    "cl": _h_structural("ant", True),
    "cr": _h_structural("suc", True),
    "eqminus": _h_eqminus,
    "eqplus": _h_eqplus,
}
_HANDLERS |= {rule: _h_schema(rule) for rule in RULES if rule not in _HANDLERS}


# ---------------------------------------------------------------------------
# whole-proof checking


def check_proof(root: ProofNode) -> Proof:
    """Check each node as the `preorder` walk leaves it, premises before
    conclusions, left to right, so the leftmost-innermost failure is the one
    reported. Only the open path is kept, and rendered `dotted` only for a
    rejection. Each distinct formula object is validated once per call;
    every node's step is analyzed afresh. Returns the checked Proof with its
    height (its deepest node's depth, plus one) and cut degrees."""
    arities: dict[str, int] = {}
    validated: set[int] = set()
    cut_degrees: list[int] = []
    opened: list[list] = []  # the open path: [node, index of the premise last entered]
    height = 0
    for depth, node in chain(preorder(root), ((0, None),)):
        while len(opened) > depth:  # leave the nodes the walk is done with
            done = opened.pop()[0]
            try:
                validate_sequent(done.conclusion, arities, seen=validated)
                info = analyze_step(done)
            except IllFormed as e:
                raise CheckError(dotted(o[1] for o in opened), e.reason) from None
            except RuleError as e:
                raise CheckError(dotted(o[1] for o in opened), str(e)) from None
            if info.cut_formula is not None:
                cut_degrees.append(logical_constants(info.cut_formula))
        if node is not None:
            if opened:
                opened[-1][1] += 1
            opened.append([node, -1])
            height = max(height, depth + 1)
    return Proof(root=root, height=height, cut_degrees=tuple(sorted(cut_degrees)))


# ---------------------------------------------------------------------------
# parameter substitution in proofs


def rename_proof(root: ProofNode, choose: Callable, last: tuple = ()) -> ProofNode:
    """The proof renamed in one loop that enters each node in pre-order and
    leaves it in post-order. On entry `choose(node, names)`, given the
    renames made nearer the root (old name -> Param), returns None to keep
    the node's subtree, else its eigenparameter and its premises' renames.
    On leaving, its terms take that eigenparameter for its own, then its
    conclusion and terms each (old, new) of `names` and `last` that it has.
    One memo serves the walk (`rename_param_seq`); an unchanged node is kept."""
    memo, done, stack = {}, [], [(root, {}, ())]  # done: renamed, not yet placed
    while stack:
        node, names, picked = stack.pop()
        if not picked:  # entered: choose, then the premises
            picked = choose(node, names)
            if picked is None:
                done.append(node)
            else:
                stack.append((node, names, picked))
                for q in reversed(node.premises):
                    stack.append((q, picked[1], ()))
            continue
        eigen, cut = picked[0], len(done) - len(node.premises)
        premises = tuple(done[cut:])
        del done[cut:]
        conclusion, terms = node.conclusion, node.terms
        if eigen is not None and eigen != node.eigen:
            terms = tuple(eigen if t == node.eigen else t for t in terms)
        for old, new in (*names.items(), *last):
            if old in node.own_params:
                conclusion = rename_param_seq(conclusion, old, new, memo)
                terms = tuple(new if isinstance(t, Param) and t.name == old else t for t in terms)
        same = conclusion is node.conclusion and terms is node.terms and eigen is node.eigen
        if not (same and premises == node.premises):
            node = replace(node, conclusion=conclusion, terms=terms, premises=premises, eigen=eigen)
        done.append(node)
    return done[0]


def subst_param_proof(root: ProofNode, old: Union[str, Param], new: Term) -> ProofNode:
    """Replace parameter `old` by term `new` throughout a proof.

    Eigenvariables that collide with either name are renamed to a parameter
    fresh for their own subtree, so the result of substituting into a valid
    proof is again valid, with exactly the same height and rule skeleton.
    One `rename_proof` walk carries those renames down the tree. A proof not
    containing `old` is returned unchanged (identity), and so is every
    subtree that mentions neither name.
    """
    old_name = old.name if isinstance(old, Param) else old
    new_name = new.name if isinstance(new, Param) else None
    if old_name == new_name or old_name not in root.params:
        return root

    def choose(node: ProofNode, names: dict):
        if old_name not in node.params and new_name not in node.params:
            return None
        eigen = node.eigen
        if eigen is not None and eigen.name in names:
            return names[eigen.name], names
        if eigen is not None and eigen.name in (old_name, new_name):
            avoid = {names[n].name if n in names else n for n in node.params}
            fresh = Param(scan_fresh("a", avoid | {old_name, new_name}))
            return fresh, {**names, eigen.name: fresh}
        return eigen, names

    return rename_proof(root, choose, ((old_name, new),))
