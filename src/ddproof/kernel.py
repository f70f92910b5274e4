"""Proof representation and the checking kernel.

A proof is a tree of ProofNode values, each carrying its full conclusion
sequent, optional instantiation annotations, and its premise subtrees. The
kernel validates every node against the rule schemas; sequent sides are
matched as multisets modulo alpha-equality, so tuple order never matters.

Annotations (instantiation terms, eigenvariables) are optional: when absent
the checker re-derives them by trying candidate principal occurrences in
order and matching instantiations against the premises (first match wins).

Eigenvariable conditions are strict: the eigenvariable may not occur
anywhere in the conclusion. iotar also rejects an eigenvariable equal to its
witness term: with the two identified, the uniqueness premise becomes
vacuous and the rule could derive "the domain is a singleton" from nothing.

`check_proof` reads facts stored on syntax objects, each computed once from
the object's own fields: a formula's alpha key and free variables, and each
sequent side's multiset of alpha keys (`syntax.side_counts`). Within one
call it validates each distinct formula object once. Step results are never
stored: every call runs `analyze_step` on every node, and nothing a check
returns is read back by a later one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator, Optional, Union

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
    alpha_key,
    is_atomic,
    is_term,
    logical_constants,
    params_in,
    rename_param_seq,
    scan_fresh,
    sequents_alpha_equal,
    side_counts,
    substitute,
    validate_sequent,
)

sys.setrecursionlimit(max(sys.getrecursionlimit(), 50_000))

# ---------------------------------------------------------------------------
# proof trees

RULE_ARITY: dict[str, int] = {
    "ax": 0,
    "cut": 2,
    "wl": 1,
    "wr": 1,
    "cl": 1,
    "cr": 1,
    "negl": 1,
    "negr": 1,
    "andl": 1,
    "andr": 2,
    "orl": 2,
    "orr": 1,
    "impl": 2,
    "impr": 1,
    "iffl": 2,
    "iffr": 2,
    "foralll": 1,
    "forallr": 1,
    "existsl": 1,
    "existsr": 1,
    "eqminus": 1,
    "eqplus": 1,
    "laml": 1,
    "lamr": 1,
    "iota1l": 1,
    "iota2l": 3,
    "iotar": 3,
}

EIGEN_RULES = {"forallr", "existsl", "iota1l", "iotar"}


@dataclass(frozen=True, eq=False)
class ProofNode:
    """One inference: its conclusion, premise subtrees and annotations.

    Three facts about a node are computed on first use and then stored on
    it: `own_params`, `params` and `cut_degree`. A node is never mutated
    (`dataclasses.replace` and every rewrite build new nodes), and each
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

    @cached_property
    def params(self) -> frozenset[str]:
        """Every parameter of the subtree: each node's `own_params` and
        annotated eigenparameter. Filled by an iterative post-order pass
        that descends only into nodes without a stored set, so proof height
        is bounded by memory, not by the C stack."""
        stack = [self]
        while stack:
            node = stack[-1]
            todo = [q for q in node.premises if "params" not in q.__dict__]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            names = node.own_params.union(*(q.params for q in node.premises))
            if node.eigen is not None:
                names |= {node.eigen.name}
            node.__dict__["params"] = names
        return self.__dict__["params"]

    @cached_property
    def cut_degree(self) -> Optional[int]:
        """Logical constants in the cut formula; None unless a cut. Raises
        RuleError for a cut whose contexts do not add up."""
        if self.rule != "cut":
            return None
        return logical_constants(analyze_step(self).cut_formula)


@dataclass(frozen=True, eq=False)
class Proof:
    """A checked proof: the validated tree plus facts found while checking."""

    root: ProofNode
    height: int
    cut_degrees: tuple[int, ...]  # degree of every cut, ascending

    @property
    def params(self) -> frozenset[str]:
        """Every parameter of the proof, stored on the root when first asked."""
        return self.root.params

    @property
    def degree(self) -> int:
        return self.cut_degrees[-1] if self.cut_degrees else 0


class RuleError(Exception):
    """A single inference step does not match its rule schema."""


class CheckError(Exception):
    """Proof rejection: the offending node's path and the reason."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"path={path}: {reason}")


@dataclass
class StepInfo:
    """The resolved instantiation of one valid inference step."""

    rule: str
    principal: Optional[tuple[str, int]] = None  # side, index in conclusion
    terms: tuple[Term, ...] = ()
    eigen: Optional[Param] = None
    cut_formula: Optional[Formula] = None


# ---------------------------------------------------------------------------
# traversal helpers


def iter_nodes(root: ProofNode) -> Iterator[tuple[str, ProofNode]]:
    """Pre-order (node before premises), with dotted paths; root is "root"."""
    stack: list[tuple[str, ProofNode]] = [("root", root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        prefix = "" if path == "root" else path + "."
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((f"{prefix}{i}", node.premises[i]))


def proof_height(root: ProofNode) -> int:
    heights: dict[int, int] = {}
    stack: list[tuple[ProofNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            heights[id(node)] = 1 + max(
                (heights[id(p)] for p in node.premises), default=0
            )
        else:
            stack.append((node, True))
            for p in node.premises:
                stack.append((p, False))
    return heights[id(root)]


def proof_size(root: ProofNode) -> int:
    return sum(1 for _ in iter_nodes(root))


def proof_params(root: ProofNode) -> set[str]:
    """Every parameter of the proof, as a set the caller may change."""
    return set(root.params)


def proofs_equal(p: ProofNode, q: ProofNode) -> bool:
    """Same rule tree with alpha-equal sequents and equal annotations."""
    if (
        p.rule != q.rule
        or len(p.premises) != len(q.premises)
        or p.terms != q.terms
        or p.eigen != q.eigen
        or not sequents_alpha_equal(p.conclusion, q.conclusion)
    ):
        return False
    return all(proofs_equal(a, b) for a, b in zip(p.premises, q.premises))


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
# A side's multiset is the dict `side_counts` stores on each sequent: an
# alpha key and its number of occurrences, with no zero counts, so two
# multisets are equal exactly when the dicts are. Rules compare a premise's
# stored dicts with the conclusion's, adjusted by copies.

_SIDE = {"ant": 0, "suc": 1}


def _moved(count: dict[str, int], drop: tuple = (), add: tuple = ()) -> dict[str, int]:
    """A copy of `count` less one occurrence of each key in `drop` (each is
    there) and plus one of each formula in `add`."""
    out = dict(count)
    for k in drop:
        n = out[k] - 1
        if n:
            out[k] = n
        else:
            del out[k]
    for f in add:
        k = alpha_key(f)
        out[k] = out.get(k, 0) + 1
    return out


def _sum(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    out = dict(a)
    for k, n in b.items():
        out[k] = out.get(k, 0) + n
    return out


def _premise_is(
    p: Sequent, c: Sequent, drop: tuple[str, int], ant: tuple = (), suc: tuple = ()
) -> bool:
    """p's sides are c's, less c's formula at `drop` (side, index) and plus
    the formulas `ant` and `suc`."""
    have, base = side_counts(p), side_counts(c)
    for side, adds in (("ant", ant), ("suc", suc)):
        forms, i = getattr(c, side), _SIDE[side]
        gone = (alpha_key(forms[drop[1]]),) if drop[0] == side else ()
        if len(getattr(p, side)) != len(forms) - len(gone) + len(adds):
            return False
        if have[i] != (_moved(base[i], gone, adds) if gone or adds else base[i]):
            return False
    return True


def _single_extra(big: dict[str, int], small: dict[str, int]) -> Optional[str]:
    """If big == small + one occurrence of some key, return it, else None."""
    for k, n in big.items():
        if n != small.get(k, 0):
            return k if {**small, k: small.get(k, 0) + 1} == big else None
    return None


def _first_index(forms: tuple, key: str) -> int:
    for i, f in enumerate(forms):
        if alpha_key(f) == key:
            return i
    raise ValueError(f"no occurrence of {key}")


def find_first(forms: tuple, key: str) -> Optional[Formula]:
    for f in forms:
        if alpha_key(f) == key:
            return f
    return None


# ---------------------------------------------------------------------------
# instantiation matching


def match_subst(body: Formula, x: str, chi: Formula):
    """Find t with body[x/t] alpha-equal to chi.

    Returns the unique such Param/Const, the string "any" when x is not free
    in body and body is alpha-equal to chi, or None when no match exists.
    """
    found: list[Term] = []

    def term_ok(b: Term, c, benv: dict, cenv: dict) -> bool:
        if isinstance(b, Var):
            if b.name in benv:
                return isinstance(c, Var) and cenv.get(c.name) == benv[b.name]
            if b.name == x:
                if isinstance(c, (Param, Const)):
                    found.append(c)
                    return True
                return False
            # other free variable: must appear verbatim and free
            return isinstance(c, Var) and c.name == b.name and c.name not in cenv
        return c == b

    def walk(b: Formula, c, benv: dict, cenv: dict, depth: int) -> bool:
        if type(b) is not type(c):
            return False
        if isinstance(b, PredAtom):
            return (
                b.pred == c.pred
                and len(b.args) == len(c.args)
                and all(term_ok(u, v, benv, cenv) for u, v in zip(b.args, c.args))
            )
        if isinstance(b, Identity):
            return term_ok(b.lhs, c.lhs, benv, cenv) and term_ok(
                b.rhs, c.rhs, benv, cenv
            )
        if isinstance(b, Not):
            return walk(b.sub, c.sub, benv, cenv, depth)
        if isinstance(b, (And, Or, Imp, Iff)):
            return walk(b.left, c.left, benv, cenv, depth) and walk(
                b.right, c.right, benv, cenv, depth
            )
        if isinstance(b, (Forall, Exists)):
            return walk(
                b.body,
                c.body,
                {**benv, b.bound: depth},
                {**cenv, c.bound: depth},
                depth + 1,
            )
        if isinstance(b, LambdaAtom):
            if isinstance(b.arg, IotaTerm) != isinstance(c.arg, IotaTerm):
                return False
            if isinstance(b.arg, IotaTerm):
                if not walk(
                    b.arg.body,
                    c.arg.body,
                    {**benv, b.arg.bound: depth},
                    {**cenv, c.arg.bound: depth},
                    depth + 1,
                ):
                    return False
            elif not term_ok(b.arg, c.arg, benv, cenv):
                return False
            return walk(
                b.body,
                c.body,
                {**benv, b.bound: depth},
                {**cenv, c.bound: depth},
                depth + 1,
            )
        raise TypeError(f"not a formula: {b!r}")

    if not walk(body, chi, {}, {}, 0):
        return None
    if not found:
        return "any"
    first = found[0]
    if any(t != first for t in found[1:]):
        return None
    return first


# ---------------------------------------------------------------------------
# step analysis

_INSTANCE_TERM = (Param, Const)


def _require_slot_term(t, what: str) -> None:
    if not isinstance(t, _INSTANCE_TERM):
        raise RuleError(f"{what} must be a parameter or constant, got {t!r}")


def _require_eigen(t, what: str = "eigenvariable") -> Param:
    if not isinstance(t, Param):
        raise RuleError(f"{what} must be a parameter, got {t!r}")
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


def _diff_candidates(p: Sequent, side: str, base: dict[str, int]) -> list[Formula]:
    """Formulas of p's `side` that exceed `base`, else (absorption case) one
    representative per distinct key; first occurrences, in order."""
    count = side_counts(p)[_SIDE[side]]
    extra = {k for k, n in count.items() if n > base.get(k, 0)}
    out, seen = [], set()
    for f in getattr(p, side):
        k = alpha_key(f)
        if k not in seen and (not extra or k in extra):
            seen.add(k)
            out.append(f)
    return out


def _without(c: Sequent, side: str, f: Formula) -> dict[str, int]:
    """The multiset of c's `side` less one occurrence of f."""
    return _moved(side_counts(c)[_SIDE[side]], (alpha_key(f),))


def _fresh_param_for(*xs) -> Param:
    avoid = set()
    for x in xs:
        avoid |= params_in(x)
    return Param(scan_fresh("a", avoid))


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
    return _HANDLERS[rule](node)


# --- the one-principal rule schemas ---
#
# Each is stated once: the handlers below are built from these tables, and
# search builds its premises from them. A rule's principal formula is of
# the class given, on the side given.

# a propositional rule replaces its principal formula f, in premise j, by
# the formulas actives(f)[j] = (antecedent, succedent)
PROPOSITIONAL_RULES: dict[str, tuple[str, type, Callable]] = {
    "negl": ("ant", Not, lambda f: [((), (f.sub,))]),
    "negr": ("suc", Not, lambda f: [((f.sub,), ())]),
    "andl": ("ant", And, lambda f: [((f.left, f.right), ())]),
    "andr": ("suc", And, lambda f: [((), (f.left,)), ((), (f.right,))]),
    "orl": ("ant", Or, lambda f: [((f.left,), ()), ((f.right,), ())]),
    "orr": ("suc", Or, lambda f: [((), (f.left, f.right))]),
    "impl": ("ant", Imp, lambda f: [((), (f.left,)), ((f.right,), ())]),
    "impr": ("suc", Imp, lambda f: [((f.left,), (f.right,))]),
    "iffl": ("ant", Iff, lambda f: [((), (f.left, f.right)), ((f.left, f.right), ())]),
    "iffr": ("suc", Iff, lambda f: [((f.left,), (f.right,)), ((f.right,), (f.left,))]),
}

# a quantifier rule replaces its principal formula by body[x/b] on the same
# side, for an eigenparameter b when the flag is set, else for a parameter
# or constant b
QUANTIFIER_RULES: dict[str, tuple[str, type, bool]] = {
    "foralll": ("ant", Forall, False),
    "forallr": ("suc", Forall, True),
    "existsl": ("ant", Exists, True),
    "existsr": ("suc", Exists, False),
}

# a lambda rule replaces an abstract applied to a term by its beta-reduct
# on the same side
LAMBDA_RULES: dict[str, tuple[str, type]] = {
    "laml": ("ant", LambdaAtom),
    "lamr": ("suc", LambdaAtom),
}


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
    ant, suc = side_counts(node.conclusion)
    (p1a, p1s), (p2a, p2s) = side_counts(p1), side_counts(p2)
    # the conclusion plus the cut formula on each side is the premises' sum
    both_ant, both_suc = _sum(p1a, p2a), _sum(p1s, p2s)
    tried = set()
    for chi in p1.suc:
        k = alpha_key(chi)
        if k in tried or k not in p2a:
            continue
        tried.add(k)
        if _moved(ant, add=(chi,)) == both_ant and _moved(suc, add=(chi,)) == both_suc:
            return StepInfo("cut", cut_formula=chi)
    raise RuleError("no cut formula makes the contexts add up")


# the side that weakening or contraction on a side leaves alone: its key
# and its name in messages
_OTHER_SIDE = {"ant": ("suc", "succedent"), "suc": ("ant", "antecedent")}


def _h_weaken(mine: str):
    other, other_side = _OTHER_SIDE[mine]

    def h(node: ProofNode) -> StepInfo:
        c = node.conclusion
        cc, pc = side_counts(c), side_counts(node.premises[0].conclusion)
        if cc[_SIDE[other]] != pc[_SIDE[other]]:
            raise RuleError(f"weakening must leave the {other_side} side alone")
        k = _single_extra(cc[_SIDE[mine]], pc[_SIDE[mine]])
        if k is None:
            raise RuleError("conclusion must add exactly one formula")
        return StepInfo(node.rule, principal=(mine, _first_index(getattr(c, mine), k)))

    return h


def _h_contract(mine: str):
    other, other_side = _OTHER_SIDE[mine]

    def h(node: ProofNode) -> StepInfo:
        c = node.conclusion
        cc, pc = side_counts(c), side_counts(node.premises[0].conclusion)
        if cc[_SIDE[other]] != pc[_SIDE[other]]:
            raise RuleError(f"contraction must leave the {other_side} side alone")
        k = _single_extra(pc[_SIDE[mine]], cc[_SIDE[mine]])
        if k is None:
            raise RuleError("premise must have exactly one extra copy")
        if k not in cc[_SIDE[mine]]:
            raise RuleError("contracted formula must remain in the conclusion")
        return StepInfo(node.rule, principal=(mine, _first_index(getattr(c, mine), k)))

    return h


def _h_propositional(rule: str, side: str, kind: type, actives):
    """The handler of a PROPOSITIONAL_RULES entry."""
    noun = "premises" if RULE_ARITY[rule] > 1 else "premise"

    def h(node: ProofNode) -> StepInfo:
        c = node.conclusion
        prems = [p.conclusion for p in node.premises]
        for i, f in _candidates(getattr(c, side), lambda g: isinstance(g, kind), node.at):
            if all(
                _premise_is(p, c, (side, i), ant, suc)
                for p, (ant, suc) in zip(prems, actives(f))
            ):
                return StepInfo(rule, principal=(side, i))
        raise RuleError(f"no {rule} principal formula matches the {noun}")

    return h


def _h_quantifier(rule: str, side: str, kind: type, eigen: bool):
    """The handler of a QUANTIFIER_RULES entry: b is annotated or inferred,
    and an eigenparameter must not occur in the conclusion."""

    def h(node: ProofNode) -> StepInfo:
        c = node.conclusion
        p = node.premises[0].conclusion
        for i, f in _candidates(getattr(c, side), lambda g: isinstance(g, kind), node.at):
            if eigen and node.eigen is not None:
                bs: list = [_require_eigen(node.eigen)]
            elif not eigen and node.terms:
                _require_slot_term(node.terms[0], f"{rule} instantiation term")
                bs = [node.terms[0]]
            else:
                bs = []
                for chi in _diff_candidates(p, side, _without(c, side, f)):
                    m = match_subst(f.body, f.bound, chi)
                    if m == "any":
                        bs.append(_fresh_param_for(c, p))
                    elif isinstance(m, Param if eigen else _INSTANCE_TERM):
                        bs.append(m)
            for b in bs:
                inst = substitute(f.body, f.bound, b)
                if _premise_is(p, c, (side, i), **{side: (inst,)}):
                    if not eigen:
                        return StepInfo(rule, principal=(side, i), terms=(b,))
                    _eigen_check(b, c)
                    return StepInfo(rule, principal=(side, i), eigen=b)
        raise RuleError(f"no {rule} instance matches the premise")

    return h


def _rewrite_compatible(a0: Formula, chi: Formula, s1: Term, s2: Term) -> bool:
    """chi can be a0 with some occurrences of s1 replaced by s2."""
    if isinstance(a0, PredAtom) and isinstance(chi, PredAtom):
        if a0.pred != chi.pred or len(a0.args) != len(chi.args):
            return False
        pairs = zip(a0.args, chi.args)
    elif isinstance(a0, Identity) and isinstance(chi, Identity):
        pairs = zip((a0.lhs, a0.rhs), (chi.lhs, chi.rhs))
    else:
        return False
    return all(u == v or (u == s1 and v == s2) for u, v in pairs)


def _h_eqminus(node: ProofNode) -> StepInfo:
    c = node.conclusion
    p = node.premises[0].conclusion
    (ca, cs), (pa, ps) = side_counts(c), side_counts(p)
    if cs != ps:
        raise RuleError("eqminus must leave the succedent alone")
    if len(node.terms) not in (0, 2):
        raise RuleError("eqminus needs two annotated terms or none")
    for i, eq in enumerate(c.ant):
        if not isinstance(eq, Identity):
            continue
        if node.terms and (eq.lhs, eq.rhs) != (node.terms[0], node.terms[1]):
            continue
        s1, s2 = eq.lhs, eq.rhs
        if not (isinstance(s1, _INSTANCE_TERM) and isinstance(s2, _INSTANCE_TERM)):
            continue
        for j, a0 in enumerate(c.ant):
            if j == i or not is_atomic(a0):
                continue
            base = _moved(ca, (alpha_key(eq), alpha_key(a0)))
            for chi in _diff_candidates(p, "ant", base):
                if not _rewrite_compatible(a0, chi, s1, s2):
                    continue
                if pa == _moved(base, add=(chi,)):
                    return StepInfo("eqminus", principal=("ant", i), terms=(s1, s2))
    raise RuleError("no identity/atom pair in the antecedent matches the premise")


def _h_eqplus(node: ProofNode) -> StepInfo:
    c = node.conclusion
    p = node.premises[0].conclusion
    (ca, cs), (pa, ps) = side_counts(c), side_counts(p)
    if cs != ps:
        raise RuleError("eqplus must leave the succedent alone")
    k = _single_extra(pa, ca)
    if k is None:
        raise RuleError("premise must have exactly one extra antecedent formula")
    extra = find_first(p.ant, k)
    if not (
        isinstance(extra, Identity)
        and extra.lhs == extra.rhs
        and isinstance(extra.lhs, _INSTANCE_TERM)
    ):
        raise RuleError("discharged formula must be a reflexive identity b=b")
    if node.terms and node.terms[0] != extra.lhs:
        raise RuleError("annotated term does not match the discharged identity")
    return StepInfo("eqplus", terms=(extra.lhs,))


def _h_lambda(rule: str, side: str, kind: type):
    """The handler of a LAMBDA_RULES entry."""
    want = lambda g: isinstance(g, kind) and is_term(g.arg)

    def h(node: ProofNode) -> StepInfo:
        c = node.conclusion
        p = node.premises[0].conclusion
        for i, f in _candidates(getattr(c, side), want, node.at):
            _require_slot_term(f.arg, "abstract argument")
            inst = substitute(f.body, f.bound, f.arg)
            if _premise_is(p, c, (side, i), **{side: (inst,)}):
                return StepInfo(rule, principal=(side, i), terms=(f.arg,))
        raise RuleError(f"no {rule} abstract matches the premise")

    return h


def _is_description_atom(f: Formula) -> bool:
    return isinstance(f, LambdaAtom) and isinstance(f.arg, IotaTerm)


def _h_iota1l(node: ProofNode) -> StepInfo:
    c = node.conclusion
    p = node.premises[0].conclusion
    if side_counts(p)[1] != side_counts(c)[1]:
        raise RuleError("no iota1l instance matches the premise")
    for i, f in _candidates(c.ant, _is_description_atom, node.at):
        it = f.arg
        if node.eigen is not None:
            cands: list[Param] = [_require_eigen(node.eigen)]
        else:
            cands = []
            for chi in _diff_candidates(p, "ant", _without(c, "ant", f)):
                for body, bound in ((it.body, it.bound), (f.body, f.bound)):
                    m = match_subst(body, bound, chi)
                    if isinstance(m, Param) and m not in cands:
                        cands.append(m)
            cands.append(_fresh_param_for(c, p))
        for a in cands:
            phi_a = substitute(it.body, it.bound, a)
            psi_a = substitute(f.body, f.bound, a)
            if _premise_is(p, c, ("ant", i), ant=(phi_a, psi_a)):
                _eigen_check(a, c)
                return StepInfo("iota1l", principal=("ant", i), eigen=a)
    raise RuleError("no iota1l instance matches the premise")


def _h_iota2l(node: ProofNode) -> StepInfo:
    c = node.conclusion
    p1, p2, p3 = (p.conclusion for p in node.premises)
    for i, f in _candidates(c.ant, _is_description_atom, node.at):
        it = f.arg
        if node.terms:
            if len(node.terms) != 2:
                raise RuleError("iota2l needs two instantiation terms")
            pairs = [(node.terms[0], node.terms[1])]
        else:
            pairs = [
                (chi.lhs, chi.rhs)
                for chi in _diff_candidates(p3, "ant", _without(c, "ant", f))
                if isinstance(chi, Identity)
            ]
        for b1, b2 in pairs:
            if not (
                isinstance(b1, _INSTANCE_TERM) and isinstance(b2, _INSTANCE_TERM)
            ):
                continue
            if (
                _premise_is(p1, c, ("ant", i), suc=(substitute(it.body, it.bound, b1),))
                and _premise_is(p2, c, ("ant", i), suc=(substitute(it.body, it.bound, b2),))
                and _premise_is(p3, c, ("ant", i), ant=(Identity(b1, b2),))
            ):
                return StepInfo("iota2l", principal=("ant", i), terms=(b1, b2))
    raise RuleError("no iota2l instance matches the premises")


def _h_iotar(node: ProofNode) -> StepInfo:
    c = node.conclusion
    p1, p2, p3 = (p.conclusion for p in node.premises)
    for i, f in _candidates(c.suc, _is_description_atom, node.at):
        it = f.arg
        base = _without(c, "suc", f)
        # witness candidates
        if node.terms:
            _require_slot_term(node.terms[0], "iotar witness term")
            bs: list = [node.terms[0]]
        else:
            bs = []
            for chi in _diff_candidates(p1, "suc", base):
                m = match_subst(it.body, it.bound, chi)
                if m == "any":
                    bs.append(_fresh_param_for(c, p1, p2, p3))
                elif m is not None:
                    bs.append(m)
        for b in bs:
            if not (
                _premise_is(p1, c, ("suc", i), suc=(substitute(it.body, it.bound, b),))
                and _premise_is(p2, c, ("suc", i), suc=(substitute(f.body, f.bound, b),))
            ):
                continue
            # eigen candidates: annotation, the extra antecedent formula of
            # the third premise, the identity a=b in its succedent, or fresh
            if node.eigen is not None:
                eigens: list[Param] = [_require_eigen(node.eigen)]
            else:
                eigens = []
                for chi in _diff_candidates(p3, "ant", side_counts(c)[0]):
                    m = match_subst(it.body, it.bound, chi)
                    if isinstance(m, Param) and m not in eigens:
                        eigens.append(m)
                for chi in _diff_candidates(p3, "suc", base):
                    if (
                        isinstance(chi, Identity)
                        and chi.rhs == b
                        and isinstance(chi.lhs, Param)
                        and chi.lhs not in eigens
                    ):
                        eigens.append(chi.lhs)
                eigens.append(_fresh_param_for(c, p1, p2, p3))
            for a in eigens:
                phi_a = substitute(it.body, it.bound, a)
                if _premise_is(p3, c, ("suc", i), ant=(phi_a,), suc=(Identity(a, b),)):
                    _eigen_check(a, c, witness=b)
                    return StepInfo(
                        "iotar", principal=("suc", i), terms=(b,), eigen=a
                    )
    raise RuleError("no iotar instance matches the premises")


_HANDLERS: dict[str, Callable[[ProofNode], StepInfo]] = {
    "ax": _h_ax,
    "cut": _h_cut,
    "wl": _h_weaken("ant"),
    "wr": _h_weaken("suc"),
    "cl": _h_contract("ant"),
    "cr": _h_contract("suc"),
    **{r: _h_propositional(r, *schema) for r, schema in PROPOSITIONAL_RULES.items()},
    **{r: _h_quantifier(r, *schema) for r, schema in QUANTIFIER_RULES.items()},
    **{r: _h_lambda(r, *schema) for r, schema in LAMBDA_RULES.items()},
    "eqminus": _h_eqminus,
    "eqplus": _h_eqplus,
    "iota1l": _h_iota1l,
    "iota2l": _h_iota2l,
    "iotar": _h_iotar,
}


# ---------------------------------------------------------------------------
# whole-proof checking


def check_proof(root: ProofNode) -> Proof:
    """Check every node (premises before conclusions, left to right, so the
    leftmost-innermost failure is the one reported). Each distinct formula
    object is validated once per call; every node's step is analyzed afresh.
    Returns the checked Proof with its height and cut degrees."""
    arities: dict[str, int] = {}
    validated: set[int] = set()
    heights: dict[int, int] = {}
    cut_degrees: list[int] = []
    stack: list[tuple[ProofNode, str, bool]] = [(root, "root", False)]
    while stack:
        node, path, expanded = stack.pop()
        if not expanded:
            stack.append((node, path, True))
            prefix = "" if path == "root" else path + "."
            for i in range(len(node.premises) - 1, -1, -1):
                stack.append((node.premises[i], f"{prefix}{i}", False))
            continue
        try:
            validate_sequent(node.conclusion, arities, path, validated)
        except IllFormed as e:
            raise CheckError(path, e.reason) from None
        try:
            info = analyze_step(node)
        except RuleError as e:
            raise CheckError(path, str(e)) from None
        if info.cut_formula is not None:
            cut_degrees.append(logical_constants(info.cut_formula))
        heights[id(node)] = 1 + max(
            (heights[id(p)] for p in node.premises), default=0
        )
    return Proof(
        root=root,
        height=heights[id(root)],
        cut_degrees=tuple(sorted(cut_degrees)),
    )


# ---------------------------------------------------------------------------
# parameter substitution in proofs


def _subst_terms(terms: tuple[Term, ...], old: str, new: Term) -> tuple[Term, ...]:
    return tuple(
        new if isinstance(t, Param) and t.name == old else t for t in terms
    )


def _plain_rename(node: ProofNode, old: str, new: Term) -> ProofNode:
    """Blind parameter rename through a subtree (no eigen-clash handling;
    callers guarantee `new` occurs nowhere in the subtree)."""
    eigen = node.eigen
    if eigen is not None and eigen.name == old:
        assert isinstance(new, Param)
        eigen = new
    return replace(
        node,
        conclusion=rename_param_seq(node.conclusion, old, new),
        terms=_subst_terms(node.terms, old, new),
        eigen=eigen,
        premises=tuple(_plain_rename(p, old, new) for p in node.premises),
    )


def subst_param_proof(root: ProofNode, old: Union[str, Param], new: Term) -> ProofNode:
    """Replace parameter `old` by term `new` throughout a proof.

    Eigenvariables that collide with either name are first renamed to
    a parameter fresh for their own subtree, so the result of
    substituting into a valid proof is again valid, with exactly the same
    height and rule skeleton. A proof not containing `old` is returned
    unchanged (identity).
    """
    old_name = old.name if isinstance(old, Param) else old
    new_name = new.name if isinstance(new, Param) else None
    if old_name == new_name:
        return root
    if old_name not in root.params:
        return root

    def go(node: ProofNode) -> ProofNode:
        if node.eigen is not None and node.eigen.name in (old_name, new_name):
            avoid = proof_params(node) | {old_name}
            if new_name:
                avoid.add(new_name)
            fresh = Param(scan_fresh("a", avoid))
            node = replace(
                node,
                eigen=fresh,
                terms=_subst_terms(node.terms, node.eigen.name, fresh),
                premises=tuple(
                    _plain_rename(p, node.eigen.name, fresh) for p in node.premises
                ),
            )
        return replace(
            node,
            conclusion=rename_param_seq(node.conclusion, old_name, new),
            terms=_subst_terms(node.terms, old_name, new),
            premises=tuple(go(p) for p in node.premises),
        )

    return go(root)
