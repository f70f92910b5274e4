"""Proof representation and the checking kernel.

A proof is a tree of ProofNode values, each carrying its full conclusion
sequent, optional instantiation annotations, and its premise subtrees. The
kernel validates every node against the rule schemas; sequent sides are
matched as multisets modulo alpha-equality, so tuple order never matters.

Annotations (instantiation terms, eigenvariables) are optional: when absent
the checker re-derives them by trying candidate principal occurrences in
order and matching instantiations against the premises (first match wins).

Eigenvariable conditions are strict by default: the eigenvariable may not
occur anywhere in the conclusion. `lax_iota_eigen=True` relaxes the two
description rules with eigenvariables (iota1l, iotar) to exclude only the
context and the description body, not the abstract body. The lax reading is
unsound for iota1l (an abstract body mentioning the eigenvariable can smuggle
it into the conclusion) and exists for experimentation only. Independently of
the flag, iotar rejects an eigenvariable equal to its witness term: with the
two identified, the uniqueness premise becomes vacuous and the rule could
derive "the domain is a singleton" from nothing.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field, replace
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
    """A checked proof: the validated tree plus cached facts about it."""

    root: ProofNode
    height: int
    params: frozenset[str]
    cut_degrees: tuple[int, ...]  # degree of every cut, ascending

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
    eq_index: Optional[int] = None
    atom_index: Optional[int] = None


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


def _cnt(forms) -> Counter:
    return Counter(alpha_key(f) for f in forms)


def _cnt_eq(a: Counter, b: Counter) -> bool:
    return +a == +b


def _plus(c: Counter, *forms: Formula) -> Counter:
    out = Counter(c)
    for f in forms:
        out[alpha_key(f)] += 1
    return out


def _minus_key(c: Counter, key: str) -> Counter:
    out = Counter(c)
    out[key] -= 1
    return out


def _single_extra(big: Counter, small: Counter) -> Optional[str]:
    """If big == small + one occurrence of some key, return it, else None."""
    d = big - small
    if sum(d.values()) != 1 or sum((small - big).values()) != 0:
        return None
    return next(iter(d))


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


def _diff_candidates(prem_side: tuple, base: Counter) -> list[Formula]:
    """Formulas of the premise side that exceed `base`, else (absorption
    case) one representative per distinct key."""
    extra = _cnt(prem_side) - base
    if extra:
        out, seen = [], set()
        for f in prem_side:
            k = alpha_key(f)
            if k in extra and k not in seen:
                seen.add(k)
                out.append(f)
        return out
    out, seen = [], set()
    for f in prem_side:
        k = alpha_key(f)
        if k not in seen:
            seen.add(k)
            out.append(f)
    return out


def _fresh_param_for(*xs) -> Param:
    avoid = set()
    for x in xs:
        avoid |= params_in(x)
    return Param(scan_fresh("a", avoid))


def _eigen_check(
    a: Param,
    rule: str,
    conclusion: Sequent,
    lax: bool,
    lax_scope=None,
    witness: Optional[Term] = None,
) -> None:
    if rule == "iotar" and isinstance(witness, Param) and witness.name == a.name:
        raise RuleError(
            f"eigenvariable {a.name} equals the witness term; the uniqueness "
            "premise would be vacuous"
        )
    if lax and lax_scope is not None:
        if a.name in params_in(lax_scope):
            raise RuleError(
                f"eigenvariable {a.name} occurs in the context or description body"
            )
        return
    if a.name in params_in(conclusion):
        raise RuleError(f"eigenvariable {a.name} occurs in the conclusion")


def analyze_step(
    node: ProofNode, *, lax_iota_eigen: bool = False
) -> StepInfo:
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
    handler = _HANDLERS[rule]
    return handler(node, lax_iota_eigen)


# --- handlers, one per rule ---


def _h_ax(node: ProofNode, lax: bool) -> StepInfo:
    A, S = node.conclusion.ant, node.conclusion.suc
    if len(A) != 1 or len(S) != 1:
        raise RuleError("axiom must be a single formula on each side")
    if alpha_key(A[0]) != alpha_key(S[0]):
        raise RuleError("axiom sides differ")
    return StepInfo("ax")


def _h_cut(node: ProofNode, lax: bool) -> StepInfo:
    (p1, p2) = (p.conclusion for p in node.premises)
    A, S = _cnt(node.conclusion.ant), _cnt(node.conclusion.suc)
    p1a, p1s, p2a, p2s = _cnt(p1.ant), _cnt(p1.suc), _cnt(p2.ant), _cnt(p2.suc)
    tried = set()
    for chi in p1.suc:
        k = alpha_key(chi)
        if k in tried:
            continue
        tried.add(k)
        if p2a[k] < 1:
            continue
        if _cnt_eq(A, p1a + _minus_key(p2a, k)) and _cnt_eq(
            S, _minus_key(p1s, k) + p2s
        ):
            return StepInfo("cut", cut_formula=chi)
    raise RuleError("no cut formula makes the contexts add up")


def _h_weaken(side: str):
    def h(node: ProofNode, lax: bool) -> StepInfo:
        c, p = node.conclusion, node.premises[0].conclusion
        mine, other = ("ant", "suc") if side == "ant" else ("suc", "ant")
        if not _cnt_eq(_cnt(getattr(c, other)), _cnt(getattr(p, other))):
            raise RuleError(f"weakening must leave the {other}ecedent side alone")
        k = _single_extra(_cnt(getattr(c, mine)), _cnt(getattr(p, mine)))
        if k is None:
            raise RuleError("conclusion must add exactly one formula")
        return StepInfo(node.rule, principal=(mine, _first_index(getattr(c, mine), k)))

    return h


def _h_contract(side: str):
    def h(node: ProofNode, lax: bool) -> StepInfo:
        c, p = node.conclusion, node.premises[0].conclusion
        mine, other = ("ant", "suc") if side == "ant" else ("suc", "ant")
        if not _cnt_eq(_cnt(getattr(c, other)), _cnt(getattr(p, other))):
            raise RuleError(f"contraction must leave the {other} side alone")
        k = _single_extra(_cnt(getattr(p, mine)), _cnt(getattr(c, mine)))
        if k is None:
            raise RuleError("premise must have exactly one extra copy")
        if _cnt(getattr(c, mine))[k] < 1:
            raise RuleError("contracted formula must remain in the conclusion")
        return StepInfo(node.rule, principal=(mine, _first_index(getattr(c, mine), k)))

    return h


def _one_premise_logical(
    rule: str,
    side: str,
    want,
    premise_shape: Callable[[Sequent, int, Formula], tuple[Counter, Counter]],
):
    """Shared skeleton: find a principal occurrence on `side` such that the
    single premise equals `premise_shape(conclusion, index, principal)`."""

    def h(node: ProofNode, lax: bool) -> StepInfo:
        c = node.conclusion
        p = node.premises[0].conclusion
        pa, ps = _cnt(p.ant), _cnt(p.suc)
        for i, f in _candidates(getattr(c, side), want, node.at):
            try:
                ea, es = premise_shape(c, i, f)
            except RuleError:
                continue
            if _cnt_eq(pa, ea) and _cnt_eq(ps, es):
                return StepInfo(rule, principal=(side, i))
        raise RuleError(f"no {rule} principal formula matches the premise")

    return h


def _side_minus(c: Sequent, side: str, i: int) -> Counter:
    forms = getattr(c, side)
    return _cnt(forms[:i] + forms[i + 1 :])


def _h_negl(node, lax):
    def shape(c, i, f):
        return _plus(_side_minus(c, "ant", i)), _plus(_cnt(c.suc), f.sub)

    return _one_premise_logical("negl", "ant", lambda f: isinstance(f, Not), shape)(
        node, lax
    )


def _h_negr(node, lax):
    def shape(c, i, f):
        return _plus(_cnt(c.ant), f.sub), _plus(_side_minus(c, "suc", i))

    return _one_premise_logical("negr", "suc", lambda f: isinstance(f, Not), shape)(
        node, lax
    )


def _h_andl(node, lax):
    def shape(c, i, f):
        return _plus(_side_minus(c, "ant", i), f.left, f.right), _cnt(c.suc)

    return _one_premise_logical("andl", "ant", lambda f: isinstance(f, And), shape)(
        node, lax
    )


def _h_orr(node, lax):
    def shape(c, i, f):
        return _cnt(c.ant), _plus(_side_minus(c, "suc", i), f.left, f.right)

    return _one_premise_logical("orr", "suc", lambda f: isinstance(f, Or), shape)(
        node, lax
    )


def _h_impr(node, lax):
    def shape(c, i, f):
        return _plus(_cnt(c.ant), f.left), _plus(_side_minus(c, "suc", i), f.right)

    return _one_premise_logical("impr", "suc", lambda f: isinstance(f, Imp), shape)(
        node, lax
    )


def _two_premise_logical(rule: str, side: str, want, shapes):
    """shapes(c, i, f) -> list of (ant Counter, suc Counter), one per premise."""

    def h(node: ProofNode, lax: bool) -> StepInfo:
        c = node.conclusion
        prems = [(p.conclusion) for p in node.premises]
        actual = [(_cnt(p.ant), _cnt(p.suc)) for p in prems]
        for i, f in _candidates(getattr(c, side), want, node.at):
            expected = shapes(c, i, f)
            if all(
                _cnt_eq(ea, aa) and _cnt_eq(es, asu)
                for (ea, es), (aa, asu) in zip(expected, actual)
            ):
                return StepInfo(rule, principal=(side, i))
        raise RuleError(f"no {rule} principal formula matches the premises")

    return h


def _h_andr(node, lax):
    def shapes(c, i, f):
        base = _side_minus(c, "suc", i)
        return [
            (_cnt(c.ant), _plus(base, f.left)),
            (_cnt(c.ant), _plus(base, f.right)),
        ]

    return _two_premise_logical("andr", "suc", lambda f: isinstance(f, And), shapes)(
        node, lax
    )


def _h_orl(node, lax):
    def shapes(c, i, f):
        base = _side_minus(c, "ant", i)
        return [
            (_plus(base, f.left), _cnt(c.suc)),
            (_plus(base, f.right), _cnt(c.suc)),
        ]

    return _two_premise_logical("orl", "ant", lambda f: isinstance(f, Or), shapes)(
        node, lax
    )


def _h_impl(node, lax):
    def shapes(c, i, f):
        base = _side_minus(c, "ant", i)
        return [
            (base, _plus(_cnt(c.suc), f.left)),
            (_plus(base, f.right), _cnt(c.suc)),
        ]

    return _two_premise_logical("impl", "ant", lambda f: isinstance(f, Imp), shapes)(
        node, lax
    )


def _h_iffl(node, lax):
    def shapes(c, i, f):
        base = _side_minus(c, "ant", i)
        return [
            (base, _plus(_cnt(c.suc), f.left, f.right)),
            (_plus(base, f.left, f.right), _cnt(c.suc)),
        ]

    return _two_premise_logical("iffl", "ant", lambda f: isinstance(f, Iff), shapes)(
        node, lax
    )


def _h_iffr(node, lax):
    def shapes(c, i, f):
        base = _side_minus(c, "suc", i)
        return [
            (_plus(_cnt(c.ant), f.left), _plus(base, f.right)),
            (_plus(_cnt(c.ant), f.right), _plus(base, f.left)),
        ]

    return _two_premise_logical("iffr", "suc", lambda f: isinstance(f, Iff), shapes)(
        node, lax
    )


def _quant_instance(node, rule, side, qtype):
    """Shared logic of foralll/existsr: principal quantifier on `side`,
    premise adds body[x/b] for an inferred or annotated Param/Const b."""
    c = node.conclusion
    p = node.premises[0].conclusion
    pa, ps = _cnt(p.ant), _cnt(p.suc)
    for i, f in _candidates(getattr(c, side), lambda g: isinstance(g, qtype), node.at):
        base = _side_minus(c, side, i)
        if node.terms:
            _require_slot_term(node.terms[0], f"{rule} instantiation term")
            bs: list = [node.terms[0]]
        else:
            prem_side = p.ant if side == "ant" else p.suc
            bs = []
            for chi in _diff_candidates(prem_side, base):
                m = match_subst(f.body, f.bound, chi)
                if m == "any":
                    bs.append(_fresh_param_for(c, p))
                elif m is not None:
                    bs.append(m)
        for b in bs:
            inst = substitute(f.body, f.bound, b)
            if side == "ant":
                ea, es = _plus(base, inst), _cnt(c.suc)
            else:
                ea, es = _cnt(c.ant), _plus(base, inst)
            if _cnt_eq(pa, ea) and _cnt_eq(ps, es):
                return StepInfo(rule, principal=(side, i), terms=(b,))
    raise RuleError(f"no {rule} instance matches the premise")


def _h_foralll(node, lax):
    return _quant_instance(node, "foralll", "ant", Forall)


def _h_existsr(node, lax):
    return _quant_instance(node, "existsr", "suc", Exists)


def _quant_eigen(node, rule, side, qtype, lax):
    c = node.conclusion
    p = node.premises[0].conclusion
    pa, ps = _cnt(p.ant), _cnt(p.suc)
    for i, f in _candidates(getattr(c, side), lambda g: isinstance(g, qtype), node.at):
        base = _side_minus(c, side, i)
        if node.eigen is not None:
            cands: list[Param] = [_require_eigen(node.eigen)]
        else:
            prem_side = p.ant if side == "ant" else p.suc
            cands = []
            for chi in _diff_candidates(prem_side, base):
                m = match_subst(f.body, f.bound, chi)
                if m == "any":
                    cands.append(_fresh_param_for(c, p))
                elif isinstance(m, Param):
                    cands.append(m)
        for a in cands:
            inst = substitute(f.body, f.bound, a)
            if side == "ant":
                ea, es = _plus(base, inst), _cnt(c.suc)
            else:
                ea, es = _cnt(c.ant), _plus(base, inst)
            if _cnt_eq(pa, ea) and _cnt_eq(ps, es):
                _eigen_check(a, rule, c, lax=False)
                return StepInfo(rule, principal=(side, i), eigen=a)
    raise RuleError(f"no {rule} instance matches the premise")


def _h_forallr(node, lax):
    return _quant_eigen(node, "forallr", "suc", Forall, lax)


def _h_existsl(node, lax):
    return _quant_eigen(node, "existsl", "ant", Exists, lax)


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


def _h_eqminus(node, lax):
    c = node.conclusion
    p = node.premises[0].conclusion
    if not _cnt_eq(_cnt(c.suc), _cnt(p.suc)):
        raise RuleError("eqminus must leave the succedent alone")
    pa = _cnt(p.ant)
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
            forms = list(c.ant)
            hi, lo = max(i, j), min(i, j)
            del forms[hi]
            del forms[lo]
            base = _cnt(forms)
            for chi in _diff_candidates(p.ant, base):
                if not _rewrite_compatible(a0, chi, s1, s2):
                    continue
                if _cnt_eq(pa, _plus(base, chi)):
                    return StepInfo(
                        "eqminus",
                        principal=("ant", i),
                        terms=(s1, s2),
                        eq_index=i,
                        atom_index=j,
                    )
    raise RuleError("no identity/atom pair in the antecedent matches the premise")


def _h_eqplus(node, lax):
    c = node.conclusion
    p = node.premises[0].conclusion
    if not _cnt_eq(_cnt(c.suc), _cnt(p.suc)):
        raise RuleError("eqplus must leave the succedent alone")
    k = _single_extra(_cnt(p.ant), _cnt(c.ant))
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


def _lam_term(node, rule, side):
    def want(f):
        return isinstance(f, LambdaAtom) and is_term(f.arg)

    def h(n, lax):
        c = n.conclusion
        p = n.premises[0].conclusion
        pa, ps = _cnt(p.ant), _cnt(p.suc)
        for i, f in _candidates(getattr(c, side), want, n.at):
            _require_slot_term(f.arg, "abstract argument")
            inst = substitute(f.body, f.bound, f.arg)
            base = _side_minus(c, side, i)
            if side == "ant":
                ea, es = _plus(base, inst), _cnt(c.suc)
            else:
                ea, es = _cnt(c.ant), _plus(base, inst)
            if _cnt_eq(pa, ea) and _cnt_eq(ps, es):
                return StepInfo(rule, principal=(side, i), terms=(f.arg,))
        raise RuleError(f"no {rule} abstract matches the premise")

    return h(node, None)


def _h_laml(node, lax):
    return _lam_term(node, "laml", "ant")


def _h_lamr(node, lax):
    return _lam_term(node, "lamr", "suc")


def _is_description_atom(f: Formula) -> bool:
    return isinstance(f, LambdaAtom) and isinstance(f.arg, IotaTerm)


def _h_iota1l(node, lax):
    c = node.conclusion
    p = node.premises[0].conclusion
    pa, ps = _cnt(p.ant), _cnt(p.suc)
    for i, f in _candidates(c.ant, _is_description_atom, node.at):
        if not _cnt_eq(ps, _cnt(c.suc)):
            break
        it = f.arg
        base = _side_minus(c, "ant", i)
        if node.eigen is not None:
            cands: list[Param] = [_require_eigen(node.eigen)]
        else:
            cands = []
            for chi in _diff_candidates(p.ant, base):
                for body, bound in ((it.body, it.bound), (f.body, f.bound)):
                    m = match_subst(body, bound, chi)
                    if isinstance(m, Param) and m not in cands:
                        cands.append(m)
            cands.append(_fresh_param_for(c, p))
        for a in cands:
            phi_a = substitute(it.body, it.bound, a)
            psi_a = substitute(f.body, f.bound, a)
            if _cnt_eq(pa, _plus(base, phi_a, psi_a)):
                ctx = Sequent(
                    c.ant[:i] + c.ant[i + 1 :], c.suc
                )
                _eigen_check(a, "iota1l", c, lax, lax_scope=(ctx, it.body))
                return StepInfo("iota1l", principal=("ant", i), eigen=a)
    raise RuleError("no iota1l instance matches the premise")


def _h_iota2l(node, lax):
    c = node.conclusion
    p1, p2, p3 = (p.conclusion for p in node.premises)
    for i, f in _candidates(c.ant, _is_description_atom, node.at):
        it = f.arg
        base = _side_minus(c, "ant", i)
        suc = _cnt(c.suc)
        if node.terms:
            if len(node.terms) != 2:
                raise RuleError("iota2l needs two instantiation terms")
            pairs = [(node.terms[0], node.terms[1])]
        else:
            pairs = []
            for chi in _diff_candidates(p3.ant, base):
                if isinstance(chi, Identity):
                    pairs.append((chi.lhs, chi.rhs))
        for b1, b2 in pairs:
            if not (
                isinstance(b1, _INSTANCE_TERM) and isinstance(b2, _INSTANCE_TERM)
            ):
                continue
            i1 = substitute(it.body, it.bound, b1)
            i2 = substitute(it.body, it.bound, b2)
            if (
                _cnt_eq(_cnt(p1.ant), base)
                and _cnt_eq(_cnt(p1.suc), _plus(suc, i1))
                and _cnt_eq(_cnt(p2.ant), base)
                and _cnt_eq(_cnt(p2.suc), _plus(suc, i2))
                and _cnt_eq(_cnt(p3.ant), _plus(base, Identity(b1, b2)))
                and _cnt_eq(_cnt(p3.suc), suc)
            ):
                return StepInfo("iota2l", principal=("ant", i), terms=(b1, b2))
    raise RuleError("no iota2l instance matches the premises")


def _h_iotar(node, lax):
    c = node.conclusion
    p1, p2, p3 = (p.conclusion for p in node.premises)
    for i, f in _candidates(c.suc, _is_description_atom, node.at):
        it = f.arg
        base = _side_minus(c, "suc", i)
        ant = _cnt(c.ant)
        # witness candidates
        if node.terms:
            _require_slot_term(node.terms[0], "iotar witness term")
            bs: list = [node.terms[0]]
        else:
            bs = []
            for chi in _diff_candidates(p1.suc, base):
                m = match_subst(it.body, it.bound, chi)
                if m == "any":
                    bs.append(_fresh_param_for(c, p1, p2, p3))
                elif m is not None:
                    bs.append(m)
        for b in bs:
            phi_b = substitute(it.body, it.bound, b)
            psi_b = substitute(f.body, f.bound, b)
            if not (
                _cnt_eq(_cnt(p1.ant), ant)
                and _cnt_eq(_cnt(p1.suc), _plus(base, phi_b))
                and _cnt_eq(_cnt(p2.ant), ant)
                and _cnt_eq(_cnt(p2.suc), _plus(base, psi_b))
            ):
                continue
            # eigen candidates: annotation, the extra antecedent formula of
            # the third premise, the identity a=b in its succedent, or fresh
            if node.eigen is not None:
                eigens: list[Param] = [_require_eigen(node.eigen)]
            else:
                eigens = []
                for chi in _diff_candidates(p3.ant, ant):
                    m = match_subst(it.body, it.bound, chi)
                    if isinstance(m, Param) and m not in eigens:
                        eigens.append(m)
                for chi in _diff_candidates(p3.suc, base):
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
                if _cnt_eq(_cnt(p3.ant), _plus(ant, phi_a)) and _cnt_eq(
                    _cnt(p3.suc), _plus(base, Identity(a, b))
                ):
                    ctx = Sequent(c.ant, c.suc[:i] + c.suc[i + 1 :])
                    _eigen_check(
                        a, "iotar", c, lax, lax_scope=(ctx, it.body), witness=b
                    )
                    return StepInfo(
                        "iotar", principal=("suc", i), terms=(b,), eigen=a
                    )
    raise RuleError("no iotar instance matches the premises")


_HANDLERS: dict[str, Callable[[ProofNode, bool], StepInfo]] = {
    "ax": _h_ax,
    "cut": _h_cut,
    "wl": _h_weaken("ant"),
    "wr": _h_weaken("suc"),
    "cl": _h_contract("ant"),
    "cr": _h_contract("suc"),
    "negl": _h_negl,
    "negr": _h_negr,
    "andl": _h_andl,
    "andr": _h_andr,
    "orl": _h_orl,
    "orr": _h_orr,
    "impl": _h_impl,
    "impr": _h_impr,
    "iffl": _h_iffl,
    "iffr": _h_iffr,
    "foralll": _h_foralll,
    "forallr": _h_forallr,
    "existsl": _h_existsl,
    "existsr": _h_existsr,
    "eqminus": _h_eqminus,
    "eqplus": _h_eqplus,
    "laml": _h_laml,
    "lamr": _h_lamr,
    "iota1l": _h_iota1l,
    "iota2l": _h_iota2l,
    "iotar": _h_iotar,
}


# ---------------------------------------------------------------------------
# whole-proof checking


def check_proof(root: ProofNode, *, lax_iota_eigen: bool = False) -> Proof:
    """Check every node (premises before conclusions, left to right, so the
    leftmost-innermost failure is the one reported). Returns the checked
    Proof with cached height, parameter set and cut degrees."""
    arities: dict[str, int] = {}
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
            validate_sequent(node.conclusion, arities, path)
        except IllFormed as e:
            raise CheckError(path, e.reason) from None
        try:
            info = analyze_step(node, lax_iota_eigen=lax_iota_eigen)
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
        params=root.params,
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
    callers guarantee `new` is globally fresh for the subtree)."""
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
    something globally fresh inside their own subtree, so the result of
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
