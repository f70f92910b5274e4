"""Bounded backward proof search with countermodel extraction.

The searcher applies rules backward from the goal, cut-free. Loss-free
rules (propositional decompositions, the lambda conversions, and the
eigenparameter rules) are committed in a fixed order, with premises built
from the kernel's rule tables, so each schema is stated once; everything that
requires a choice (which term to instantiate with, which description
rule to fire) is explored as alternatives in keeping form: the principal
formula is contracted first so the original copy survives, bounded by a
per-formula contraction budget. Branches refuted by a small countermodel
are pruned early, and every proof found is re-checked by the kernel
before being reported.

First-order logic with identity is undecidable, so all three outcomes
are possible: Proved, Refuted, or Unknown when the budget runs out.
"""

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

from .syntax import (
    Const,
    Formula,
    Identity,
    IotaTerm,
    LambdaAtom,
    Param,
    ParamSupply,
    PredAtom,
    Sequent,
    Term,
    alpha_key,
    params_in,
    sequent_key,
    substitute,
)
from .kernel import (
    LAMBDA_RULES,
    PROPOSITIONAL_RULES,
    QUANTIFIER_RULES,
    Proof,
    ProofNode,
    check_proof,
)
from .builders import ax, flip_identity, paraphrase, weaken_to
from .semantics import (
    EnumerationCapError,
    Model,
    find_countermodel,
    signature_of,
)


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 20
    term_pool_cap: int = 4
    contraction_cap: int = 2
    model_cap: int = 3


DEFAULT_BUDGET = SearchBudget()

# hard ceiling on sequent expansions per search, a guard against
# pathological branching that the declared caps do not catch
NODE_CAP = 50_000

# interpretation budget for the per-branch refutation probe
QUICK_REFUTE_CAP = 20_000

# interpretation budget for the up-front refutation pass; kept well below
# the semantic default so a heavy signature degrades to "signature-cap"
# in bounded time instead of stalling the search
PROVE_ENUM_CAP = 100_000


@dataclass(frozen=True)
class Proved:
    proof: Proof


@dataclass(frozen=True)
class Refuted:
    model: Model
    assignment: dict


@dataclass(frozen=True)
class Unknown:
    reason: str  # "budget-exhausted" or "signature-cap"


Verdict = Union[Proved, Refuted, Unknown]


# ---------------------------------------------------------------------------
# search state


class _State:
    def __init__(self, goal: Sequent, budget: SearchBudget):
        self.budget = budget
        self.supply = ParamSupply(params_in(goal))
        self.refute_memo: dict[str, bool] = {}
        self.expansions = 0
        self.quick_size = min(2, budget.model_cap)


@dataclass
class _Move:
    children: tuple[Sequent, ...]
    build: Callable[[list[ProofNode]], ProofNode]
    uses: dict = field(default_factory=dict)
    prio: int = 0  # prior applications of this move's key on the branch


def _remove_at(forms: tuple, i: int) -> tuple:
    return forms[:i] + forms[i + 1 :]


def _quick_refuted(g: Sequent, st: _State) -> bool:
    key = sequent_key(g)
    hit = st.refute_memo.get(key)
    if hit is None:
        try:
            hit = (
                find_countermodel(g, max_size=st.quick_size, cap=QUICK_REFUTE_CAP)
                is not None
            )
        except EnumerationCapError:
            hit = False
        st.refute_memo[key] = hit
    return hit


# ---------------------------------------------------------------------------
# closures


def _try_close(g: Sequent) -> Optional[ProofNode]:
    suc_keys = {alpha_key(f) for f in g.suc}
    for f in g.ant:
        if alpha_key(f) in suc_keys:
            return weaken_to(ax(f), g)
    for f in g.suc:
        if isinstance(f, Identity) and f.lhs == f.rhs:
            base = weaken_to(ax(f), Sequent((f,) + g.ant, g.suc))
            return ProofNode("eqplus", g, (base,))
    return None


# ---------------------------------------------------------------------------
# invertible moves (committed)


def _premises(g: Sequent, side: str, i: int, actives) -> tuple[Sequent, ...]:
    """The premises of a rule whose principal formula is g's `side`
    formula i: that formula removed, then for each (antecedent, succedent)
    pair in `actives` one premise with the antecedent formulas in front and
    the succedent formulas behind."""
    ant, suc = g.ant, g.suc
    if side == "ant":
        ant = _remove_at(ant, i)
    else:
        suc = _remove_at(suc, i)
    return tuple(Sequent(a + ant, suc + s) for a, s in actives)


def _alone(side: str, f: Formula) -> tuple[tuple, tuple]:
    """The (antecedent, succedent) pair holding f alone, on `side`."""
    return ((f,), ()) if side == "ant" else ((), (f,))


# the kernel's one-principal rules: name -> (side, principal class, ...)
_SCHEMAS = {**PROPOSITIONAL_RULES, **QUANTIFIER_RULES, **LAMBDA_RULES}


def _by_class(*rules: str) -> tuple[str, dict]:
    """A group of rules on one side: that side, and a map from principal
    class to rule."""
    (side,) = {_SCHEMAS[rule][0] for rule in rules}
    return side, {_SCHEMAS[rule][1]: rule for rule in rules}


# the loss-free rules in the order they are committed: single-premise
# rules, then two-premise ones, then the eigenparameter rules
_INVERTIBLE = (
    _by_class("negl", "andl", "laml"),
    _by_class("negr", "orr", "impr", "lamr"),
    _by_class("orl", "impl", "iffl"),
    _by_class("andr", "iffr"),
    _by_class("forallr"),
    _by_class("existsl"),
)


def _invertible(g: Sequent, st: _State) -> Optional[_Move]:
    """The first group with a principal formula applies, to its leftmost."""
    for side, rules in _INVERTIBLE:
        for i, f in enumerate(g.ant if side == "ant" else g.suc):
            rule = rules.get(type(f))
            if rule is None:
                continue
            e = None
            if rule in PROPOSITIONAL_RULES:
                actives = PROPOSITIONAL_RULES[rule][2](f)
            elif rule in LAMBDA_RULES:
                if isinstance(f.arg, IotaTerm):
                    continue  # an abstract of a description is a choice
                actives = [_alone(side, substitute(f.body, f.bound, f.arg))]
            else:  # forallr, existsl
                e = st.supply.fresh()
                actives = [_alone(side, substitute(f.body, f.bound, e))]

            def build(subs, g=g, rule=rule, e=e):
                return ProofNode(rule, g, tuple(subs), eigen=e)

            return _Move(_premises(g, side, i, actives), build)
    return None


# ---------------------------------------------------------------------------
# choice moves (tried as alternatives, in keeping form)


def _spend(uses: dict, key) -> dict:
    out = dict(uses)
    out[key] = out.get(key, 0) + 1
    return out


def _term_pool(g: Sequent) -> list[Term]:
    sig = signature_of(*g.ant, *g.suc)
    pool: list[Term] = [Param(n) for n in sorted(sig.params)]
    pool += [Const(n) for n in sorted(sig.consts)]
    return pool


def _rewrite_variants(atom: Formula, src: Term, dst: Term) -> Iterator[Formula]:
    """Every distinct result of replacing a nonempty subset of the src
    occurrences in an atom by dst, the all-positions rewrite first."""
    if isinstance(atom, PredAtom):
        slots = list(atom.args)
        rebuild = lambda xs: PredAtom(atom.pred, tuple(xs))
    elif isinstance(atom, Identity):
        slots = [atom.lhs, atom.rhs]
        rebuild = lambda xs: Identity(xs[0], xs[1])
    else:
        return
    idxs = [i for i, t in enumerate(slots) if t == src]
    if not idxs:
        return
    full = (1 << len(idxs)) - 1
    seen = set()
    for mask in (full, *range(1, full)):
        xs = list(slots)
        for b, i in enumerate(idxs):
            if mask >> b & 1:
                xs[i] = dst
        new = rebuild(xs)
        if new != atom and new not in seen:
            seen.add(new)
            yield new


def _eqminus_moves(g: Sequent, uses: dict, st: _State) -> Iterator[_Move]:
    cap = st.budget.contraction_cap
    for i, eq in enumerate(g.ant):
        if not isinstance(eq, Identity) or eq.lhs == eq.rhs:
            continue
        for src, dst, flipped in (
            (eq.lhs, eq.rhs, False),
            (eq.rhs, eq.lhs, True),
        ):
            for j, atom in enumerate(g.ant):
                if not isinstance(atom, (PredAtom, Identity)):
                    continue
                key = ("eqminus", alpha_key(eq), alpha_key(atom))
                if uses.get(key, 0) >= cap:
                    continue
                for new in _rewrite_variants(atom, src, dst):
                    child = Sequent((new,) + _remove_at(g.ant, j), g.suc)

                    def build(subs, g=g, eq=eq, flipped=flipped, src=src, dst=dst):
                        concl_eq = Identity(src, dst) if flipped else eq
                        n1 = ProofNode(
                            "eqminus",
                            Sequent((concl_eq,) + g.ant, g.suc),
                            tuple(subs),
                        )
                        if flipped:
                            n1 = flip_identity(n1, concl_eq)
                        return ProofNode("cl", g, (n1,))

                    yield _Move((child,), build, _spend(uses, key), uses.get(key, 0))


def _choice_moves(g: Sequent, uses: dict, st: _State) -> list[_Move]:
    cap = st.budget.contraction_cap
    moves: list[_Move] = []

    # description in the antecedent: the no-witness rule first
    for i, f in enumerate(g.ant):
        if isinstance(f, LambdaAtom) and isinstance(f.arg, IotaTerm):
            key = ("iota1l", alpha_key(f))
            if uses.get(key, 0) >= cap:
                continue
            e = st.supply.fresh()
            phi_e = substitute(f.arg.body, f.arg.bound, e)
            psi_e = substitute(f.body, f.bound, e)
            child = Sequent((phi_e, psi_e) + g.ant, g.suc)

            def build(subs, g=g, f=f, e=e):
                n1 = ProofNode(
                    "iota1l", Sequent((f,) + g.ant, g.suc), tuple(subs), eigen=e
                )
                return ProofNode("cl", g, (n1,))

            moves.append(_Move((child,), build, _spend(uses, key), uses.get(key, 0)))

    # the equality rewrites
    moves.extend(_eqminus_moves(g, uses, st))

    pool = _term_pool(g)
    fresh_key = ("fresh-params",)
    minted: Optional[Param] = None
    if uses.get(fresh_key, 0) < st.budget.term_pool_cap:
        minted = st.supply.fresh()

    def instantiation_pool():
        for t in pool:
            yield t, uses
        if minted is not None:
            yield minted, _spend(uses, fresh_key)

    # universal instantiation on the left, existential witness on the right
    for rule, (side, kind, eigen) in QUANTIFIER_RULES.items():
        if eigen:
            continue
        for f in g.ant if side == "ant" else g.suc:
            if type(f) is not kind:
                continue
            key = (rule, alpha_key(f))
            if uses.get(key, 0) >= cap:
                continue
            for t, base_uses in instantiation_pool():
                a, s = _alone(side, substitute(f.body, f.bound, t))
                child = Sequent(a + g.ant, g.suc + s)

                def build(subs, g=g, f=f, t=t, rule=rule, side=side):
                    a, s = _alone(side, f)
                    kept = Sequent(a + g.ant, g.suc + s)
                    n1 = ProofNode(rule, kept, tuple(subs), terms=(t,))
                    return ProofNode("cl" if side == "ant" else "cr", g, (n1,))

                moves.append(_Move((child,), build, _spend(base_uses, key), uses.get(key, 0)))

    # description on the right, then the uniqueness rule: most premises last
    for i, f in enumerate(g.suc):
        if not (isinstance(f, LambdaAtom) and isinstance(f.arg, IotaTerm)):
            continue
        key = ("iotar", alpha_key(f))
        if uses.get(key, 0) >= cap:
            continue
        for t, base_uses in instantiation_pool():
            e = st.supply.fresh()
            phi_t = substitute(f.arg.body, f.arg.bound, t)
            psi_t = substitute(f.body, f.bound, t)
            phi_e = substitute(f.arg.body, f.arg.bound, e)
            children = (
                Sequent(g.ant, g.suc + (phi_t,)),
                Sequent(g.ant, g.suc + (psi_t,)),
                Sequent((phi_e,) + g.ant, g.suc + (Identity(e, t),)),
            )

            def build(subs, g=g, f=f, t=t, e=e):
                n1 = ProofNode(
                    "iotar",
                    Sequent(g.ant, g.suc + (f,)),
                    tuple(subs),
                    terms=(t,),
                    eigen=e,
                )
                return ProofNode("cr", g, (n1,))

            moves.append(_Move(children, build, _spend(base_uses, key), uses.get(key, 0)))

    for i, f in enumerate(g.ant):
        if not (isinstance(f, LambdaAtom) and isinstance(f.arg, IotaTerm)):
            continue
        key = ("iota2l", alpha_key(f))
        if uses.get(key, 0) >= cap:
            continue
        candidates = pool if minted is None else pool + [minted]
        for b1 in candidates:
            for b2 in candidates:
                if b1 == b2:
                    continue
                base_uses = uses
                if minted is not None and (b1 == minted or b2 == minted):
                    base_uses = _spend(uses, fresh_key)
                phi_1 = substitute(f.arg.body, f.arg.bound, b1)
                phi_2 = substitute(f.arg.body, f.arg.bound, b2)
                children = (
                    Sequent(g.ant, g.suc + (phi_1,)),
                    Sequent(g.ant, g.suc + (phi_2,)),
                    Sequent((Identity(b1, b2),) + g.ant, g.suc),
                )

                def build(subs, g=g, f=f, b1=b1, b2=b2):
                    n1 = ProofNode(
                        "iota2l",
                        Sequent((f,) + g.ant, g.suc),
                        tuple(subs),
                        terms=(b1, b2),
                    )
                    return ProofNode("cl", g, (n1,))

                moves.append(_Move(children, build, _spend(base_uses, key), uses.get(key, 0)))

    # introduce a reflexive identity as rewrite fodder, the most
    # speculative move, and only worthwhile next to a real equation
    if any(isinstance(f, Identity) and f.lhs != f.rhs for f in g.ant):
        for t in pool:
            refl = Identity(t, t)
            key = ("eqplus", alpha_key(refl))
            if uses.get(key, 0) >= cap:
                continue
            child = Sequent((refl,) + g.ant, g.suc)

            def build(subs, g=g):
                return ProofNode("eqplus", g, tuple(subs))

            moves.append(_Move((child,), build, _spend(uses, key), uses.get(key, 0)))

    # fresh families before repeat applications; the sort is stable, so
    # ties keep the rule order above
    moves.sort(key=lambda m: m.prio)
    return moves


# ---------------------------------------------------------------------------
# the search proper


def _search(
    g: Sequent, depth: int, seen: frozenset, uses: dict, st: _State
) -> Optional[ProofNode]:
    st.expansions += 1
    if st.expansions > NODE_CAP:
        return None
    closed = _try_close(g)
    if closed is not None:
        return closed
    if depth <= 0:
        return None
    if _quick_refuted(g, st):
        return None

    mv = _invertible(g, st)
    if mv is not None:
        subs = []
        for child in mv.children:
            key = sequent_key(child)
            if key in seen:
                return None
            sub = _search(child, depth - 1, seen | {key}, uses, st)
            if sub is None:
                return None
            subs.append(sub)
        return mv.build(subs)

    for mv in _choice_moves(g, uses, st):
        subs = []
        ok = True
        for child in mv.children:
            key = sequent_key(child)
            if key in seen:
                ok = False
                break
            sub = _search(child, depth - 1, seen | {key}, mv.uses, st)
            if sub is None:
                ok = False
                break
            subs.append(sub)
        if ok:
            return mv.build(subs)
    return None


def _run_search(goal: Sequent, budget: SearchBudget):
    # iterative deepening: blind alleys stay shallow on early passes, and
    # the refutation memo carries over, so re-searching cheap levels is
    # a small fraction of the final pass
    st = _State(goal, budget)
    root_key = frozenset({sequent_key(goal)})
    for depth in range(0, budget.max_depth + 1):
        found = _search(goal, depth, root_key, {}, st)
        if found is not None:
            return found
        if st.expansions > NODE_CAP:
            return None
    return None


def prove(goal: Sequent, budget: Optional[SearchBudget] = None) -> Verdict:
    """Search for a proof or a countermodel of the goal sequent.

    A Proved verdict always carries a kernel-checked proof; a Refuted
    verdict carries a model and assignment that falsify the goal. The
    verdict, and the proof or model it carries, depend on the goal and
    the budget only.
    """
    budget = budget or DEFAULT_BUDGET
    capped = False
    cm = None
    try:
        cm = find_countermodel(goal, max_size=budget.model_cap, cap=PROVE_ENUM_CAP)
    except EnumerationCapError:
        capped = True
    if cm is not None:
        return Refuted(cm.model, cm.assignment)

    root = _run_search(goal, budget)
    if root is not None:
        return Proved(check_proof(root))
    return Unknown("signature-cap" if capped else "budget-exhausted")


# ---------------------------------------------------------------------------
# the description-paraphrase regression suite


@dataclass(frozen=True)
class SuiteResult:
    psi: Formula
    phi: Formula
    direction: str  # "unfold" (description proves paraphrase) or "fold"
    verdict: Verdict


def rlambda_goals(psi: Formula, phi: Formula) -> tuple[Sequent, Sequent]:
    """The two implication sequents relating (lam x. psi)(iota y. phi) to
    its quantified paraphrase."""
    dd = LambdaAtom("x", psi, IotaTerm("y", phi))
    ex = paraphrase(dd)
    return Sequent((dd,), (ex,)), Sequent((ex,), (dd,))


def decide_rlambda_suite(
    pairs, budget: Optional[SearchBudget] = None
) -> list[SuiteResult]:
    """Run prove over both paraphrase directions for each (psi, phi) pair."""
    budget = budget or DEFAULT_BUDGET
    return [
        SuiteResult(psi, phi, direction, prove(goal, budget))
        for psi, phi in pairs
        for direction, goal in zip(("unfold", "fold"), rlambda_goals(psi, phi))
    ]
