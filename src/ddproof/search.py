"""Bounded backward proof search with countermodel extraction.

The searcher applies rules backward from the goal, cut-free. Loss-free
rules (propositional decompositions, the lambda conversions, and the
eigenparameter rules) are committed in a fixed order; everything that
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
    And,
    Const,
    Exists,
    Forall,
    Formula,
    Identity,
    Iff,
    Imp,
    IotaTerm,
    LambdaAtom,
    Not,
    Or,
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
from .kernel import Proof, ProofNode, check_proof
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


def _invertible(g: Sequent, st: _State) -> Optional[_Move]:
    # single-premise propositional and lambda conversions
    for i, f in enumerate(g.ant):
        rest = _remove_at(g.ant, i)
        if isinstance(f, Not):
            return _Move(
                (Sequent(rest, g.suc + (f.sub,)),),
                lambda subs, g=g: ProofNode("negl", g, tuple(subs)),
            )
        if isinstance(f, And):
            return _Move(
                (Sequent((f.left, f.right) + rest, g.suc),),
                lambda subs, g=g: ProofNode("andl", g, tuple(subs)),
            )
        if isinstance(f, LambdaAtom) and not isinstance(f.arg, IotaTerm):
            inst = substitute(f.body, f.bound, f.arg)
            return _Move(
                (Sequent((inst,) + rest, g.suc),),
                lambda subs, g=g: ProofNode("laml", g, tuple(subs)),
            )
    for i, f in enumerate(g.suc):
        rest = _remove_at(g.suc, i)
        if isinstance(f, Not):
            return _Move(
                (Sequent((f.sub,) + g.ant, rest),),
                lambda subs, g=g: ProofNode("negr", g, tuple(subs)),
            )
        if isinstance(f, Or):
            return _Move(
                (Sequent(g.ant, rest + (f.left, f.right)),),
                lambda subs, g=g: ProofNode("orr", g, tuple(subs)),
            )
        if isinstance(f, Imp):
            return _Move(
                (Sequent((f.left,) + g.ant, rest + (f.right,)),),
                lambda subs, g=g: ProofNode("impr", g, tuple(subs)),
            )
        if isinstance(f, LambdaAtom) and not isinstance(f.arg, IotaTerm):
            inst = substitute(f.body, f.bound, f.arg)
            return _Move(
                (Sequent(g.ant, rest + (inst,)),),
                lambda subs, g=g: ProofNode("lamr", g, tuple(subs)),
            )
    # two-premise propositional (still loss-free)
    for i, f in enumerate(g.ant):
        rest = _remove_at(g.ant, i)
        if isinstance(f, Or):
            return _Move(
                (
                    Sequent((f.left,) + rest, g.suc),
                    Sequent((f.right,) + rest, g.suc),
                ),
                lambda subs, g=g: ProofNode("orl", g, tuple(subs)),
            )
        if isinstance(f, Imp):
            return _Move(
                (
                    Sequent(rest, g.suc + (f.left,)),
                    Sequent((f.right,) + rest, g.suc),
                ),
                lambda subs, g=g: ProofNode("impl", g, tuple(subs)),
            )
        if isinstance(f, Iff):
            return _Move(
                (
                    Sequent(rest, g.suc + (f.left, f.right)),
                    Sequent((f.left, f.right) + rest, g.suc),
                ),
                lambda subs, g=g: ProofNode("iffl", g, tuple(subs)),
            )
    for i, f in enumerate(g.suc):
        rest = _remove_at(g.suc, i)
        if isinstance(f, And):
            return _Move(
                (
                    Sequent(g.ant, rest + (f.left,)),
                    Sequent(g.ant, rest + (f.right,)),
                ),
                lambda subs, g=g: ProofNode("andr", g, tuple(subs)),
            )
        if isinstance(f, Iff):
            return _Move(
                (
                    Sequent((f.left,) + g.ant, rest + (f.right,)),
                    Sequent((f.right,) + g.ant, rest + (f.left,)),
                ),
                lambda subs, g=g: ProofNode("iffr", g, tuple(subs)),
            )
    # eigenparameter rules
    for i, f in enumerate(g.suc):
        if isinstance(f, Forall):
            e = st.supply.fresh()
            inst = substitute(f.body, f.bound, e)
            return _Move(
                (Sequent(g.ant, _remove_at(g.suc, i) + (inst,)),),
                lambda subs, g=g, e=e: ProofNode("forallr", g, tuple(subs), eigen=e),
            )
    for i, f in enumerate(g.ant):
        if isinstance(f, Exists):
            e = st.supply.fresh()
            inst = substitute(f.body, f.bound, e)
            return _Move(
                (Sequent((inst,) + _remove_at(g.ant, i), g.suc),),
                lambda subs, g=g, e=e: ProofNode("existsl", g, tuple(subs), eigen=e),
            )
    return None


# ---------------------------------------------------------------------------
# choice moves (tried as alternatives, in keeping form)


def _spend(uses: dict, key) -> dict:
    out = dict(uses)
    out[key] = out.get(key, 0) + 1
    return out


def _term_pool(g: Sequent, uses: dict, st: _State) -> list[Term]:
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

    pool = _term_pool(g, uses, st)
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
    for i, f in enumerate(g.ant):
        if not isinstance(f, Forall):
            continue
        key = ("foralll", alpha_key(f))
        if uses.get(key, 0) >= cap:
            continue
        for t, base_uses in instantiation_pool():
            inst = substitute(f.body, f.bound, t)
            child = Sequent((inst,) + g.ant, g.suc)

            def build(subs, g=g, f=f, t=t):
                n1 = ProofNode(
                    "foralll", Sequent((f,) + g.ant, g.suc), tuple(subs), terms=(t,)
                )
                return ProofNode("cl", g, (n1,))

            moves.append(_Move((child,), build, _spend(base_uses, key), uses.get(key, 0)))

    for i, f in enumerate(g.suc):
        if not isinstance(f, Exists):
            continue
        key = ("existsr", alpha_key(f))
        if uses.get(key, 0) >= cap:
            continue
        for t, base_uses in instantiation_pool():
            inst = substitute(f.body, f.bound, t)
            child = Sequent(g.ant, g.suc + (inst,))

            def build(subs, g=g, f=f, t=t):
                n1 = ProofNode(
                    "existsr", Sequent(g.ant, g.suc + (f,)), tuple(subs), terms=(t,)
                )
                return ProofNode("cr", g, (n1,))

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
    pairs, budget: Optional[SearchBudget] = None, jobs: int = 1
) -> list[SuiteResult]:
    """Run prove over both paraphrase directions for each (psi, phi) pair."""
    budget = budget or DEFAULT_BUDGET
    tasks = []
    for psi, phi in pairs:
        unfold, fold = rlambda_goals(psi, phi)
        tasks.append((psi, phi, "unfold", unfold))
        tasks.append((psi, phi, "fold", fold))

    if jobs > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=jobs) as ex:
            verdicts = list(
                ex.map(prove, [goal for *_ , goal in tasks], [budget] * len(tasks))
            )
    else:
        verdicts = [prove(goal, budget) for *_, goal in tasks]

    return [
        SuiteResult(psi, phi, direction, verdict)
        for (psi, phi, direction, _), verdict in zip(tasks, verdicts)
    ]
