"""Bounded backward proof search with countermodel extraction.

The searcher applies rules backward from the goal, cut-free. Every move's
premises, the test for its principal formula and the slots of its instance
come from the kernel's rule table `RULES`, so each schema is stated once: a
choice move fills each term slot from the goal's term pool and a fresh
parameter, and an eigenparameter slot with a fresh one. Loss-free rules
(propositional decompositions, the lambda conversions, and the
eigenparameter rules) are committed in a fixed order; everything that
requires a choice (which term to instantiate with, which description
rule to fire, which equality rewrite) is explored as alternatives in
keeping form: the principal formula is contracted first so the original
copy survives, bounded by a per-formula contraction budget. Branches
refuted by a small countermodel are pruned early.

A move is data: its rule, conclusion, annotations and the step that fits
it onto the goal. The search returns the plan that won, its moves and
their sub-plans, and the proof is built from it once; the kernel
re-checks that proof before it is reported.

First-order logic with identity is undecidable, so all three outcomes
are possible: Proved, Refuted, or Unknown when the budget runs out.
"""

from itertools import permutations
from typing import Iterator, Optional, Sequence, Union

from .syntax import (
    Const,
    Formula,
    Identity,
    IotaTerm,
    LambdaAtom,
    Param,
    ParamSupply,
    Sequent,
    Term,
    alpha_key,
    params_in,
    record,
    sequent_key,
)
from .kernel import RULES, Proof, ProofNode, check_proof, rewrite_variants
from .builders import flip_identity, paraphrase, weaken_to
from .semantics import (
    EnumerationCapError,
    Model,
    find_countermodel,
    signature_of,
)


@record(frozen=True)
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


@record(frozen=True)
class Proved:
    proof: Proof


@record(frozen=True)
class Refuted:
    model: Model
    assignment: dict


@record(frozen=True)
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


@record
class _Move:
    """One backward rule application, as data: a node `rule` concluding
    `conclusion` from `children`, annotated with `terms` and `eigen`. When
    `goal` is set the node is fitted onto it by `wrap`: "weaken" for a
    closing axiom, or the contraction ("cl" or "cr") of a move tried in
    keeping form, after eqminus's identity is flipped back when `flip` is
    set."""

    rule: str
    conclusion: Sequent
    children: tuple[Sequent, ...] = ()
    terms: tuple[Term, ...] = ()
    eigen: Optional[Param] = None
    goal: Optional[Sequent] = None
    wrap: Optional[str] = None
    flip: Optional[Identity] = None
    uses: dict = {}  # a new dict for each move
    prio: int = 0  # prior applications of this move's key on the branch


# a plan is the move that won at a sequent and the plans of its children;
# the proof is built from it once, when the search has succeeded
Plan = tuple[_Move, tuple]


def _node(mv: _Move, subs) -> ProofNode:
    """The proof of one move from its children's proofs."""
    node = ProofNode(mv.rule, mv.conclusion, tuple(subs), mv.terms, mv.eigen)
    if mv.flip is not None:
        node = flip_identity(node, mv.flip)
    if mv.wrap == "weaken":
        return weaken_to(node, mv.goal)
    if mv.wrap is not None:
        return ProofNode(mv.wrap, mv.goal, (node,))
    return node


def _build(plan: Plan) -> ProofNode:
    mv, subs = plan
    return _node(mv, [_build(sub) for sub in subs])


def _remove_at(forms: tuple, i: int) -> tuple:
    return forms[:i] + forms[i + 1 :]


def _premises(ant: tuple, suc: tuple, actives) -> tuple[Sequent, ...]:
    """One premise per (antecedent, succedent) pair in `actives`: the
    antecedent formulas in front of `ant`, the succedent ones behind `suc`."""
    return tuple(Sequent(a + ant, suc + s) for a, s in actives)


def _with(g: Sequent, side: str, f: Formula) -> Sequent:
    """g with f added on `side`, where `_premises` puts actives."""
    return Sequent((f,) + g.ant, g.suc) if side == "ant" else Sequent(g.ant, g.suc + (f,))


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


def _eqplus(g: Sequent, refl: Identity) -> _Move:
    """eqplus discharging the reflexive identity refl from g."""
    return _Move("eqplus", g, _premises(g.ant, g.suc, RULES["eqplus"].actives(refl)))


def _closing(f: Formula, g: Sequent) -> Plan:
    """The axiom on f, weakened onto g."""
    return _Move("ax", Sequent((f,), (f,)), goal=g, wrap="weaken"), ()


def _try_close(g: Sequent) -> Optional[Plan]:
    suc_keys = {alpha_key(f) for f in g.suc}
    for f in g.ant:
        if alpha_key(f) in suc_keys:
            return _closing(f, g)
    for f in g.suc:
        if RULES["eqplus"].principal(f):
            mv = _eqplus(g, f)
            return mv, (_closing(f, mv.children[0]),)
    return None


# ---------------------------------------------------------------------------
# invertible moves (committed)


def _by_class(*rules: str) -> tuple[str, dict]:
    """A group of rules on one side: that side, and a map from principal
    class to rule."""
    (side,) = {RULES[rule].side for rule in rules}
    return side, {RULES[rule].kind: rule for rule in rules}


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
    """The first group with a principal formula applies, to its leftmost;
    an abstract of a description is left to the choice moves."""
    for side, rules in _INVERTIBLE:
        for i, f in enumerate(g.ant if side == "ant" else g.suc):
            rule = rules.get(type(f))
            if rule is None or not RULES[rule].principal(f):
                continue
            inst = (st.supply.fresh(),) if RULES[rule].eigen else ()
            if side == "ant":
                rest = (_remove_at(g.ant, i), g.suc)
            else:
                rest = (g.ant, _remove_at(g.suc, i))
            children = _premises(*rest, RULES[rule].actives(f, *inst))
            return _Move(rule, g, children, eigen=inst[0] if inst else None)
    return None


# ---------------------------------------------------------------------------
# choice moves (tried as alternatives, in keeping form)


def _spend(uses: dict, key) -> dict:
    out = dict(uses)
    out[key] = out.get(key, 0) + 1
    return out


def _kept(g: Sequent, rule: str, f: Formula, inst: tuple, uses: dict, prio: int) -> _Move:
    """`rule` on f in keeping form: its node concludes g with a second copy
    of f, which a contraction merges, so its premises are g plus the rule's
    actives for f at `inst`, the terms and then the eigenparameter."""
    schema = RULES[rule]
    terms, eigen = (inst[:-1], inst[-1]) if schema.eigen else (inst, None)
    return _Move(
        rule,
        _with(g, schema.side, f),
        _premises(g.ant, g.suc, schema.actives(f, *inst)),
        terms,
        eigen,
        goal=g,
        wrap="cl" if schema.side == "ant" else "cr",
        uses=uses,
        prio=prio,
    )


def _term_pool(g: Sequent) -> list[Term]:
    sig = signature_of(*g.ant, *g.suc)
    pool: list[Term] = [Param(n) for n in sorted(sig.params)]
    pool += [Const(n) for n in sorted(sig.consts)]
    return pool


def _eqminus_moves(g: Sequent, uses: dict, st: _State) -> Iterator[_Move]:
    """eqminus on each identity, either way round, and each atom beside it:
    the identity the node consumes is oriented src=dst and flipped back to
    g's orientation before the contraction."""
    cap = st.budget.contraction_cap
    schema = RULES["eqminus"]
    for i, eq in enumerate(g.ant):
        if not schema.principal(eq) or eq.lhs == eq.rhs:
            continue
        for src, dst, flipped in (
            (eq.lhs, eq.rhs, False),
            (eq.rhs, eq.lhs, True),
        ):
            used = Identity(src, dst) if flipped else eq
            for j, atom in enumerate(g.ant):
                key = ("eqminus", alpha_key(eq), alpha_key(atom))
                if uses.get(key, 0) >= cap:
                    continue
                for new in rewrite_variants(atom, src, dst):
                    yield _Move(
                        "eqminus",
                        _with(g, "ant", used),
                        _premises(_remove_at(g.ant, j), g.suc, schema.actives(used, new)),
                        goal=g,
                        wrap="cl",
                        flip=used if flipped else None,
                        uses=_spend(uses, key),
                        prio=uses.get(key, 0),
                    )


def _choice_moves(g: Sequent, uses: dict, st: _State) -> list[_Move]:
    cap = st.budget.contraction_cap
    moves: list[_Move] = []
    fresh_key = ("fresh-params",)

    def slot_moves(rule: str, pool: Sequence[Term] = (), minted: Optional[Param] = None) -> None:
        """`rule` in keeping form on each principal formula of g under its
        contraction cap, at each tuple of different terms from the pool and
        the minted parameter (which spends a fresh-params use), then a fresh
        eigenparameter if the rule takes one."""
        schema = RULES[rule]
        terms = pool if minted is None else [*pool, minted]
        for f in g.ant if schema.side == "ant" else g.suc:
            if not schema.principal(f):
                continue
            key = (rule, alpha_key(f))
            if uses.get(key, 0) >= cap:
                continue
            # the terms are all different, so these are the tuples of
            # different terms, in the order of their product
            for ts in permutations(terms, schema.terms):
                base = _spend(uses, fresh_key) if minted in ts else uses
                inst = ts + (st.supply.fresh(),) if schema.eigen else ts
                moves.append(_kept(g, rule, f, inst, _spend(base, key), uses.get(key, 0)))

    # description in the antecedent: the no-witness rule first
    slot_moves("iota1l")

    # the equality rewrites
    moves.extend(_eqminus_moves(g, uses, st))

    # universal instantiation on the left, existential witness on the right,
    # then description on the right and the uniqueness rule: most premises
    # last
    pool = _term_pool(g)
    minted = None
    if uses.get(fresh_key, 0) < st.budget.term_pool_cap:
        minted = st.supply.fresh()
    for rule in ("foralll", "existsr", "iotar", "iota2l"):
        slot_moves(rule, pool, minted)

    # introduce a reflexive identity as rewrite fodder, the most
    # speculative move, and only worthwhile next to a real equation
    if any(isinstance(f, Identity) and f.lhs != f.rhs for f in g.ant):
        for t in pool:
            refl = Identity(t, t)
            key = ("eqplus", alpha_key(refl))
            if uses.get(key, 0) >= cap:
                continue
            mv = _eqplus(g, refl)
            mv.uses, mv.prio = _spend(uses, key), uses.get(key, 0)
            moves.append(mv)

    # fresh families before repeat applications; the sort is stable, so
    # ties keep the rule order above
    moves.sort(key=lambda m: m.prio)
    return moves


# ---------------------------------------------------------------------------
# the search proper


def _search(
    g: Sequent, depth: int, seen: frozenset, uses: dict, st: _State
) -> Optional[Plan]:
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

    # an invertible move is committed to, and spends no uses; else each
    # choice move is tried in turn
    committed = _invertible(g, st)
    if committed is not None:
        committed.uses = uses
    for mv in [committed] if committed is not None else _choice_moves(g, uses, st):
        subs = []
        for child in mv.children:
            key = sequent_key(child)
            if key in seen:
                break
            sub = _search(child, depth - 1, seen | {key}, mv.uses, st)
            if sub is None:
                break
            subs.append(sub)
        else:
            return mv, tuple(subs)
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

    plan = _run_search(goal, budget)
    if plan is not None:
        return Proved(check_proof(_build(plan)))
    return Unknown("signature-cap" if capped else "budget-exhausted")


# ---------------------------------------------------------------------------
# the description-paraphrase regression suite


@record(frozen=True)
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
