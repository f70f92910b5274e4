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

A move is data: its rule, principal formula and instance, and its active
formulas' key template. Its actives and premises are built only when the
search recurses into them or the move wins. eqminus's rewritten atoms fill
no slot: the search's own `rewrite_variants` enumerates them, and they are
built with their keys once per identity, atom and direction in a search.
The search returns the winning plan, its moves and sub-plans, and the
proof built from it once is re-checked by the kernel before it is reported.

At depth 1 a move's premises are leaves: the search would only key each
one, check it against the branch and try to close it. So they are tested
without being built. A leaf's key comes from the goal's stored key and
the actives' keys, filled in from a template that the rule and the
principal formula's key share (locally nameless instantiation: a key is
de Bruijn for bound variables). The leaf closes exactly when an active's
key meets the other side or a succedent active is a reflexive identity.
The test is exact because the goal did not close, and each side of a
premise is the goal's side, less at most one formula, plus actives: any
match, and any reflexive identity in the succedent, involves an active.

A goal is probed for a small countermodel only if it may have one. The
root may not when the up-front pass found none without hitting its cap,
a probed goal when its probe found none without hitting it, and nor may
a premise of either: a premise's countermodel is one of its goal, of the
same size, as invertible rules are invertible in every model, a choice
move in keeping form drops nothing, and an eqminus keeps the identity
that makes the consumed atom hold. The one exception, an eqminus that
consumes its own identity either way round, passes nothing on.

First-order logic with identity is undecidable, so all three outcomes
are possible: Proved, Refuted, or Unknown when the budget runs out.
`prove` is the module's one entry point.
"""

from itertools import permutations
from typing import Iterator, Optional, Sequence, Union

from .syntax import (
    Const,
    Formula,
    Identity,
    Param,
    ParamSupply,
    Sequent,
    Term,
    _parts,
    _rebuild,
    alpha_key,
    consts_in,
    is_atomic,
    key_template,
    params_in,
    record,
    sequent_key,
    term_tokens,
)
from .kernel import RULES, Proof, ProofNode, check_proof
from .builders import flip_identity, weaken_to
from .semantics import (
    EnumerationCapError,
    Model,
    find_countermodel,
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
        self.refute_memo: dict[tuple, Optional[bool]] = {}
        self.expansions = 0
        self.quick_size = min(2, budget.model_cap)
        self.templates: dict[tuple, list] = {}  # see `_template`, `_eqminus_moves`


@record
class _Move:
    """One backward rule application to a goal g, as data: `rule` on the
    principal formula f at `inst` (its terms, then its eigenparameter),
    whose premises are g, less the formula at index `drop` of the rule's
    side when set, plus each pair of the rule's actives there: `actives`
    if given, else built from f and inst, whose keys `template` holds when
    set (see `_template`). A choice move spends a use of each key in
    `spent`, after `prio` prior ones on the branch, and is tried in keeping
    form (`kept`): its node concludes g with a second copy of f, which a
    contraction merges, after eqminus's identity is flipped back when
    `flip` is set. An "ax" move is the axiom on f, weakened onto g."""

    rule: str
    f: Formula
    inst: tuple = ()
    actives: Sequence = ()
    drop: Optional[int] = None
    spent: tuple = ()
    prio: int = 0
    kept: bool = False
    flip: Optional[Identity] = None
    template: Optional[list] = None


# a plan is the move that won at a sequent and the plans of its premises;
# the proof is built from it once, when the search has succeeded
Plan = tuple[_Move, tuple]


def _node(g: Sequent, mv: _Move, subs) -> ProofNode:
    """The proof of mv on g from its premises' proofs."""
    if mv.rule == "ax":
        return weaken_to(ProofNode("ax", Sequent((mv.f,), (mv.f,))), g)
    schema = RULES[mv.rule]
    terms, eigen = (mv.inst[:-1], mv.inst[-1]) if schema.eigen else (mv.inst, None)
    conclusion = _with(g, schema.side, mv.f) if mv.kept else g
    node = ProofNode(mv.rule, conclusion, tuple(subs), terms, eigen)
    if mv.flip is not None:
        node = flip_identity(node, mv.flip)
    if mv.kept:
        return ProofNode("cl" if schema.side == "ant" else "cr", g, (node,))
    return node


def _build(g: Sequent, plan: Plan) -> ProofNode:
    mv, subs = plan
    premises = _premises(g, mv) if subs else ()
    return _node(g, mv, [_build(p, sub) for p, sub in zip(premises, subs)])


def _less(sides: tuple, side: str, i: Optional[int]) -> tuple:
    """A pair (antecedent, succedent) less the item at index i of `side`."""
    ant, suc = sides
    if i is None:
        return sides
    return (ant[:i] + ant[i + 1 :], suc) if side == "ant" else (ant, suc[:i] + suc[i + 1 :])


def _premises(g: Sequent, mv: _Move) -> tuple[Sequent, ...]:
    """mv's premises on g: each pair of actives, the antecedent formulas in
    front of what g keeps, the succedent ones behind."""
    ant, suc = _less((g.ant, g.suc), RULES[mv.rule].side, mv.drop)
    actives = mv.actives or RULES[mv.rule].actives(mv.f, *mv.inst)
    return tuple(Sequent(a + ant, suc + s) for a, s in actives)


def _leaves(g: Sequent, mv: _Move) -> Iterator[tuple[tuple, bool]]:
    """The key of each premise of mv on g, from g's and mv's template, and
    whether `_try_close` closes it, neither built (see module docstring)."""
    side = RULES[mv.rule].side
    ant, suc = keys = sequent_key(g)
    if mv.drop is not None:
        lost = alpha_key(getattr(g, side)[mv.drop])
        ant, suc = _less(keys, side, keys[side == "suc"].index(lost))
    tokens = term_tokens(mv.inst)
    for a, s, eqs in mv.template or _cut(mv.actives):
        ak, sk = [x.format(*tokens) for x in a], [x.format(*tokens) for x in s]
        pa, ps = tuple(sorted([*ant, *ak])) if ak else ant, tuple(sorted([*suc, *sk])) if sk else suc
        meet = not set(ak).isdisjoint(ps) or not set(sk).isdisjoint(pa)
        yield (pa, ps), meet or any([x.format(*tokens) == y.format(*tokens) for x, y in eqs])


def _cut(actives, holes: tuple = ()) -> list:
    """Per premise, the key templates of its actives at `holes` on each
    side, and a pair for each succedent identity between instance terms:
    its and its flip's, which fill alike when it fills reflexive."""
    return [([key_template(x, holes) for x in a], [key_template(x, holes) for x in s],
             [(key_template(x, holes), key_template(Identity(x.rhs, x.lhs), holes))
              for x in s if RULES["eqminus"].principal(x)]) for a, s in actives]


def _template(rule: str, f: Formula, st: _State) -> list:
    """`_cut` of rule's actives on f at placeholder parameters, which no
    parser or builder names: made once per rule and key of f in a search."""
    key = (rule, alpha_key(f))
    if key not in st.templates:
        holes = tuple(Param(f"?{i}") for i in range(RULES[rule].terms + RULES[rule].eigen))
        st.templates[key] = _cut(RULES[rule].actives(f, *holes), holes)
    return st.templates[key]


def _with(g: Sequent, side: str, f: Formula) -> Sequent:
    """g with f added on `side`, where `_premises` puts actives."""
    return Sequent((f,) + g.ant, g.suc) if side == "ant" else Sequent(g.ant, g.suc + (f,))


def _spend(uses: dict, keys: tuple) -> dict:
    out = dict(uses)
    for key in keys:
        out[key] = out.get(key, 0) + 1
    return out


def _quick_refuted(g: Sequent, st: _State, free: bool) -> Optional[bool]:
    """Whether a model up to st.quick_size refutes g: False if none does,
    None if the probe hit its cap. A goal `free` of one is not probed."""
    if free:
        return False
    key = sequent_key(g)
    if key not in st.refute_memo:
        try:
            cm = find_countermodel(g, max_size=st.quick_size, cap=QUICK_REFUTE_CAP)
            st.refute_memo[key] = cm is not None
        except EnumerationCapError:
            st.refute_memo[key] = None
    return st.refute_memo[key]


def _keeps_countermodels(g: Sequent, mv: _Move) -> bool:
    """Whether every countermodel of a premise of mv is one of g: true
    but for an eqminus that consumes its own identity, either way round."""
    return mv.rule != "eqminus" or g.ant[mv.drop] not in (mv.f, Identity(mv.f.rhs, mv.f.lhs))


# ---------------------------------------------------------------------------
# closures


def _eqplus(refl: Identity, spent: tuple = (), prio: int = 0) -> _Move:
    """eqplus discharging the reflexive identity refl."""
    return _Move("eqplus", refl, (), RULES["eqplus"].actives(refl), spent=spent, prio=prio)


def _closing(f: Formula) -> Plan:
    """The axiom on f, weakened onto the sequent it closes."""
    return _Move("ax", f), ()


def _try_close(g: Sequent) -> Optional[Plan]:
    suc_keys = {alpha_key(f) for f in g.suc}
    for f in g.ant:
        if alpha_key(f) in suc_keys:
            return _closing(f)
    for f in g.suc:
        if RULES["eqplus"].principal(f):
            return _eqplus(f), (_closing(f),)
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
            return _Move(rule, f, inst, drop=i, template=_template(rule, f, st))
    return None


# ---------------------------------------------------------------------------
# choice moves (tried as alternatives, in keeping form)


def _term_pool(g: Sequent) -> list[Term]:
    pool: list[Term] = [Param(n) for n in sorted(params_in(g))]
    pool += [Const(n) for n in sorted(consts_in(g))]
    return pool


def rewrite_variants(atom: Formula, src: Term, dst: Term) -> Iterator[Formula]:
    """The rewrites of an atom that replace a nonempty subset of its src
    occurrences by dst, the whole set first; none if it is not atomic."""
    parts = _parts(atom) if is_atomic(atom) else ()
    idxs = [i for i, t in enumerate(parts) if t == src]
    full = (1 << len(idxs)) - 1
    for mask in (full, *range(1, full)) if idxs else ():
        xs = list(parts)
        for b, i in enumerate(idxs):
            if mask >> b & 1:
                xs[i] = dst
        yield _rebuild(atom, xs)


def _eqminus_moves(g: Sequent, uses: dict, st: _State) -> Iterator[_Move]:
    """eqminus on each identity, either way round, and each atom beside it:
    the identity the node consumes is oriented src=dst and flipped back to
    g's orientation before the contraction. The rewrites of an atom, as
    actives with their templates, are made once per search."""
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
                rewrites = key + (flipped,)
                if rewrites not in st.templates:
                    made = [schema.actives(used, new) for new in rewrite_variants(atom, src, dst)]
                    st.templates[rewrites] = [(actives, _cut(actives)) for actives in made]
                for actives, template in st.templates[rewrites]:
                    yield _Move("eqminus", used, (), actives, j, (key,), uses.get(key, 0), True,
                                used if flipped else None, template)


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
            template = _template(rule, f, st)
            # the terms are all different, so these are the tuples of
            # different terms, in the order of their product
            for ts in permutations(terms, schema.terms):
                spent = (key, fresh_key) if minted in ts else (key,)
                inst = ts + (st.supply.fresh(),) if schema.eigen else ts
                moves.append(_Move(rule, f, inst, (), None, spent, uses.get(key, 0), True,
                                   None, template))

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
            if uses.get(key, 0) < cap:
                moves.append(_eqplus(refl, (key,), uses.get(key, 0)))

    # fresh families before repeat applications; the sort is stable, so
    # ties keep the rule order above
    moves.sort(key=lambda m: m.prio)
    return moves


# ---------------------------------------------------------------------------
# the search proper


def _search(
    g: Sequent, depth: int, seen: frozenset, uses: dict, st: _State, free: bool
) -> Optional[Plan]:
    st.expansions += 1
    if st.expansions > NODE_CAP:
        return None
    closed = _try_close(g)
    if closed is not None:
        return closed
    if depth <= 0:
        return None
    refuted = _quick_refuted(g, st, free)
    if refuted:
        return None

    # an invertible move is committed to, and spends no uses; else each
    # choice move is tried in turn. A move's premises are built when the
    # search recurses into them or the move wins; at depth 1 they are
    # leaves, tested unbuilt, each counted as the call at depth 0 would be
    committed = _invertible(g, st)
    for mv in [committed] if committed is not None else _choice_moves(g, uses, st):
        premises, subs = (), []
        for i, (key, closes) in enumerate(_leaves(g, mv)):
            if key in seen:
                break
            if depth > 1:
                premises = premises or _premises(g, mv)
                sub = _search(premises[i], depth - 1, seen | {key}, _spend(uses, mv.spent),
                              st, refuted is False and _keeps_countermodels(g, mv))
            else:
                st.expansions += 1
                sub = closes and st.expansions <= NODE_CAP
            if not sub:
                break
            subs.append(sub)
        else:
            if depth == 1:
                subs = [_try_close(p) for p in _premises(g, mv)]
            return mv, tuple(subs)
    return None


def _run_search(goal: Sequent, budget: SearchBudget, free: bool):
    # iterative deepening: blind alleys stay shallow on early passes, and
    # the refutation memo carries over, so re-searching cheap levels is
    # a small fraction of the final pass
    st = _State(goal, budget)
    root_key = frozenset({sequent_key(goal)})
    for depth in range(0, budget.max_depth + 1):
        found = _search(goal, depth, root_key, {}, st, free)
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

    plan = _run_search(goal, budget, free=not capped)
    if plan is not None:
        return Proved(check_proof(_build(goal, plan)))
    return Unknown("signature-cap" if capped else "budget-exhausted")

