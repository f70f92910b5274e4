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

Moves are enumerated in groups, a plain tuple each: one rule on one
principal formula, with its use key, prio and key template, and its
instances as (terms, key tokens) pairs. A move, as data, is made from its
group, and its actives and premises built, only when the search recurses
into them or it wins. eqminus's rewritten atoms fill no slot: the search's
own `rewrite_variants` enumerates them, and they are the instances of a
group per identity, atom and direction, made with their keys once per
search. The search returns the winning plan, its moves and sub-plans, and
the proof built from it once is re-checked by the kernel before it is
reported.

At depth 1 a move's premises are leaves: the search would only key each
one, check it against the branch and try to close it. So they are tested
without being built. A leaf's key comes from the goal's stored key and
the actives' keys, filled in from a template that the rule and the
principal formula's key share (locally nameless instantiation: a key is
de Bruijn for bound variables), and it is sorted only if a key on the
branch has its side lengths. The leaf closes exactly when an active's
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

from itertools import chain, permutations
from typing import Iterator, Optional, Sequence, Union

from .syntax import (
    Const,
    Formula,
    Identity,
    Param,
    ParamSupply,
    Sequent,
    Term,
    _names,
    _parts,
    _rebuild,
    alpha_key,
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
        self.templates: dict = {}  # see `_template`, `_eqminus_groups`, `_choice_groups`
        self.pools: dict[tuple, tuple] = {}  # see `_choice_groups`


@record
class _Move:
    """One backward rule application to a goal g, as data: `rule` on the
    principal formula f at `inst` (its terms, then its eigenparameter, or
    eqminus's rewritten atom), whose premises are g, less the formula at
    index `drop` of the rule's side when set, plus each pair of the rule's
    actives there, built from f and inst, whose keys `template` holds when
    set (see `_template`). A choice move spends a use of each key in
    `spent`, after `prio` prior ones on the branch, and is tried in keeping
    form (`kept`): its node concludes g with a second copy of f, which a
    contraction merges, after eqminus's identity is flipped back when
    `flip` is set. An "ax" move is the axiom on f, weakened onto g."""

    rule: str
    f: Formula
    inst: tuple = ()
    drop: Optional[int] = None
    spent: tuple = ()
    prio: int = 0
    kept: bool = False
    flip: Optional[Identity] = None
    template: Optional[list] = None


# a plan is the move that won at a sequent and the plans of its premises;
# the proof is built from it once, when the search has succeeded
Plan = tuple[_Move, tuple]


def _move(group: tuple, inst: tuple) -> _Move:
    """The move of a group at one of its instances. A group is a tuple of
    the `_Move` fields but `inst`, the minted parameter, whose moves spend
    a fresh-params use as well, and the instances as (terms, key tokens)."""
    rule, f, drop, spent, prio, kept, flip, template, minted, _ = group
    if minted is not None and minted in inst:
        spent += (("fresh-params",),)
    return _Move(rule, f, inst, drop, spent, prio, kept, flip, template)


def _node(g: Sequent, mv: _Move, subs) -> ProofNode:
    """The proof of mv on g from its premises' proofs."""
    if mv.rule == "ax":
        return weaken_to(ProofNode("ax", Sequent((mv.f,), (mv.f,))), g)
    schema = RULES[mv.rule]
    terms, eigen = (mv.inst[:-1], mv.inst[-1]) if schema.eigen else (mv.inst, None)
    if mv.rule == "eqminus":
        terms = ()  # its instance is the rewritten atom, which no annotation names
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
    return tuple(Sequent(a + ant, suc + s) for a, s in RULES[mv.rule].actives(mv.f, *mv.inst))


def _kept(g: Sequent, rule: str, drop: Optional[int]) -> tuple:
    """g's key sides, less the formula at index drop of rule's side if set."""
    keys, side = sequent_key(g), RULES[rule].side
    return keys if drop is None else _less(
        keys, side, keys[side == "suc"].index(alpha_key(getattr(g, side)[drop])))


def _leaf(sides: tuple, cut: tuple, tokens: Sequence[str]) -> tuple:
    """A premise of a move on a goal that keeps the key sides `sides`,
    from its entry `cut` of the move's template filled in with its
    instance's tokens: its actives' keys on each side, and whether
    `_try_close` closes it, unbuilt (see module docstring)."""
    (ant, suc), (a, s, eqs) = sides, cut
    ak, sk = a and [x.format(*tokens) for x in a], s and [x.format(*tokens) for x in s]
    apart = {*ak}.isdisjoint(suc) and (not sk or {*sk}.isdisjoint([*ant, *ak]))
    reflexive = bool(eqs) and any([x.format(*tokens) == y.format(*tokens) for x, y in eqs])
    return ak, sk, not apart or reflexive


def _key(sides: tuple, ak: list, sk: list) -> tuple:
    """A premise's key: the kept key sides with its actives' keys, sorted."""
    ant, suc = sides
    return tuple(sorted([*ant, *ak])) if ak else ant, tuple(sorted([*suc, *sk])) if sk else suc


def _template(key: tuple, f: Formula, st: _State) -> list:
    """Per premise of rule key[0] on f, of key key[1], the key templates of
    its actives on each side at placeholder parameters, which no parser or
    builder names, and a pair for each succedent identity between instance
    terms: its and its flip's, which fill alike when it fills reflexive.
    Made once in a search."""
    if key not in st.templates:
        schema = RULES[key[0]]
        holes = tuple(Param(f"?{i}") for i in range(schema.terms + schema.eigen))
        st.templates[key] = [
            ([key_template(x, holes) for x in a], [key_template(x, holes) for x in s],
             [(key_template(x, holes), key_template(Identity(x.rhs, x.lhs), holes))
              for x in s if RULES["eqminus"].principal(x)])
            for a, s in schema.actives(f, *holes)]
    return st.templates[key]


# the template of a premise that adds one antecedent formula, the
# instance's one token being that formula's key
_ONE = [(["{0}"], [], [])]


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
            return _Move("eqplus", f), (_closing(f),)
    return None


# ---------------------------------------------------------------------------
# invertible moves (committed)


def _by_class(*rules: str) -> tuple[str, dict]:
    """A set of rules on one side: that side, and a map from principal
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


def _invertible(g: Sequent, st: _State) -> Optional[tuple]:
    """The group of the first set with a principal formula, on its leftmost;
    an abstract of a description is left to the choice moves."""
    for side, rules in _INVERTIBLE:
        for i, f in enumerate(g.ant if side == "ant" else g.suc):
            rule = rules.get(type(f))
            if rule is None or not RULES[rule].principal(f):
                continue
            inst = (st.supply.fresh(),) if RULES[rule].eigen else ()
            template = _template((rule, alpha_key(f)), f, st)
            return rule, f, i, (), 0, False, None, template, None, [(inst, term_tokens(inst))]
    return None


# ---------------------------------------------------------------------------
# choice moves (tried as alternatives, in keeping form)


def rewrite_variants(atom: Formula, src: Term, dst: Term) -> Iterator[Formula]:
    """The rewrites of an atom that replace a nonempty subset of its src
    occurrences by dst, the whole set first; none if it is not atomic."""
    parts = _parts(atom) if is_atomic(atom) else ()
    idxs = [i for i, t in enumerate(parts) if t == src]
    full = (1 << len(idxs)) - 1
    for mask in chain((full,), range(1, full)) if idxs else ():
        xs = list(parts)
        for b, i in enumerate(idxs):
            if mask >> b & 1:
                xs[i] = dst
        yield _rebuild(atom, xs)


def _eqminus_groups(g: Sequent, uses: dict, st: _State) -> Iterator[tuple]:
    """eqminus on each identity, either way round, and each atom beside it
    that has a rewrite, at each of its rewrites: the identity the node
    consumes is oriented src=dst and flipped back to g's orientation before
    the contraction. The identity and the rewrites with their keys are made
    once per search."""
    cap = st.budget.contraction_cap
    schema = RULES["eqminus"]
    keys = [alpha_key(f) for f in g.ant]
    atoms = [(j, atom) for j, atom in enumerate(g.ant) if is_atomic(atom)]
    for i, eq in enumerate(g.ant):
        if not schema.principal(eq) or eq.lhs == eq.rhs:
            continue
        for src, dst, flipped in ((eq.lhs, eq.rhs, False), (eq.rhs, eq.lhs, True)):
            for j, atom in atoms:
                key = ("eqminus", keys[i], keys[j])
                prio = uses.get(key, 0)
                if prio >= cap:
                    continue
                rewrites = key + (flipped,)
                if rewrites not in st.templates:
                    st.templates[rewrites] = Identity(src, dst) if flipped else eq, [
                        ((chi,), (alpha_key(chi),)) for chi in rewrite_variants(atom, src, dst)]
                used, instances = st.templates[rewrites]
                if instances:
                    yield ("eqminus", used, j, (key,), prio, True, used if flipped else None,
                           _ONE, None, instances)


def _choice_groups(g: Sequent, uses: dict, st: _State) -> list[tuple]:
    cap = st.budget.contraction_cap
    groups: list[tuple] = []
    names = [_names(f) for f in g.ant + g.suc]
    names = frozenset().union(*[n[0] for n in names]), frozenset().union(*[n[1] for n in names])
    if names not in st.pools:
        pool = [Param(n) for n in sorted(names[0])] + [Const(n) for n in sorted(names[1])]
        st.pools[names] = pool, term_tokens(pool)
    pool, tokens = st.pools[names]

    def slot_groups(rule: str, terms: list, marks: list, minted: Optional[Param] = None) -> None:
        """`rule` in keeping form on each principal formula of g under its
        contraction cap, at each tuple of different terms, whose key tokens
        are `marks`, then a fresh eigenparameter if the rule takes one,
        drawn now. The minted parameter spends a fresh-params use."""
        schema = RULES[rule]
        for f in g.ant if schema.side == "ant" else g.suc:
            if not schema.principal(f):
                continue
            key = (rule, alpha_key(f))
            if uses.get(key, 0) >= cap:
                continue
            # the terms are all different, so these are the tuples of
            # different terms, in the order of their product
            instances = zip(permutations(terms, schema.terms), permutations(marks, schema.terms))
            if schema.eigen:
                instances = [(ts + (a,), tk + ("p:" + a.name,))
                             for ts, tk in instances for a in [st.supply.fresh()]]
            groups.append((rule, f, None, (key,), uses.get(key, 0), True, None,
                           _template(key, f, st), minted, instances))

    # description in the antecedent: the no-witness rule first
    slot_groups("iota1l", pool, tokens)

    # the equality rewrites
    groups += _eqminus_groups(g, uses, st)

    # universal instantiation on the left, existential witness on the right,
    # then description on the right and the uniqueness rule: most premises
    # last
    terms, marks, minted = pool, tokens, None
    if uses.get(("fresh-params",), 0) < st.budget.term_pool_cap:
        minted = st.supply.fresh()
        terms, marks = [*pool, minted], [*tokens, "p:" + minted.name]
    for rule in ("foralll", "existsr", "iotar", "iota2l"):
        slot_groups(rule, terms, marks, minted)

    # introduce a reflexive identity as rewrite fodder, the most
    # speculative move, and only worthwhile next to a real equation; made
    # with its key and instance once per term in a search
    if any(isinstance(f, Identity) and f.lhs != f.rhs for f in g.ant):
        for t, token in zip(pool, tokens):
            if ("eqplus", token) not in st.templates:
                refl = Identity(t, t)
                key = ("eqplus", alpha_key(refl))
                st.templates["eqplus", token] = refl, key, [((), key[1:])]
            refl, key, instances = st.templates["eqplus", token]
            if uses.get(key, 0) < cap:
                groups.append(("eqplus", refl, None, (key,), uses.get(key, 0), False, None,
                               _ONE, None, instances))

    # fresh families before repeat applications; the sort is stable, so
    # ties keep the rule order above
    groups.sort(key=lambda group: group[4])
    return groups


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
    # choice move is tried in turn. A move is made, and its premises built,
    # when the search recurses into them or the move wins; at depth 1 they
    # are leaves, tested unbuilt, each counted as the call at depth 0 would
    # be, and a leaf's key is built only if a branch key has its lengths
    committed = _invertible(g, st)
    lengths = {(len(a), len(s)) for a, s in seen}
    for group in [committed] if committed is not None else _choice_groups(g, uses, st):
        rule, _, drop, _, _, _, _, template, _, instances = group
        sides = _kept(g, rule, drop)
        na, ns = len(sides[0]), len(sides[1])
        for inst, tokens in instances:
            mv, subs = None, []
            for cut in template:
                ak, sk, closes = _leaf(sides, cut, tokens)
                if depth > 1 or (na + len(ak), ns + len(sk)) in lengths:
                    key = _key(sides, ak, sk)
                    if key in seen:
                        break
                if depth > 1:
                    if mv is None:
                        mv = _move(group, inst)
                        premises = _premises(g, mv)
                    sub = _search(premises[len(subs)], depth - 1, seen | {key},
                                  _spend(uses, mv.spent), st,
                                  refuted is False and _keeps_countermodels(g, mv))
                else:
                    st.expansions += 1
                    sub = closes and st.expansions <= NODE_CAP
                if not sub:
                    break
                subs.append(sub)
            else:
                mv = mv or _move(group, inst)
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

