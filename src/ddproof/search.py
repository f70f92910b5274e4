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

Moves are enumerated in groups, a `_Group` record each: one rule on one
principal formula, with its use key and key template, and its instances
as (terms, key tokens) pairs. A move is a group at one instance; its
actives and premises are built only where the search enters a premise,
or for the plan it returns. eqminus's rewritten atoms fill no slot: the
search's own `rewrite_variants` enumerates them, and they are the
instances of a group per identity, atom and direction, made with their
keys once per search. The proof built once from the winning plan is
re-checked by the kernel before it is reported.

Whether a premise closes is decided once, unbuilt, by the leaf test: a
premise that closes is a leaf at any depth, as is every premise at depth
1, and a closed leaf's proof is made only for the returned plan. A
premise's key comes from the goal's stored key and the actives' keys,
filled in from a template that the rule and the principal formula's key
share (locally nameless instantiation: a key is de Bruijn for bound
variables); a leaf's is sorted only if a key on the branch has its side
lengths. The premise closes exactly when an active's key meets the other
side or a succedent active is a reflexive identity. That is exact, as no
goal that closes is expanded (the root is tested once), and each side of
a premise is the goal's, less at most one formula, plus actives: any
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
from typing import Iterable, Iterator, Literal, Optional, Sequence, Union

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
from .builders import ax, flip_identity, weaken_to
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
        # made once per search: key templates at (rule, key) (`_template`),
        # eqminus's oriented identity and rewrites at ("eqminus", identity
        # key, atom key, flipped), eqplus's group at ("eqplus", term token)
        self.made: dict = {}
        self.pools: dict[tuple, tuple] = {}  # see `_choice_groups`


@record
class _Group:
    """One rule on one principal formula f of a goal g, at each of its
    `instances` as (inst, key tokens) pairs: inst is its terms, then its
    eigenparameter, or eqminus's rewritten atom. A move, the group at one
    instance, has as premises g, less the formula at index `drop` of the
    rule's side when set, plus each pair of the rule's actives there, built
    from f and inst, whose keys `template` holds when set (see `_template`).
    A choice move spends a use of each key in `spent`, and of fresh
    parameters when its instance holds the `minted` one, and is tried in
    keeping form (`kept`): its node concludes g with a second copy of f,
    which a contraction merges, after eqminus's identity is flipped back
    when `flip` is set."""

    rule: str
    f: Formula
    drop: Optional[int] = None
    spent: tuple = ()
    kept: bool = False
    flip: Optional[Identity] = None
    template: Optional[list] = None
    minted: Optional[Param] = None
    instances: Iterable = ()


# a plan is True at a sequent that closes, else the group and instance that
# won there and its premises' plans; the proof is built from it once
Plan = Union[Literal[True], tuple[_Group, tuple, tuple]]


def _node(g: Sequent, group: _Group, inst: tuple, subs) -> ProofNode:
    """The proof of the group's move at inst on g from its premises' proofs."""
    schema = RULES[group.rule]
    terms, eigen = (inst[:-1], inst[-1]) if schema.eigen else (inst, None)
    if group.rule == "eqminus":
        terms = ()  # its instance is the rewritten atom, which no annotation names
    conclusion = _with(g, schema.side, group.f) if group.kept else g
    node = ProofNode(group.rule, conclusion, tuple(subs), terms, eigen)
    if group.flip is not None:
        node = flip_identity(node, group.flip)
    if group.kept:
        return ProofNode("cl" if schema.side == "ant" else "cr", g, (node,))
    return node


def _build(g: Sequent, plan: Plan) -> ProofNode:
    if plan is True:
        return _closed(g)
    group, inst, subs = plan
    return _node(g, group, inst, [*map(_build, _premises(g, group, inst), subs)])


def _less(sides: tuple, side: str, i: Optional[int]) -> tuple:
    """A pair (antecedent, succedent) less the item at index i of `side`."""
    ant, suc = sides
    if i is None:
        return sides
    return (ant[:i] + ant[i + 1 :], suc) if side == "ant" else (ant, suc[:i] + suc[i + 1 :])


def _premises(g: Sequent, group: _Group, inst: tuple) -> tuple[Sequent, ...]:
    """The group's premises on g at inst: each pair of actives, the
    antecedent formulas in front of what g keeps, the succedent ones behind."""
    schema = RULES[group.rule]
    ant, suc = _less((g.ant, g.suc), schema.side, group.drop)
    return tuple(Sequent(a + ant, suc + s) for a, s in schema.actives(group.f, *inst))


def _kept(g: Sequent, rule: str, drop: Optional[int]) -> tuple:
    """g's key sides, less the formula at index drop of rule's side if set."""
    keys, side = sequent_key(g), RULES[rule].side
    return keys if drop is None else _less(
        keys, side, keys[side == "suc"].index(alpha_key(getattr(g, side)[drop])))


def _leaf(sides: tuple, cut: tuple, tokens: Sequence[str]) -> tuple:
    """A premise of a move on a goal that keeps the key sides `sides`,
    from its entry `cut` of the move's template filled in with its
    instance's tokens: its actives' keys on each side, and whether it
    closes, unbuilt: the search's one closure test (see module docstring)."""
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
    if key not in st.made:
        schema = RULES[key[0]]
        holes = tuple(Param(f"?{i}") for i in range(schema.terms + schema.eigen))
        st.made[key] = [
            ([key_template(x, holes) for x in a], [key_template(x, holes) for x in s],
             [(key_template(x, holes), key_template(Identity(x.rhs, x.lhs), holes))
              for x in s if RULES["eqminus"].principal(x)])
            for a, s in schema.actives(f, *holes)]
    return st.made[key]


# the template of a premise that adds one antecedent formula, the
# instance's one token being that formula's key
_ONE = [(["{0}"], [], [])]


def _with(g: Sequent, side: str, f: Formula) -> Sequent:
    """g with f added on `side`, where `_premises` puts actives."""
    return Sequent((f,) + g.ant, g.suc) if side == "ant" else Sequent(g.ant, g.suc + (f,))


def _spend(uses: dict, group: _Group, inst: tuple) -> dict:
    out = dict(uses)
    minted = group.minted is not None and group.minted in inst
    for key in group.spent + ((("fresh-params",),) if minted else ()):
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


def _keeps_countermodels(g: Sequent, group: _Group) -> bool:
    """Whether every countermodel of a premise of the group's moves is one of
    g: true but for an eqminus that consumes its own identity, either way."""
    f = group.f
    return group.rule != "eqminus" or g.ant[group.drop] not in (f, Identity(f.rhs, f.lhs))


# ---------------------------------------------------------------------------
# closures


def _closed(g: Sequent) -> Optional[ProofNode]:
    """g's proof if it closes, by an axiom, or by eqplus on a reflexive
    identity of its succedent over one, weakened onto g; else None."""
    suc_keys = {alpha_key(f) for f in g.suc}
    for f in g.ant:
        if alpha_key(f) in suc_keys:
            return weaken_to(ax(f), g)
    for f in g.suc:
        if RULES["eqplus"].principal(f):
            return ProofNode("eqplus", g, (weaken_to(ax(f), _with(g, "ant", f)),))
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


def _invertible(g: Sequent, st: _State) -> Optional[_Group]:
    """The group of the first set with a principal formula, on its leftmost;
    an abstract of a description is left to the choice moves."""
    for side, rules in _INVERTIBLE:
        for i, f in enumerate(g.ant if side == "ant" else g.suc):
            rule = rules.get(type(f))
            if rule is None or not RULES[rule].principal(f):
                continue
            inst = (st.supply.fresh(),) if RULES[rule].eigen else ()
            template = _template((rule, alpha_key(f)), f, st)
            return _Group(rule, f, i, template=template, instances=[(inst, term_tokens(inst))])
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


def _eqminus_groups(g: Sequent, uses: dict, st: _State) -> Iterator[_Group]:
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
                if uses.get(key, 0) >= cap:
                    continue
                rewrites = key + (flipped,)
                if rewrites not in st.made:
                    st.made[rewrites] = Identity(src, dst) if flipped else eq, [
                        ((chi,), (alpha_key(chi),)) for chi in rewrite_variants(atom, src, dst)]
                used, instances = st.made[rewrites]
                if instances:
                    yield _Group("eqminus", used, j, (key,), True, used if flipped else None,
                                 _ONE, None, instances)


def _choice_groups(g: Sequent, uses: dict, st: _State) -> list[_Group]:
    cap = st.budget.contraction_cap
    groups: list[_Group] = []
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
                instances = [*instances]
                eigen = [st.supply.fresh() for _ in instances]
                instances = [(ts + (a,), tk + (m,))
                             for (ts, tk), a, m in zip(instances, eigen, term_tokens(eigen))]
            groups.append(_Group(rule, f, None, (key,), True, None,
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
        terms, marks = [*pool, minted], tokens + term_tokens((minted,))
    for rule in ("foralll", "existsr", "iotar", "iota2l"):
        slot_groups(rule, terms, marks, minted)

    # introduce a reflexive identity as rewrite fodder, the most
    # speculative move, and only worthwhile next to a real equation; its
    # group is the same at every goal, so it is made once per term in a
    # search
    if any(isinstance(f, Identity) and f.lhs != f.rhs for f in g.ant):
        for t, token in zip(pool, tokens):
            if ("eqplus", token) not in st.made:
                refl = Identity(t, t)
                key = ("eqplus", alpha_key(refl))
                st.made["eqplus", token] = _Group("eqplus", refl, spent=(key,), template=_ONE,
                                                  instances=[((), key[1:])])
            group = st.made["eqplus", token]
            if uses.get(group.spent[0], 0) < cap:
                groups.append(group)

    # fresh families before repeat applications, by the uses of the key
    # each group spends; the sort is stable, so ties keep the rule order
    # above
    groups.sort(key=lambda group: uses.get(group.spent[0], 0))
    return groups


# ---------------------------------------------------------------------------
# the search proper


def _search(
    g: Sequent, depth: int, seen: frozenset, uses: dict, st: _State, free: bool
) -> Optional[Plan]:
    """A plan for g, which does not close, within depth moves."""
    st.expansions += 1
    if st.expansions > NODE_CAP or depth <= 0:
        return None
    refuted = _quick_refuted(g, st, free)
    if refuted:
        return None

    # an invertible move is committed to, and spends no uses; else each
    # choice move is tried in turn. A premise is entered, and built, if it
    # does not close and depth is left below it; else it is a leaf, tested
    # unbuilt, counted as the call it replaces, and keyed only if a branch
    # key has its lengths
    committed = _invertible(g, st)
    lengths = {(len(a), len(s)) for a, s in seen}
    for group in [committed] if committed is not None else _choice_groups(g, uses, st):
        sides = _kept(g, group.rule, group.drop)
        na, ns = len(sides[0]), len(sides[1])
        for inst, tokens in group.instances:
            premises, subs = None, []
            for cut in group.template:
                ak, sk, closes = _leaf(sides, cut, tokens)
                enter = depth > 1 and not closes
                if enter or (na + len(ak), ns + len(sk)) in lengths:
                    key = _key(sides, ak, sk)
                    if key in seen:
                        break
                if enter:
                    if premises is None:
                        premises, below = _premises(g, group, inst), _spend(uses, group, inst)
                    sub = _search(premises[len(subs)], depth - 1, seen | {key}, below, st,
                                  refuted is False and _keeps_countermodels(g, group))
                else:
                    st.expansions += 1
                    sub = closes and st.expansions <= NODE_CAP
                if not sub:
                    break
                subs.append(sub)
            else:
                return group, inst, tuple(subs)
    return None


def _run_search(goal: Sequent, budget: SearchBudget, free: bool):
    if _closed(goal) is not None:
        return True
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

