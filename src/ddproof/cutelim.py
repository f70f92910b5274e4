"""Constructive cut elimination.

The procedure follows the classic two-lemma strategy: a right reduction
that recurses on the right premise of a cut whose formula is principal
on the left, a left reduction that recurses on the left premise and
dispatches to the right reduction once the tracked formula becomes
principal, and an outer loop that repeatedly reduces the topmost cut of
maximal degree. Both reductions track k >= 1 occurrences of the cut
formula at once, which is what makes contraction unproblematic.

Everything here builds plain ProofNode trees; validity is established by
running the kernel checker over the results (the test suite does this
for every construction). Only the reductions recurse once per proof
level, as the induction on proof height does; every other walk is a loop.

The loop works on regular proofs: each eigenparameter belongs to one
inference and occurs nowhere outside that inference's premises. Both
`is_regular` and `regularize` read one pre-order numbering of the proof
(`kernel.preorder`), in which each subtree is an interval of indices.
`regularize` gives each clash a name fresh for the whole proof, so no
rename changes whether another inference clashes, and makes every rename
in one `kernel.rename_proof` pass, the loop `subst_param_proof` takes
too: proofs are renamed in one way, with one memo per walk, so each
formula is renamed once and the nodes that shared it share its copy.
A step keeps p regular without a pass over the whole proof:
  * `left_reduce(..., avoid=proof_params(p))` ends in
    `regularize(out, avoid)`, so every eigenparameter of the reduced
    proof is fresh for all of p, unique, and confined to its premises;
    every other parameter in it already stood in the cut's subtree.
  * `fit_to` adds only weakenings and contractions, which have none.
  * The rest of p was regular and shares no eigenparameter with the
    reduced proof, so the spliced proof is regular; `assert is_regular`
    checks it at every step.
Three renaming passes stay, each because it changes proofs:
  * the initial `regularize(proof)`, on inputs that are not regular;
  * `_corregularize`: `avoid` holds every parameter of the proof, so it
    renames every eigenparameter of both premises, and the fresh names it
    picks are the ones the output carries;
  * the final `regularize` of `left_reduce` and `right_reduce`: the left
    reduction through a two-premise inference copies the right premise,
    eigenparameters and all, into each branch, and the copies must be
    renamed apart.
"""

from typing import Iterable, Optional

from .syntax import (
    Formula,
    Identity,
    IotaTerm,
    ParamSupply,
    Sequent,
    alpha_key,
    logical_constants,
    record,
    replace,
    sequent_key,
    substitute,
)
from .kernel import (
    EIGEN_RULES,
    ProofNode,
    analyze_step,
    check_proof,
    dotted,
    preorder,
    proof_params,
    rename_proof,
    subst_param_proof,
)
from .builders import build_sym_trans, fit_to, mk_cut, weaken_to, without


class ReductionError(ValueError):
    """A reduction was invoked outside its precondition."""


@record(frozen=True)
class TraceEntry:
    """One iteration of the elimination loop."""

    path: str
    formula: Formula
    degree: int
    cases: tuple[str, ...]
    degree_before: int
    maximal_before: int
    degree_after: int
    maximal_after: int


# ---------------------------------------------------------------------------
# regularization


def _clashes(proof: ProofNode, avoid: set) -> tuple[list, list, set]:
    """Each node's eigenparameter in pre-order (read off analyze_step where
    it is implicit), the indices of those that clash, and every name seen
    or avoided. The eigenparameter e of node i clashes when e is avoided,
    kept by an earlier inference, or named outside i's subtree [i, end_i]."""
    eigens, ends, span = [], {}, {}
    path: list[tuple[int, int]] = []  # (depth, index) of each eigen inference on i's path
    for i, (depth, node) in enumerate(preorder(proof)):
        while path and path[-1][0] >= depth:  # its subtree ended at i - 1
            ends[path.pop()[1]] = i - 1
        eigen, names = node.eigen, node.own_params
        if eigen is not None:
            names = names | {eigen.name}
        elif node.rule in EIGEN_RULES:
            eigen = analyze_step(node).eigen
        if eigen is not None:
            path.append((depth, i))
        eigens.append(eigen)
        for name in names:
            span.setdefault(name, [i, i])[1] = i
    ends.update((j, len(eigens) - 1) for _, j in path)
    taken, clashes = set(avoid), []
    for i, eigen in enumerate(eigens):
        if eigen is not None:
            first, last = span.get(eigen.name, (i, i))
            if eigen.name in taken or first < i or last > ends[i]:
                clashes.append(i)
            else:
                taken.add(eigen.name)
    return eigens, clashes, span.keys() | avoid


def is_regular(proof: ProofNode, avoid: Iterable[str] = ()) -> bool:
    """True when every eigenparameter is used by exactly one inference and
    occurs nowhere outside the premise subtrees of that inference."""
    return not _clashes(proof, set(avoid))[1]


def regularize(proof: ProofNode, avoid: Iterable[str] = ()) -> ProofNode:
    """Rename eigenparameters until each one is unique in the whole proof
    and confined to the premises of the inference that introduces it, and
    spell out the implicit ones. Idempotent; the result is `proof` itself
    exactly when it is regular and every eigenparameter is annotated."""
    eigens, clashes, seen = _clashes(proof, set(avoid))
    supply = ParamSupply(seen)
    fresh = {i: supply.fresh() for i in clashes}
    index = iter(range(len(eigens)))  # rename_proof chooses in pre-order

    def choose(node: ProofNode, names: dict):
        i = next(index)
        if i in fresh:
            return fresh[i], {**names, eigens[i].name: fresh[i]}
        return eigens[i], names

    return rename_proof(proof, choose)


# ---------------------------------------------------------------------------
# shared reduction helpers

def _reducible(d1, d2, phi: Formula, k: int, on_left: int, on_right: int) -> str:
    """phi's alpha key, once the premises meet what both reductions need:
    k >= 1, no cut of d1 or d2 at or above phi's degree, and phi at least
    `on_left` times in d1's succedent and `on_right` times in d2's
    antecedent; raises ReductionError otherwise."""
    if k < 1:
        raise ReductionError("k must be positive")
    if not max(d1.cuts[0], d2.cuts[0]) < logical_constants(phi):
        raise ReductionError(
            "premise proofs contain cuts at or above the degree of the cut formula"
        )
    key = alpha_key(phi)
    if sequent_key(d1.conclusion)[1].count(key) < on_left:
        raise ReductionError("left premise lacks the tracked occurrences")
    if sequent_key(d2.conclusion)[0].count(key) < on_right:
        raise ReductionError("right premise lacks the tracked occurrences")
    return key


def _principal_on(node: ProofNode, info, side: str, key: str) -> bool:
    """The formula of alpha key `key` is principal on `side` ("ant" or
    "suc") in node's last inference, whose `analyze_step` is `info`."""
    if info.principal is None or info.principal[0] != side:
        return False
    return alpha_key(getattr(node.conclusion, side)[info.principal[1]]) == key


def _corregularize(d1, d2, avoid):
    d2r = regularize(d2, set(avoid) | proof_params(d1))
    d1r = regularize(d1, set(avoid) | proof_params(d2r))
    return d1r, d2r


def _parametric(d, info, goal: Sequent, phi_key: str, k: int, side: int, ih) -> ProofNode:
    """d's last inference, concluding `goal`, over its premises reduced by
    `ih` with their share of the k occurrences tracked on `side` (0 the
    antecedent, 1 the succedent). Each premise keeps all k but a cut's:
    the premise whose side they stand on (the right one for the
    antecedent) takes as many as that side holds besides the cut formula,
    the other premise the rest."""
    counts = [k] * len(d.premises)
    if d.rule == "cut":
        i = 1 - side
        held = sequent_key(d.premises[i].conclusion)[side].count(phi_key)
        counts[i] = min(k, held - (alpha_key(info.cut_formula) == phi_key))
        counts[side] = k - counts[i]
    premises = tuple(ih(q, m) for q, m in zip(d.premises, counts))
    return ProofNode(d.rule, goal, premises, terms=d.terms, eigen=d.eigen)


# ---------------------------------------------------------------------------
# right reduction


def right_reduce(
    d1: ProofNode,
    d2: ProofNode,
    phi: Formula,
    k: int,
    avoid: Iterable[str] = (),
    trace: Optional[list] = None,
) -> ProofNode:
    """Reduce a cut on phi with left premise d1 |- G => D, phi (phi principal
    in the last inference of d1) against d2 |- phi^k, P => S, producing a
    proof of G^k, P => D^k, S whose cuts all have degree below phi's."""
    key = _reducible(d1, d2, phi, k, 1, k)
    if d1.rule != "ax":
        info1 = analyze_step(d1)
        # d1 must end in a right rule, neither wr nor cr, with phi principal
        if d1.rule in ("wr", "cr") or not _principal_on(d1, info1, "suc", key):
            raise ReductionError("cut formula is not principal in the left premise")
    d1, d2 = _corregularize(d1, d2, avoid)
    gamma = d1.conclusion.ant
    delta = without(d1.conclusion.suc, (phi,))
    out = _rr(d1, gamma, delta, d2, phi, k, [] if trace is None else trace)
    return regularize(out, avoid)


def _mixed(gamma, delta, seqt: Sequent, phi: Formula, m: int) -> Sequent:
    """Target sequent with m tracked antecedent occurrences replaced by m
    copies of the (gamma => delta) context, antecedent copies first."""
    return Sequent(gamma * m + without(seqt.ant, (phi,) * m), delta * m + seqt.suc)


def _rr(d1, gamma, delta, d2, phi, k, trace) -> ProofNode:
    phi_key = alpha_key(phi)
    if d1.rule == "ax":
        trace.append("rr:ax-left")
        return d2
    if d2.rule == "ax":
        trace.append("rr:ax-right")
        return d1

    info = analyze_step(d2)
    rule = d2.rule
    hit = _principal_on(d2, info, "ant", phi_key)

    goal = _mixed(gamma, delta, d2.conclusion, phi, k)

    def ih(premise: ProofNode, m: int) -> ProofNode:
        return _rr(d1, gamma, delta, premise, phi, m, trace) if m else premise

    if rule == "wl" and hit:
        trace.append("rr:weaken-absorb")
        return weaken_to(ih(d2.premises[0], k - 1), goal)

    if rule == "cl" and hit:
        trace.append("rr:contract-absorb")
        return fit_to(ih(d2.premises[0], k + 1), goal)

    if hit and rule == "negl":
        trace.append("rr:neg")
        q = ih(d2.premises[0], k - 1)
        return mk_cut(q, d1.premises[0], phi.sub)

    if hit and rule == "andl":
        trace.append("rr:and")
        q = ih(d2.premises[0], k - 1)
        c1 = mk_cut(d1.premises[0], q, phi.left)
        c2 = mk_cut(d1.premises[1], c1, phi.right)
        return fit_to(c2, goal)

    if hit and rule == "orl":
        trace.append("rr:or")
        q1 = ih(d2.premises[0], k - 1)
        q2 = ih(d2.premises[1], k - 1)
        c1 = mk_cut(d1.premises[0], q1, phi.left)
        c2 = mk_cut(c1, q2, phi.right)
        return fit_to(c2, goal)

    if hit and rule == "impl":
        trace.append("rr:imp")
        q1 = ih(d2.premises[0], k - 1)
        q2 = ih(d2.premises[1], k - 1)
        c1 = mk_cut(q1, d1.premises[0], phi.left)
        c2 = mk_cut(c1, q2, phi.right)
        return fit_to(c2, goal)

    if hit and rule == "iffl":
        trace.append("rr:iff")
        alpha, beta = phi.left, phi.right
        q1 = ih(d2.premises[0], k - 1)
        q2 = ih(d2.premises[1], k - 1)
        p1, p2 = d1.premises
        c1 = mk_cut(q1, p1, alpha)
        # c1 carries two copies of beta (one from each premise); merge them
        # so it can serve as the left premise of the last cut below
        c1 = fit_to(
            c1,
            Sequent(c1.conclusion.ant, without(c1.conclusion.suc, (beta,))),
        )
        c2 = mk_cut(c1, p2, beta)
        c3 = mk_cut(c2, q2, alpha)
        c4 = mk_cut(c1, c3, beta)
        return fit_to(c4, goal)

    if hit and rule == "foralll":
        trace.append("rr:forall")
        t = info.terms[0]
        inst = substitute(phi.body, phi.bound, t)
        p_t = subst_param_proof(d1.premises[0], analyze_step(d1).eigen, t)
        q = ih(d2.premises[0], k - 1)
        return mk_cut(p_t, q, inst)

    if hit and rule == "existsl":
        trace.append("rr:exists")
        t = analyze_step(d1).terms[0]
        inst = substitute(phi.body, phi.bound, t)
        q = ih(d2.premises[0], k - 1)
        q = subst_param_proof(q, info.eigen, t)
        return mk_cut(d1.premises[0], q, inst)

    if hit and rule == "laml":
        trace.append("rr:lam")
        inst = substitute(phi.body, phi.bound, phi.arg)
        q = ih(d2.premises[0], k - 1)
        return mk_cut(d1.premises[0], q, inst)

    if hit and rule == "iota1l":
        trace.append("rr:iota1")
        it: IotaTerm = phi.arg
        b = analyze_step(d1).terms[0]
        phi_b = substitute(it.body, it.bound, b)
        psi_b = substitute(phi.body, phi.bound, b)
        q = ih(d2.premises[0], k - 1)
        q = subst_param_proof(q, info.eigen, b)
        c1 = mk_cut(d1.premises[0], q, phi_b)
        c2 = mk_cut(d1.premises[1], c1, psi_b)
        return fit_to(c2, goal)

    if hit and rule == "iota2l":
        trace.append("rr:iota2")
        it: IotaTerm = phi.arg
        info1 = analyze_step(d1)
        b = info1.terms[0]
        b1, b2 = info.terms
        inst1 = substitute(it.body, it.bound, b1)
        inst2 = substitute(it.body, it.bound, b2)
        p3 = d1.premises[2]
        a_r = info1.eigen
        sub1 = subst_param_proof(p3, a_r, b1)
        sub2 = subst_param_proof(p3, a_r, b2)
        q1 = ih(d2.premises[0], k - 1)
        q2 = ih(d2.premises[1], k - 1)
        q3 = ih(d2.premises[2], k - 1)
        st = build_sym_trans(b1, b2, b)
        c_eq = mk_cut(st, q3, Identity(b1, b2))
        c_b1 = mk_cut(q1, sub1, inst1)
        c_b2 = mk_cut(q2, sub2, inst2)
        c_mid = mk_cut(c_b1, c_eq, Identity(b1, b))
        c_fin = mk_cut(c_b2, c_mid, Identity(b2, b))
        return fit_to(c_fin, goal)

    # every tracked occurrence is parametric in the last inference of d2
    trace.append(f"rr:parametric:{rule}")
    return _parametric(d2, info, goal, phi_key, k, 0, ih)


# ---------------------------------------------------------------------------
# left reduction


def left_reduce(
    d1: ProofNode,
    d2: ProofNode,
    phi: Formula,
    k: int,
    avoid: Iterable[str] = (),
    trace: Optional[list] = None,
) -> ProofNode:
    """Reduce a cut on phi with left premise d1 |- G => D, phi^k and right
    premise d2 |- phi, P => S (phi need not be principal anywhere),
    producing a proof of G, P^k => D, S^k with all cuts below phi's degree."""
    _reducible(d1, d2, phi, k, k, 1)
    d1, d2 = _corregularize(d1, d2, avoid)
    pi = without(d2.conclusion.ant, (phi,))
    sigma = d2.conclusion.suc
    out = _lr(d1, d2, pi, sigma, phi, k, [] if trace is None else trace)
    return regularize(out, avoid)


def _lr_mixed(pi, sigma, seqt: Sequent, phi: Formula, m: int) -> Sequent:
    return Sequent(seqt.ant + pi * m, without(seqt.suc, (phi,) * m) + sigma * m)


def _lr(d1, d2, pi, sigma, phi, k, trace) -> ProofNode:
    phi_key = alpha_key(phi)
    if d1.rule == "ax":
        trace.append("lr:ax")
        return d2

    info = analyze_step(d1)
    rule = d1.rule
    hit = _principal_on(d1, info, "suc", phi_key)

    goal = _lr_mixed(pi, sigma, d1.conclusion, phi, k)

    def ih(premise: ProofNode, m: int) -> ProofNode:
        return _lr(premise, d2, pi, sigma, phi, m, trace) if m else premise

    if rule == "wr" and hit:
        trace.append("lr:weaken-absorb")
        return weaken_to(ih(d1.premises[0], k - 1), goal)

    if rule == "cr" and hit:
        trace.append("lr:contract-absorb")
        return fit_to(ih(d1.premises[0], k + 1), goal)

    # after wr and cr, a succedent principal formula is a right rule's
    if hit:
        trace.append(f"lr:dispatch:{rule}")
        if k == 1:
            lifted = d1
        else:
            new_premises = tuple(ih(q, k - 1) for q in d1.premises)
            lifted_concl = Sequent(
                d1.conclusion.ant + pi * (k - 1),
                without(d1.conclusion.suc, (phi,) * k) + sigma * (k - 1) + (phi,),
            )
            lifted = ProofNode(
                rule, lifted_concl, new_premises, terms=d1.terms, eigen=d1.eigen
            )
        g2 = lifted.conclusion.ant
        d2_ = without(lifted.conclusion.suc, (phi,))
        return _rr(lifted, g2, d2_, d2, phi, 1, trace)

    # parametric: recurse through d1's last inference
    trace.append(f"lr:parametric:{rule}")
    return _parametric(d1, info, goal, phi_key, k, 1, ih)


# ---------------------------------------------------------------------------
# the elimination loop


def _splice(node: ProofNode, parts: tuple, replacement: ProofNode) -> ProofNode:
    """`node` with the subtree at the premise indices `parts` replaced: a
    loop down the path, then one back up that rebuilds each node on it."""
    path = []
    for i in parts:
        path.append(node)
        node = node.premises[i]
    for node, i in zip(reversed(path), reversed(parts)):
        replacement = replace(node, premises=(*node.premises[:i], replacement, *node.premises[i + 1 :]))
    return replacement


def _topmost(proof: ProofNode) -> tuple[tuple, ProofNode]:
    """The premise indices from the root to the first cut of maximal degree,
    in pre-order, that has no such cut in its premises, and that cut. Each
    step descends into the first premise holding a cut of that degree."""
    top, parts, node = proof.cuts[0], [], proof
    while True:
        for i, q in enumerate(node.premises):
            if q.cuts[0] == top:
                parts.append(i)
                node = q
                break
        else:
            return tuple(parts), node


def eliminate_cuts_traced(proof: ProofNode) -> tuple[ProofNode, list[TraceEntry]]:
    """Repeatedly reduce the topmost maximal cut until none remain. Returns
    the cut-free proof and one trace entry per reduction."""
    check_proof(proof)
    trace: list[TraceEntry] = []
    p = regularize(proof)
    before = p.cuts
    while before[1]:
        maxdeg = before[0]
        parts, node = _topmost(p)
        chi = analyze_step(node).cut_formula
        cases: list[str] = []
        ambient = proof_params(p)
        reduced = left_reduce(
            node.premises[0], node.premises[1], chi, 1, avoid=ambient, trace=cases
        )
        assert reduced.cuts[0] < maxdeg, "reduction must lower the degree"
        reduced = fit_to(reduced, node.conclusion)
        p = _splice(p, parts, reduced)
        assert is_regular(p)
        after = p.cuts
        assert after < before, "the (degree, maximal-cut-count) measure must drop"
        trace.append(
            TraceEntry(
                path=dotted(parts),
                formula=chi,
                degree=maxdeg,
                cases=tuple(cases),
                degree_before=max(before[0], 0),
                maximal_before=before[1],
                degree_after=max(after[0], 0),
                maximal_after=after[1],
            )
        )
        before = after
    return p, trace


def eliminate_cuts(proof: ProofNode) -> ProofNode:
    return eliminate_cuts_traced(proof)[0]
