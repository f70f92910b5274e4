"""Mechanized proof construction.

Everything here builds ProofNode trees that the kernel accepts as-is; the
tests re-check every construction. The main entry points:

  * without / weaken_to / contract_to / fit_to / mk_cut: structural plumbing.
  * flip_identity: replace an antecedent identity b=c by c=b (two nodes,
    via the equality rules; identity map when b and c coincide).
  * build_sym_trans: b1=b, b2=b ==> b1=b2 in exactly four nodes.
  * build_leibniz: cut-free congruence proofs  b1=b2, A[x/b1] ==> A[x/b2]
    by recursion on A, for any formula including description atoms.
  * build_rlambda_left / build_rlambda_right: cut-free derivations relating
    a description atom to its first-order paraphrase
    exists x (forall y (phi <-> y = x) & psi), one direction each.
  * derived_iota1l / derived_iota2l / derived_iotar: the three description
    rules reconstructed from their premises using the paraphrase bridge and
    cuts (one, one and two cuts respectively) instead of the primitive rule.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from .kernel import ProofNode
from .syntax import (
    And,
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
    Sequent,
    Term,
    Var,
    alpha_key,
    free_vars,
    is_atomic,
    is_formula,
    params_in,
    replace,
    scan_fresh,
    sequent_key,
    substitute,
)


def ax(f: Formula) -> ProofNode:
    return ProofNode("ax", Sequent((f,), (f,)))


def without(forms: tuple, removed: tuple) -> tuple:
    """`forms` less the multiset `removed`: for each alpha key, as many of
    its first occurrences as `removed` holds, the rest in their order;
    raises ValueError when `removed` is not a sub-multiset of `forms`."""
    left = sorted([alpha_key(f) for f in removed])
    out = []
    for f in forms:
        k = alpha_key(f)
        i = bisect_left(left, k)
        if i < len(left) and left[i] == k:
            del left[i]
        else:
            out.append(f)
    if left:
        raise ValueError(f"not a sub-multiset: {removed!r} of {forms!r}")
    return tuple(out)


def _refit(proof: ProofNode, node: ProofNode, target: Sequent) -> ProofNode:
    """`node` (proof, or structural steps on it) concluding `target`. A
    reordered conclusion drops `:at`, which indexed the old order."""
    if node is proof and proof.conclusion == target:
        return proof
    return replace(node, conclusion=target, at=None)


def weaken_to(proof: ProofNode, target: Sequent) -> ProofNode:
    """Weaken until the conclusion is exactly `target` (which must extend
    the current conclusion as a multiset on both sides)."""
    cur = proof.conclusion
    add_ant, add_suc = without(target.ant, cur.ant), without(target.suc, cur.suc)
    node = proof
    ant, suc = cur.ant, cur.suc
    for f in add_ant:
        ant = (f,) + ant
        node = ProofNode("wl", Sequent(ant, suc), (node,))
    for f in add_suc:
        suc = suc + (f,)
        node = ProofNode("wr", Sequent(ant, suc), (node,))
    return _refit(proof, node, target)


def contract_to(proof: ProofNode, target: Sequent) -> ProofNode:
    """Contract duplicate formulas until the conclusion is exactly `target`
    (every formula of the current conclusion must survive in target, just
    with smaller multiplicities)."""
    sides = [proof.conclusion.ant, proof.conclusion.suc]
    node = proof
    for i, rule in enumerate(("cl", "cr")):
        goal = (target.ant, target.suc)[i]
        keep = sequent_key(target)[i]
        for f in without(sides[i], goal):
            if alpha_key(f) not in keep:
                raise ValueError(f"cannot contract {f!r} away entirely")
            sides[i] = without(sides[i], (f,))
            node = ProofNode(rule, Sequent(*sides), (node,))
    return _refit(proof, node, target)


def fit_to(proof: ProofNode, target: Sequent) -> ProofNode:
    """Reach `target` by contracting surplus copies, then weakening in
    whatever is missing."""

    def trimmed(forms: tuple, goal: tuple[str, ...]) -> tuple:
        out, kept = [], []
        for f in forms:
            k = alpha_key(f)
            # a key not in goal is kept: not contractible to zero, and
            # weaken_to will fail
            if k not in goal or kept.count(k) < goal.count(k):
                out.append(f)
                kept.append(k)
        return tuple(out)

    cur = proof.conclusion
    goal_ant, goal_suc = sequent_key(target)
    mid = Sequent(trimmed(cur.ant, goal_ant), trimmed(cur.suc, goal_suc))
    return weaken_to(contract_to(proof, mid), target)


def mk_cut(p1: ProofNode, p2: ProofNode, chi: Formula) -> ProofNode:
    """Cut `chi` out of p1's succedent and p2's antecedent."""
    c1, c2 = p1.conclusion, p2.conclusion
    concl = Sequent(c1.ant + without(c2.ant, (chi,)), without(c1.suc, (chi,)) + c2.suc)
    return ProofNode("cut", concl, (p1, p2))


def flip_identity(proof: ProofNode, eq: Identity) -> ProofNode:
    """Turn an antecedent occurrence of t=s into s=t, preserving its
    position. Identity map when both sides coincide."""
    if eq.lhs == eq.rhs:
        return proof
    A, S = proof.conclusion.ant, proof.conclusion.suc
    idx = next((i for i, g in enumerate(A) if g == eq), None)
    if idx is None:
        raise ValueError(f"equation {eq} not in the antecedent")
    rev = Identity(eq.rhs, eq.lhs)
    base = A[:idx] + A[idx + 1 :]
    refl = Identity(rev.lhs, rev.lhs)
    n1 = ProofNode("eqminus", Sequent((rev, refl) + base, S), (proof,))
    final = A[:idx] + (rev,) + A[idx + 1 :]
    return ProofNode("eqplus", Sequent(final, S), (n1,))


def build_sym_trans(b1: Term, b2: Term, b: Term) -> ProofNode:
    """b1=b, b2=b ==> b1=b2 in four nodes (axiom, two rewrites, one
    reflexivity discharge)."""
    goal = Identity(b1, b2)
    n1 = ax(goal)
    n2 = ProofNode(
        "eqminus", Sequent((Identity(b, b2), Identity(b1, b)), (goal,)), (n1,)
    )
    n3 = ProofNode(
        "eqminus",
        Sequent((Identity(b2, b), Identity(b2, b2), Identity(b1, b)), (goal,)),
        (n2,),
    )
    return ProofNode(
        "eqplus", Sequent((Identity(b1, b), Identity(b2, b)), (goal,)), (n3,)
    )


# ---------------------------------------------------------------------------
# congruence (Leibniz) proofs


def build_leibniz(
    phi: Formula,
    x: str,
    b1: Term,
    b2: Term,
    supply: Optional[ParamSupply] = None,
) -> ProofNode:
    """Cut-free proof of  b1=b2, phi[x/b1] ==> phi[x/b2]  by recursion on
    phi. b1 and b2 are parameters or constants; phi may use x as its only
    free variable (all other variables bound)."""
    if not is_formula(phi):
        raise TypeError(f"not a formula: {phi!r}")
    if supply is None:
        supply = ParamSupply(params_in((phi, b1, b2)))
    eq = Identity(b1, b2)
    phi1 = substitute(phi, x, b1)
    phi2 = substitute(phi, x, b2)
    goal = Sequent((eq, phi1), (phi2,))

    if b1 == b2 or x not in free_vars(phi):
        return weaken_to(ax(phi1), goal)

    if is_atomic(phi):
        return ProofNode("eqminus", goal, (ax(phi2),))

    if isinstance(phi, Not):
        chi = phi.sub
        ih = flip_identity(
            build_leibniz(chi, x, b2, b1, supply), Identity(b2, b1)
        )  # eq, chi2 ==> chi1
        chi1, chi2 = substitute(chi, x, b1), substitute(chi, x, b2)
        n1 = ProofNode(
            "negl", Sequent((Not(chi1), eq, chi2), ()), (weaken_to(ih, Sequent((eq, chi2), (chi1,))),)
        )
        return ProofNode("negr", goal, (n1,))

    if isinstance(phi, And):
        parts = []
        for side in (phi.left, phi.right):
            ih = build_leibniz(side, x, b1, b2, supply)
            s1 = (substitute(phi.left, x, b1), substitute(phi.right, x, b1))
            w = weaken_to(ih, Sequent((eq,) + s1, (substitute(side, x, b2),)))
            parts.append(
                ProofNode("andl", Sequent((eq, phi1), (substitute(side, x, b2),)), (w,))
            )
        return ProofNode("andr", goal, tuple(parts))

    if isinstance(phi, Or):
        parts = []
        for side in (phi.left, phi.right):
            ih = build_leibniz(side, x, b1, b2, supply)
            w = weaken_to(
                ih,
                Sequent(
                    (eq, substitute(side, x, b1)),
                    (substitute(phi.left, x, b2), substitute(phi.right, x, b2)),
                ),
            )
            parts.append(ProofNode("orr", Sequent((eq, substitute(side, x, b1)), (phi2,)), (w,)))
        return ProofNode("orl", goal, tuple(parts))

    if isinstance(phi, Imp):
        chi, xi = phi.left, phi.right
        chi1, chi2 = substitute(chi, x, b1), substitute(chi, x, b2)
        xi1, xi2 = substitute(xi, x, b1), substitute(xi, x, b2)
        core_l = flip_identity(
            build_leibniz(chi, x, b2, b1, supply), Identity(b2, b1)
        )  # eq, chi2 ==> chi1
        core_r = build_leibniz(xi, x, b1, b2, supply)  # eq, xi1 ==> xi2
        p1 = weaken_to(core_l, Sequent((chi2, eq), (xi2, chi1)))
        p2 = weaken_to(core_r, Sequent((xi1, chi2, eq), (xi2,)))
        n1 = ProofNode("impl", Sequent((phi1, chi2, eq), (xi2,)), (p1, p2))
        return ProofNode("impr", goal, (n1,))

    if isinstance(phi, Iff):
        chi, xi = phi.left, phi.right
        chi1, chi2 = substitute(chi, x, b1), substitute(chi, x, b2)
        xi1, xi2 = substitute(xi, x, b1), substitute(xi, x, b2)
        lei_chi = build_leibniz(chi, x, b1, b2, supply)  # eq, chi1 ==> chi2
        lei_xi = build_leibniz(xi, x, b1, b2, supply)  # eq, xi1 ==> xi2
        rev = Identity(b2, b1)
        lei_chi_r = flip_identity(build_leibniz(chi, x, b2, b1, supply), rev)
        lei_xi_r = flip_identity(build_leibniz(xi, x, b2, b1, supply), rev)
        # chi2, eq, phi1 ==> xi2
        q1 = ProofNode(
            "iffl",
            Sequent((phi1, chi2, eq), (xi2,)),
            (
                weaken_to(lei_chi_r, Sequent((chi2, eq), (xi2, chi1, xi1))),
                weaken_to(lei_xi, Sequent((chi1, xi1, chi2, eq), (xi2,))),
            ),
        )
        # xi2, eq, phi1 ==> chi2
        q2 = ProofNode(
            "iffl",
            Sequent((phi1, xi2, eq), (chi2,)),
            (
                weaken_to(lei_xi_r, Sequent((xi2, eq), (chi2, chi1, xi1))),
                weaken_to(lei_chi, Sequent((chi1, xi1, xi2, eq), (chi2,))),
            ),
        )
        return ProofNode("iffr", goal, (q1, q2))

    if isinstance(phi, (Forall, Exists)):
        yv, chi = phi.bound, phi.body
        a = supply.fresh()
        inst = substitute(chi, yv, a)
        ih = build_leibniz(inst, x, b1, b2, supply)
        inst1, inst2 = substitute(inst, x, b1), substitute(inst, x, b2)
        if isinstance(phi, Forall):
            n1 = ProofNode(
                "foralll", Sequent((eq, phi1), (inst2,)), (ih,), terms=(a,)
            )
            return ProofNode("forallr", goal, (n1,), eigen=a)
        n1 = ProofNode("existsr", Sequent((eq, inst1), (phi2,)), (ih,), terms=(a,))
        return ProofNode("existsl", goal, (n1,), eigen=a)

    if isinstance(phi, LambdaAtom) and not isinstance(phi.arg, IotaTerm):
        t = phi.arg
        core = substitute(phi.body, phi.bound, t)
        ih = build_leibniz(core, x, b1, b2, supply)
        core2 = substitute(core, x, b2)
        n1 = ProofNode("laml", Sequent((eq, phi1), (core2,)), (ih,))
        return ProofNode("lamr", goal, (n1,))

    if isinstance(phi, LambdaAtom):
        # description atom: unfold on the left (eigen a), reintroduce on the
        # right with the same witness, using the uniqueness premise to pull
        # any other witness c back to a
        psi, x0 = phi.body, phi.bound
        chi, y0 = phi.arg.body, phi.arg.bound
        a = supply.fresh()
        c = supply.fresh()
        chi_a = substitute(chi, y0, a)
        chi_c = substitute(chi, y0, c)
        psi_a = substitute(psi, x0, a)

        def at1(f):
            return substitute(f, x, b1)

        def at2(f):
            return substitute(f, x, b2)

        ih_chi = build_leibniz(chi_a, x, b1, b2, supply)
        ih_psi = build_leibniz(psi_a, x, b1, b2, supply)
        ih_back = flip_identity(
            build_leibniz(chi_c, x, b2, b1, supply), Identity(b2, b1)
        )  # eq, chi_c[b2] ==> chi_c[b1]

        gamma = (at1(chi_a), at1(psi_a), eq, phi1)
        p1 = weaken_to(ih_chi, Sequent(gamma, (at2(chi_a),)))
        p2 = weaken_to(ih_psi, Sequent(gamma, (at2(psi_a),)))

        inner = (at2(chi_c), at1(chi_a), at1(psi_a), eq)
        q1 = weaken_to(ih_back, Sequent(inner, (Identity(c, a), at1(chi_c))))
        q2 = weaken_to(ax(at1(chi_a)), Sequent(inner, (Identity(c, a), at1(chi_a))))
        q3 = weaken_to(
            ax(Identity(c, a)), Sequent((Identity(c, a),) + inner, (Identity(c, a),))
        )
        p3 = ProofNode(
            "iota2l",
            Sequent((phi1,) + inner[:-1] + (eq,), (Identity(c, a),)),
            (q1, q2, q3),
            terms=(c, a),
        )
        n_iotar = ProofNode(
            "iotar", Sequent(gamma, (phi2,)), (p1, p2, p3), terms=(a,), eigen=c
        )
        n_unfold = ProofNode(
            "iota1l", Sequent((eq, phi1, phi1), (phi2,)), (n_iotar,), eigen=a
        )
        return ProofNode("cl", goal, (n_unfold,))


# ---------------------------------------------------------------------------
# the first-order paraphrase of a description atom


def paraphrase(dd: LambdaAtom) -> Exists:
    """exists x (forall y (phi <-> y = x) & psi) for (lam x. psi)(iota y. phi),
    reusing the bound names when that causes no capture."""
    if not isinstance(dd.arg, IotaTerm):
        raise ValueError("paraphrase needs a description argument")
    psi, x = dd.body, dd.bound
    phi, y = dd.arg.body, dd.arg.bound
    if x in free_vars(phi) or x == y:
        x2 = scan_fresh("u", free_vars(phi) | free_vars(psi) | {y})
        psi = substitute(psi, x, Var(x2))
        x = x2
    if y in free_vars(psi):
        y2 = scan_fresh("v", free_vars(phi) | free_vars(psi) | {x})
        phi = substitute(phi, y, Var(y2))
        y = y2
    uniq = Forall(y, Iff(phi, Identity(Var(y), Var(x))))
    return Exists(x, And(uniq, psi))


def _dd_parts(dd: LambdaAtom):
    ex = paraphrase(dd)
    x = ex.bound
    uniq, psi = ex.body.left, ex.body.right
    y = uniq.bound
    phi = uniq.body.left
    return ex, x, psi, y, phi


def _uni_at(ex: Exists, t: Term) -> Formula:
    return substitute(ex.body.left, ex.bound, t)


def build_rlambda_left(dd: LambdaAtom) -> ProofNode:
    """Cut-free proof of  dd ==> paraphrase(dd)."""
    ex, x, psi, y, phi = _dd_parts(dd)
    supply = ParamSupply(params_in(dd))
    a = supply.fresh()
    a1 = supply.fresh()
    phi_a = substitute(phi, y, a)
    phi_a1 = substitute(phi, y, a1)
    psi_a = substitute(psi, x, a)
    eq = Identity(a1, a)

    # uniqueness half: phi at a1 and the description force a1 = a
    q1 = weaken_to(ax(phi_a1), Sequent((phi_a, phi_a1), (eq, phi_a1)))
    q2 = weaken_to(ax(phi_a), Sequent((phi_a, phi_a1), (eq, phi_a)))
    q3 = weaken_to(ax(eq), Sequent((eq, phi_a, phi_a1), (eq,)))
    daux = ProofNode(
        "iota2l", Sequent((dd, phi_a, phi_a1), (eq,)), (q1, q2, q3), terms=(a1, a)
    )
    lb = weaken_to(
        flip_identity(build_leibniz(phi, y, a, a1, supply), Identity(a, a1)),
        Sequent((eq, dd, phi_a), (phi_a1,)),
    )
    n_iff = ProofNode(
        "iffr", Sequent((dd, phi_a), (Iff(phi_a1, eq),)), (daux, lb)
    )
    uni_a = _uni_at(ex, a)
    n_uni = ProofNode("forallr", Sequent((dd, phi_a), (uni_a,)), (n_iff,), eigen=a1)
    n_w = ProofNode("wl", Sequent((psi_a, dd, phi_a), (uni_a,)), (n_uni,))
    wit = And(uni_a, psi_a)
    n_and = ProofNode(
        "andr",
        Sequent((psi_a, dd, phi_a), (wit,)),
        (n_w, weaken_to(ax(psi_a), Sequent((psi_a, dd, phi_a), (psi_a,)))),
    )
    n_ex = ProofNode("existsr", Sequent((psi_a, dd, phi_a), (ex,)), (n_and,), terms=(a,))
    n_unfold = ProofNode("iota1l", Sequent((dd, dd), (ex,)), (n_ex,), eigen=a)
    return ProofNode("cl", Sequent((dd,), (ex,)), (n_unfold,))


def build_rlambda_right(dd: LambdaAtom) -> ProofNode:
    """Cut-free proof of  paraphrase(dd) ==> dd."""
    ex, x, psi, y, phi = _dd_parts(dd)
    supply = ParamSupply(params_in(dd))
    w = supply.fresh()
    e = supply.fresh()
    phi_w = substitute(phi, y, w)
    psi_w = substitute(psi, x, w)
    phi_e = substitute(phi, y, e)
    uni_w = _uni_at(ex, w)
    ww = Identity(w, w)
    ew = Identity(e, w)

    # premise 1: the witness satisfies the description body
    refl = ProofNode("eqplus", Sequent((), (ww,)), (ax(ww),))
    i1 = weaken_to(refl, Sequent((psi_w,), (phi_w, phi_w, ww)))
    i2 = weaken_to(ax(phi_w), Sequent((phi_w, ww, psi_w), (phi_w,)))
    r1_iff = ProofNode(
        "iffl", Sequent((Iff(phi_w, ww), psi_w), (phi_w,)), (i1, i2)
    )
    r1 = ProofNode(
        "foralll", Sequent((uni_w, psi_w), (phi_w,)), (r1_iff,), terms=(w,)
    )

    # premise 2: the witness satisfies the abstract body
    r2 = weaken_to(ax(psi_w), Sequent((uni_w, psi_w), (psi_w,)))

    # premise 3: uniqueness pulls any satisfier back to the witness
    j1 = weaken_to(ax(phi_e), Sequent((phi_e, psi_w), (ew, phi_e, ew)))
    j2 = weaken_to(ax(ew), Sequent((phi_e, ew, phi_e, psi_w), (ew,)))
    r3_iff = ProofNode(
        "iffl", Sequent((Iff(phi_e, ew), phi_e, psi_w), (ew,)), (j1, j2)
    )
    r3 = ProofNode(
        "foralll", Sequent((phi_e, uni_w, psi_w), (ew,)), (r3_iff,), terms=(e,)
    )

    n_iotar = ProofNode(
        "iotar", Sequent((uni_w, psi_w), (dd,)), (r1, r2, r3), terms=(w,), eigen=e
    )
    n_andl = ProofNode("andl", Sequent((And(uni_w, psi_w),), (dd,)), (n_iotar,))
    return ProofNode("existsl", Sequent((ex,), (dd,)), (n_andl,), eigen=w)


# ---------------------------------------------------------------------------
# the description rules, derived via the paraphrase


def derived_iota1l(prem: ProofNode, dd: LambdaAtom, a: Param) -> ProofNode:
    """From  phi[y/a], psi[x/a], Gamma ==> Delta  (a suitably fresh) derive
    dd, Gamma ==> Delta  with one cut against the left paraphrase bridge,
    never using the primitive left description rule."""
    ex, x, psi, y, phi = _dd_parts(dd)
    phi_a = substitute(phi, y, a)
    psi_a = substitute(psi, x, a)
    gamma = without(prem.conclusion.ant, (phi_a, psi_a))
    delta = prem.conclusion.suc
    if a.name in params_in(Sequent((dd,) + gamma, delta)):
        raise ValueError(f"parameter {a.name} is not fresh for the conclusion")
    aa = Identity(a, a)

    refl = ProofNode("eqplus", Sequent((), (aa,)), (ax(aa),))
    k1 = weaken_to(refl, Sequent((psi_a,) + gamma, delta + (phi_a, aa)))
    k2 = weaken_to(prem, Sequent((phi_a, aa, psi_a) + gamma, delta))
    n_iff = ProofNode(
        "iffl", Sequent((Iff(phi_a, aa), psi_a) + gamma, delta), (k1, k2)
    )
    n_all = ProofNode(
        "foralll",
        Sequent((_uni_at(ex, a), psi_a) + gamma, delta),
        (n_iff,),
        terms=(a,),
    )
    n_andl = ProofNode(
        "andl", Sequent((And(_uni_at(ex, a), psi_a),) + gamma, delta), (n_all,)
    )
    n_exl = ProofNode("existsl", Sequent((ex,) + gamma, delta), (n_andl,), eigen=a)
    return mk_cut(build_rlambda_left(dd), n_exl, ex)


def derived_iota2l(
    prem1: ProofNode,
    prem2: ProofNode,
    prem3: ProofNode,
    dd: LambdaAtom,
    b1: Term,
    b2: Term,
) -> ProofNode:
    """From  Gamma ==> Delta, phi[y/b1]  and  Gamma ==> Delta, phi[y/b2]
    and  b1=b2, Gamma ==> Delta  derive  dd, Gamma ==> Delta  with one cut
    against the left paraphrase bridge."""
    ex, x, psi, y, phi = _dd_parts(dd)
    phi1 = substitute(phi, y, b1)
    phi2 = substitute(phi, y, b2)
    eq12 = Identity(b1, b2)
    gamma = without(prem3.conclusion.ant, (eq12,))
    delta = prem3.conclusion.suc
    avoid = params_in((prem1.conclusion, prem2.conclusion, prem3.conclusion, dd, b1, b2))
    w = Param(scan_fresh("w", avoid))
    psi_w = substitute(psi, x, w)
    uni_w = _uni_at(ex, w)
    e1w = Identity(b1, w)
    e2w = Identity(b2, w)

    e_rw = ProofNode(
        "eqminus", Sequent((Identity(w, b2), e1w) + gamma, delta), (prem3,)
    )
    flipped = flip_identity(e_rw, Identity(w, b2))  # b2=w, b1=w, Gamma ==> Delta
    m1 = weaken_to(prem2, Sequent((e1w,) + gamma, delta + (phi2, e2w)))
    m2 = weaken_to(flipped, Sequent((phi2, e2w, e1w) + gamma, delta))
    iff1 = ProofNode(
        "iffl", Sequent((Iff(phi2, e2w), e1w) + gamma, delta), (m1, m2)
    )
    n1 = weaken_to(prem1, Sequent((Iff(phi2, e2w),) + gamma, delta + (phi1, e1w)))
    n2 = weaken_to(iff1, Sequent((phi1, e1w, Iff(phi2, e2w)) + gamma, delta))
    iff2 = ProofNode(
        "iffl",
        Sequent((Iff(phi1, e1w), Iff(phi2, e2w)) + gamma, delta),
        (n1, n2),
    )
    all1 = ProofNode(
        "foralll",
        Sequent((uni_w, Iff(phi2, e2w)) + gamma, delta),
        (iff2,),
        terms=(b1,),
    )
    all2 = ProofNode(
        "foralll", Sequent((uni_w, uni_w) + gamma, delta), (all1,), terms=(b2,)
    )
    n_cl = ProofNode("cl", Sequent((uni_w,) + gamma, delta), (all2,))
    n_wl = ProofNode("wl", Sequent((psi_w, uni_w) + gamma, delta), (n_cl,))
    n_andl = ProofNode(
        "andl", Sequent((And(uni_w, psi_w),) + gamma, delta), (n_wl,)
    )
    n_exl = ProofNode("existsl", Sequent((ex,) + gamma, delta), (n_andl,), eigen=w)
    return mk_cut(build_rlambda_left(dd), n_exl, ex)


def derived_iotar(
    prem1: ProofNode,
    prem2: ProofNode,
    prem3: ProofNode,
    dd: LambdaAtom,
    b: Term,
    a: Param,
) -> ProofNode:
    """From  Gamma ==> Delta, phi[y/b]  and  Gamma ==> Delta, psi[x/b]  and
    phi[y/a], Gamma ==> Delta, a=b  (a suitably fresh) derive
    Gamma ==> Delta, dd  with two cuts (one for the congruence step, one
    against the right paraphrase bridge)."""
    ex, x, psi, y, phi = _dd_parts(dd)
    phi_b = substitute(phi, y, b)
    phi_a = substitute(phi, y, a)
    psi_b = substitute(psi, x, b)
    gamma = without(prem3.conclusion.ant, (phi_a,))
    delta = without(prem3.conclusion.suc, (Identity(a, b),))
    if a.name in params_in(Sequent(gamma, delta + (dd,))) or a == b:
        raise ValueError(f"parameter {a.name} is not fresh for the conclusion")
    avoid = params_in((prem1.conclusion, prem2.conclusion, prem3.conclusion, dd, a, b))
    supply = ParamSupply(avoid)

    lei = flip_identity(
        build_leibniz(phi, y, b, a, supply), Identity(b, a)
    )  # a=b, phi_b ==> phi_a
    cut1 = mk_cut(prem1, lei, phi_b)  # Gamma, a=b ==> Delta, phi_a
    n_iff = ProofNode(
        "iffr",
        Sequent(gamma, delta + (Iff(phi_a, Identity(a, b)),)),
        (prem3, cut1),
    )
    uni_b = _uni_at(ex, b)
    n_all = ProofNode(
        "forallr", Sequent(gamma, delta + (uni_b,)), (n_iff,), eigen=a
    )
    n_and = ProofNode(
        "andr",
        Sequent(gamma, delta + (And(uni_b, psi_b),)),
        (n_all, prem2),
    )
    n_ex = ProofNode(
        "existsr", Sequent(gamma, delta + (ex,)), (n_and,), terms=(b,)
    )
    return mk_cut(n_ex, build_rlambda_right(dd), ex)
