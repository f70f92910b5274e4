"""Shared random generators for the test suite.

Hypothesis strategies for formulas, plus plain-random generators (seeded
`random.Random`) used by the acceptance tests, where we want cheap bulk
sampling with size knobs rather than shrinking.
"""

import random

from hypothesis import strategies as st

from ddproof.builders import (
    ax,
    build_leibniz,
    build_sym_trans,
    contract_to,
    flip_identity,
    mk_cut,
    weaken_to,
)
from ddproof.kernel import ProofNode, cut_nodes, proof_params, proof_size
from ddproof.syntax import (
    And,
    Const,
    Exists,
    Forall,
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
    Var,
    free_vars,
    params_in,
)

TERMS = [Var("x"), Var("y"), Param("a"), Param("b"), Const("c")]


def term_strategy():
    return st.sampled_from(TERMS)


def atom_strategy():
    unary = st.builds(PredAtom, st.just("P"), st.tuples(term_strategy()))
    binary = st.builds(
        PredAtom, st.just("R"), st.tuples(term_strategy(), term_strategy())
    )
    ident = st.builds(Identity, term_strategy(), term_strategy())
    return st.one_of(unary, binary, ident)


def formula_strategy(depth=3):
    base = atom_strategy()
    if depth == 0:
        return base
    sub = formula_strategy(depth - 1)
    bound = st.sampled_from(["x", "y", "z"])
    lam_arg = st.one_of(term_strategy(), st.builds(IotaTerm, bound, sub))
    return st.one_of(
        base,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(Forall, bound, sub),
        st.builds(Exists, bound, sub),
        st.builds(LambdaAtom, bound, sub, lam_arg),
    )


def closed_formula_strategy(depth=3):
    return formula_strategy(depth).filter(lambda f: not free_vars(f))


def sequent_strategy(depth=2, max_side=3):
    forms = st.lists(closed_formula_strategy(depth), max_size=max_side)
    return st.builds(lambda a, s: Sequent(tuple(a), tuple(s)), forms, forms)


# ---------------------------------------------------------------------------
# plain-random bulk generator


class FormulaGen:
    """Random closed formulas over a small signature, with connective-count
    and description-nesting knobs. Used for the bulk agreement tests."""

    def __init__(
        self,
        rng: random.Random,
        preds=(("P", 1), ("Q", 1)),
        params=("a", "b"),
        consts=("c",),
        max_conn=5,
        max_dd_depth=2,
        allow_dd=True,
    ):
        self.rng = rng
        self.preds = list(preds)
        self.params = list(params)
        self.consts = list(consts)
        self.max_conn = max_conn
        self.max_dd_depth = max_dd_depth
        self.allow_dd = allow_dd
        self._var_counter = 0

    def term(self, scope):
        opts = []
        if scope:
            opts.append(lambda: Var(self.rng.choice(scope)))
        opts.append(lambda: Param(self.rng.choice(self.params)))
        if self.consts:
            opts.append(lambda: Const(self.rng.choice(self.consts)))
        return self.rng.choice(opts)()

    def atom(self, scope):
        if self.rng.random() < 0.25:
            return Identity(self.term(scope), self.term(scope))
        name, arity = self.rng.choice(self.preds)
        return PredAtom(name, tuple(self.term(scope) for _ in range(arity)))

    def fresh_var(self):
        self._var_counter += 1
        return f"v{self._var_counter}"

    def formula(self, budget=None, scope=(), dd_depth=0):
        if budget is None:
            budget = self.rng.randint(1, self.max_conn)
        if budget <= 0:
            return self.atom(scope)
        choices = ["not", "and", "or", "imp", "iff", "forall", "exists"]
        if self.allow_dd and dd_depth < self.max_dd_depth and budget >= 2:
            choices += ["dd", "lam"]
        kind = self.rng.choice(choices)
        scope = list(scope)
        if kind == "not":
            return Not(self.formula(budget - 1, scope, dd_depth))
        if kind in ("and", "or", "imp", "iff"):
            lb = self.rng.randint(0, budget - 1)
            ctor = {"and": And, "or": Or, "imp": Imp, "iff": Iff}[kind]
            return ctor(
                self.formula(lb, scope, dd_depth),
                self.formula(budget - 1 - lb, scope, dd_depth),
            )
        if kind in ("forall", "exists"):
            v = self.fresh_var()
            ctor = Forall if kind == "forall" else Exists
            return ctor(v, self.formula(budget - 1, scope + [v], dd_depth))
        if kind == "lam":
            v = self.fresh_var()
            body = self.formula(budget - 1, scope + [v], dd_depth)
            return LambdaAtom(v, body, self.term(scope))
        # definite description: split remaining budget between the two bodies
        v, w = self.fresh_var(), self.fresh_var()
        lb = self.rng.randint(0, budget - 2)
        body = self.formula(lb, scope + [v], dd_depth + 1)
        dbody = self.formula(budget - 2 - lb, scope + [w], dd_depth + 1)
        return LambdaAtom(v, body, IotaTerm(w, dbody))

    def sequent(self, max_side=2):
        na = self.rng.randint(0, max_side)
        ns = self.rng.randint(0, max_side)
        if na + ns == 0:
            ns = 1
        return Sequent(
            tuple(self.formula() for _ in range(na)),
            tuple(self.formula() for _ in range(ns)),
        )


def has_description(f):
    """True when the formula contains a predicate abstract applied to a
    definite description."""
    if isinstance(f, LambdaAtom):
        if isinstance(f.arg, IotaTerm):
            return True
        return has_description(f.body)
    if isinstance(f, Not):
        return has_description(f.sub)
    if isinstance(f, (And, Or, Imp, Iff)):
        return has_description(f.left) or has_description(f.right)
    if isinstance(f, (Forall, Exists)):
        return has_description(f.body)
    return False


def _drop_one(forms, f):
    out = list(forms)
    out.remove(f)
    return tuple(out)


class ProofGen:
    """Random checker-valid proofs.

    Starts from a random base (axiom, symmetry-from-transitivity, or a
    replacement-of-equals derivation) and grows it with randomly chosen
    sound steps: weakening, contraction round trips, connective and
    quantifier introductions (including the eigenvariable rules), abstract
    introductions, identity flips, and optionally cuts against an axiom.
    Formulas are drawn from the wrapped FormulaGen, so the signature stays
    small and end-sequents remain cheap to model-check."""

    def __init__(self, rng: random.Random, fgen=None, max_steps=5, allow_cuts=True):
        self.rng = rng
        self.fgen = fgen or FormulaGen(rng, max_conn=3, consts=())
        self.max_steps = max_steps
        self.allow_cuts = allow_cuts

    def _param(self):
        return Param(self.rng.choice(self.fgen.params))

    def _base(self):
        kind = self.rng.choice(("ax", "ax", "sym", "leibniz"))
        if kind == "ax":
            return ax(self.fgen.formula())
        if kind == "sym":
            return build_sym_trans(self._param(), self._param(), self._param())
        phi = self.fgen.formula(scope=["x"])
        return build_leibniz(phi, "x", Param("b1"), Param("b2"))

    def _grow_once(self, p: ProofNode) -> ProofNode:
        rng = self.rng
        ant, suc = p.conclusion.ant, p.conclusion.suc
        moves = ["wl", "wr", "contract", "andl", "orr",
                 "foralll", "existsr", "forallr", "existsl", "laml", "lamr"]
        if proof_size(p) <= 120:
            # Two-premise introductions reuse the subproof on both sides, so
            # repeated applications double the tree; only allow them while the
            # proof is still small.
            moves += ["andr", "orl", "impl"]
        if ant:
            moves += ["negr", "impr" if suc else "negr"]
        if suc:
            moves.append("negl")
        if any(isinstance(g, Identity) for g in ant):
            moves.append("flip")
        if self.allow_cuts:
            moves += ["cutr", "cutl"]
        move = rng.choice(moves)
        phi = self.fgen.formula()

        if move == "wl":
            return weaken_to(p, Sequent(ant + (phi,), suc))
        if move == "wr":
            return weaken_to(p, Sequent(ant, suc + (phi,)))
        if move == "contract":
            padded = weaken_to(p, Sequent(ant + (phi, phi), suc))
            return contract_to(padded, Sequent(ant + (phi,), suc))
        if move == "negr":
            g = rng.choice(ant)
            return ProofNode("negr", Sequent(_drop_one(ant, g), suc + (Not(g),)), (p,))
        if move == "negl":
            d = rng.choice(suc)
            return ProofNode("negl", Sequent(ant + (Not(d),), _drop_one(suc, d)), (p,))
        if move == "impr":
            g, d = rng.choice(ant), rng.choice(suc)
            concl = Sequent(_drop_one(ant, g), _drop_one(suc, d) + (Imp(g, d),))
            return ProofNode("impr", concl, (p,))
        if move == "andl":
            pw = weaken_to(p, Sequent(ant + (phi,), suc))
            g = rng.choice(ant) if ant else phi
            if g is phi:
                pw = weaken_to(pw, Sequent(ant + (phi, phi), suc))
            concl = Sequent(_drop_one(ant, g) if g is not phi else ant, suc)
            concl = Sequent(concl.ant + (And(g, phi),), concl.suc)
            return ProofNode("andl", concl, (pw,))
        if move == "orr":
            pw = weaken_to(p, Sequent(ant, suc + (phi,)))
            d = rng.choice(suc) if suc else phi
            if d is phi:
                pw = weaken_to(pw, Sequent(ant, suc + (phi, phi)))
            base = _drop_one(suc, d) if d is not phi else suc
            return ProofNode("orr", Sequent(ant, base + (Or(d, phi),)), (pw,))
        if move == "andr":
            psi = self.fgen.formula()
            p1 = weaken_to(p, Sequent(ant, suc + (phi,)))
            p2 = weaken_to(p, Sequent(ant, suc + (psi,)))
            return ProofNode("andr", Sequent(ant, suc + (And(phi, psi),)), (p1, p2))
        if move == "orl":
            psi = self.fgen.formula()
            p1 = weaken_to(p, Sequent(ant + (phi,), suc))
            p2 = weaken_to(p, Sequent(ant + (psi,), suc))
            return ProofNode("orl", Sequent(ant + (Or(phi, psi),), suc), (p1, p2))
        if move == "impl":
            psi = self.fgen.formula()
            p1 = weaken_to(p, Sequent(ant, suc + (phi,)))
            p2 = weaken_to(p, Sequent(ant + (psi,), suc))
            return ProofNode("impl", Sequent(ant + (Imp(phi, psi),), suc), (p1, p2))
        if move == "foralll":
            v = self.fgen.fresh_var()
            pw = weaken_to(p, Sequent(ant + (phi,), suc))
            concl = Sequent(ant + (Forall(v, phi),), suc)
            return ProofNode("foralll", concl, (pw,), terms=(self._param(),))
        if move == "existsr":
            v = self.fgen.fresh_var()
            pw = weaken_to(p, Sequent(ant, suc + (phi,)))
            concl = Sequent(ant, suc + (Exists(v, phi),))
            return ProofNode("existsr", concl, (pw,), terms=(self._param(),))
        if move == "forallr":
            v = self.fgen.fresh_var()
            supply = ParamSupply(proof_params(p) | set(params_in(phi)))
            pw = weaken_to(p, Sequent(ant, suc + (phi,)))
            concl = Sequent(ant, suc + (Forall(v, phi),))
            return ProofNode("forallr", concl, (pw,), eigen=supply.fresh())
        if move == "existsl":
            v = self.fgen.fresh_var()
            supply = ParamSupply(proof_params(p) | set(params_in(phi)))
            pw = weaken_to(p, Sequent(ant + (phi,), suc))
            concl = Sequent(ant + (Exists(v, phi),), suc)
            return ProofNode("existsl", concl, (pw,), eigen=supply.fresh())
        if move == "laml":
            v = self.fgen.fresh_var()
            pw = weaken_to(p, Sequent(ant + (phi,), suc))
            lam = LambdaAtom(v, phi, self._param())
            return ProofNode("laml", Sequent(ant + (lam,), suc), (pw,))
        if move == "lamr":
            v = self.fgen.fresh_var()
            pw = weaken_to(p, Sequent(ant, suc + (phi,)))
            lam = LambdaAtom(v, phi, self._param())
            return ProofNode("lamr", Sequent(ant, suc + (lam,)), (pw,))
        if move == "flip":
            eq = rng.choice([g for g in ant if isinstance(g, Identity)])
            return flip_identity(p, eq)
        if move == "cutr":
            p1 = weaken_to(p, Sequent(ant, suc + (phi,)))
            return mk_cut(p1, ax(phi), phi)
        if move == "cutl":
            p2 = weaken_to(p, Sequent(ant + (phi,), suc))
            return mk_cut(ax(phi), p2, phi)
        raise AssertionError(move)

    def proof(self) -> ProofNode:
        p = self._base()
        for _ in range(self.rng.randint(0, self.max_steps)):
            p = self._grow_once(p)
        return p

    def proof_with_cut(self) -> ProofNode:
        p = self.proof()
        if cut_nodes(p):
            return p
        ant, suc = p.conclusion.ant, p.conclusion.suc
        phi = self.fgen.formula()
        padded = weaken_to(p, Sequent(ant, suc + (phi,)))
        return mk_cut(padded, ax(phi), phi)


def cut_compose(pa: ProofNode, pb: ProofNode, chi) -> ProofNode:
    """Join two proofs with a cut on a formula weakened into both sides."""
    p1 = weaken_to(pa, Sequent(pa.conclusion.ant, pa.conclusion.suc + (chi,)))
    p2 = weaken_to(pb, Sequent(pb.conclusion.ant + (chi,), pb.conclusion.suc))
    return mk_cut(p1, p2, chi)


CUT_POOL = (
    "rlambda_left",
    "rlambda_right",
    "sym_trans",
    "derived_iota1l",
    "derived_iotar",
    "leibniz_bool",
    "leibniz_quant",
)


def cut_corpus(golden: dict, rng: random.Random) -> list:
    """55 cut-bearing proofs: the three derived description rules, cut
    compositions of golden proofs, and random proofs grown around a cut."""
    chi_gen = FormulaGen(rng, params=("a",), consts=(), max_conn=3, max_dd_depth=1)
    pool = [golden[n] for n in CUT_POOL]
    corpus = [golden[n] for n in ("derived_iota1l", "derived_iota2l", "derived_iotar")]
    corpus.append(cut_compose(golden["leibniz_dd"], golden["sym_trans"], chi_gen.formula()))
    corpus.append(cut_compose(golden["sym_trans"], golden["leibniz_dd"], chi_gen.formula()))
    while len(corpus) < 35:
        corpus.append(cut_compose(rng.choice(pool), rng.choice(pool), chi_gen.formula()))
    pgen = ProofGen(rng, max_steps=4)
    while len(corpus) < 55:
        corpus.append(pgen.proof_with_cut())
    return corpus
