"""Seeded input generators for the benchmark, standard library only.

The formula and proof generators follow the recipes of the acceptance
criteria (random closed formulas over P/1, Q/1, parameters a b and the
constant c; random checker-valid proofs grown around cuts), so a corpus
drawn here at a criterion's seed is that criterion's corpus. They live in
the benchmark's own files so that an edit to the test helpers cannot change
the benchmark's inputs.
"""

import random

from ddproof.builders import (
    ax,
    build_leibniz,
    build_rlambda_left,
    build_rlambda_right,
    build_sym_trans,
    contract_to,
    derived_iota1l,
    derived_iota2l,
    derived_iotar,
    flip_identity,
    mk_cut,
    weaken_to,
)
from ddproof.kernel import ProofNode, cut_nodes, proof_params, proof_size
from ddproof.search import SearchBudget
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
    params_in,
)

# Corpus seeds of the acceptance criteria the fixed corpora reproduce.
PROVE_SAMPLE_SEED = 20250823  # criterion 8: 500 sequents for search
CUT_CORPUS_SEED = 20250819  # criterion 4: 55 cut-bearing proofs

# the search budget of criterion 8
PROVE_BUDGET = SearchBudget(max_depth=8, term_pool_cap=2, contraction_cap=2, model_cap=2)


class FormulaGen:
    """Random closed formulas with a connective budget and a bound on the
    nesting of definite descriptions."""

    def __init__(
        self,
        rng: random.Random,
        preds=(("P", 1), ("Q", 1)),
        params=("a", "b"),
        consts=("c",),
        max_conn=5,
        max_dd_depth=2,
    ):
        self.rng = rng
        self.preds = list(preds)
        self.params = list(params)
        self.consts = list(consts)
        self.max_conn = max_conn
        self.max_dd_depth = max_dd_depth
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
        if dd_depth < self.max_dd_depth and budget >= 2:
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
        # a description: the remaining budget is split between the two bodies
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


def _drop_one(forms, f):
    out = list(forms)
    out.remove(f)
    return tuple(out)


class ProofGen:
    """Random checker-valid proofs: a base (axiom, symmetry-transitivity or
    a replacement-of-equals derivation) grown by random sound steps,
    including cuts against axioms."""

    def __init__(self, rng: random.Random, max_steps=5):
        self.rng = rng
        self.fgen = FormulaGen(rng, max_conn=3, consts=())
        self.max_steps = max_steps

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
            # two-premise steps copy the subproof, so they double the tree
            moves += ["andr", "orl", "impl"]
        if ant:
            moves += ["negr", "impr" if suc else "negr"]
        if suc:
            moves.append("negl")
        if any(isinstance(g, Identity) for g in ant):
            moves.append("flip")
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
        if move in ("andr", "orl", "impl"):
            psi = self.fgen.formula()
            if move == "andr":
                p1 = weaken_to(p, Sequent(ant, suc + (phi,)))
                p2 = weaken_to(p, Sequent(ant, suc + (psi,)))
                return ProofNode("andr", Sequent(ant, suc + (And(phi, psi),)), (p1, p2))
            if move == "orl":
                p1 = weaken_to(p, Sequent(ant + (phi,), suc))
                p2 = weaken_to(p, Sequent(ant + (psi,), suc))
                return ProofNode("orl", Sequent(ant + (Or(phi, psi),), suc), (p1, p2))
            p1 = weaken_to(p, Sequent(ant, suc + (phi,)))
            p2 = weaken_to(p, Sequent(ant + (psi,), suc))
            return ProofNode("impl", Sequent(ant + (Imp(phi, psi),), suc), (p1, p2))
        if move in ("foralll", "existsr"):
            v = self.fgen.fresh_var()
            if move == "foralll":
                pw = weaken_to(p, Sequent(ant + (phi,), suc))
                concl = Sequent(ant + (Forall(v, phi),), suc)
            else:
                pw = weaken_to(p, Sequent(ant, suc + (phi,)))
                concl = Sequent(ant, suc + (Exists(v, phi),))
            return ProofNode(move, concl, (pw,), terms=(self._param(),))
        if move in ("forallr", "existsl"):
            v = self.fgen.fresh_var()
            supply = ParamSupply(proof_params(p) | set(params_in(phi)))
            if move == "forallr":
                pw = weaken_to(p, Sequent(ant, suc + (phi,)))
                concl = Sequent(ant, suc + (Forall(v, phi),))
            else:
                pw = weaken_to(p, Sequent(ant + (phi,), suc))
                concl = Sequent(ant + (Exists(v, phi),), suc)
            return ProofNode(move, concl, (pw,), eigen=supply.fresh())
        if move in ("laml", "lamr"):
            v = self.fgen.fresh_var()
            if move == "laml":
                pw = weaken_to(p, Sequent(ant + (phi,), suc))
                lam = LambdaAtom(v, phi, self._param())
                return ProofNode("laml", Sequent(ant + (lam,), suc), (pw,))
            pw = weaken_to(p, Sequent(ant, suc + (phi,)))
            lam = LambdaAtom(v, phi, self._param())
            return ProofNode("lamr", Sequent(ant, suc + (lam,)), (pw,))
        if move == "flip":
            eq = rng.choice([g for g in ant if isinstance(g, Identity)])
            return flip_identity(p, eq)
        if move == "cutr":
            p1 = weaken_to(p, Sequent(ant, suc + (phi,)))
            return mk_cut(p1, ax(phi), phi)
        p2 = weaken_to(p, Sequent(ant + (phi,), suc))
        return mk_cut(ax(phi), p2, phi)

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


# ---------------------------------------------------------------------------
# golden proofs with cuts, built with the builders directly


def _p(t):
    return PredAtom("P", (t,))


def _q(t):
    return PredAtom("Q", (t,))


def golden_proofs() -> dict:
    """The golden proofs of the fixtures command that still carry their
    cuts: the paraphrase bridges, symmetry-transitivity, three
    replacement-of-equals samples and the three derived description rules.
    The cut-free forms are left out, because computing them is the cut
    elimination that the cut-corpus workload measures."""
    a, b, b1, b2 = Param("a"), Param("b"), Param("b1"), Param("b2")
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    dd = LambdaAtom("x", _p(x), IotaTerm("y", _q(y)))
    out = {
        "rlambda_left": build_rlambda_left(dd),
        "rlambda_right": build_rlambda_right(dd),
        "sym_trans": build_sym_trans(b1, b2, b),
        "leibniz_bool": build_leibniz(And(_p(x), Not(_q(x))), "x", b1, b2),
        "leibniz_quant": build_leibniz(Exists("y", Identity(y, x)), "x", b1, b2),
        "leibniz_dd": build_leibniz(
            LambdaAtom("z", Or(_q(z), _p(x)), IotaTerm("w", PredAtom("R", (w, x)))),
            "x",
            b1,
            b2,
        ),
    }

    # derived no-witness rule, on an abstract that contradicts its own body
    dd_neg = LambdaAtom("x", Not(_q(x)), IotaTerm("y", _q(y)))
    prem = ProofNode("negl", Sequent((_q(a), Not(_q(a))), ()), (ax(_q(a)),))
    out["derived_iota1l"] = derived_iota1l(prem, dd_neg, a)

    # derived uniqueness rule
    eq12 = Identity(b1, b2)
    gamma2 = (_q(b1), _q(b2))
    p1 = weaken_to(ax(_q(b1)), Sequent(gamma2, (eq12, _q(b1))))
    p2 = weaken_to(ax(_q(b2)), Sequent(gamma2, (eq12, _q(b2))))
    p3 = weaken_to(ax(eq12), Sequent((eq12,) + gamma2, (eq12,)))
    out["derived_iota2l"] = derived_iota2l(p1, p2, p3, dd, b1, b2)

    # derived right rule, from an explicit uniqueness assumption
    eqab = Identity(a, b)
    uniq = Forall("z", Imp(_q(z), Identity(z, b)))
    gamma3 = (_q(b), _p(b), uniq)
    r1 = weaken_to(ax(_q(b)), Sequent(gamma3, (_q(b),)))
    r2 = weaken_to(ax(_p(b)), Sequent(gamma3, (_p(b),)))
    imp = Imp(_q(a), eqab)
    imp_l = weaken_to(ax(_q(a)), Sequent((_q(a), _q(b), _p(b)), (eqab, _q(a))))
    imp_r = weaken_to(ax(eqab), Sequent((eqab, _q(a), _q(b), _p(b)), (eqab,)))
    n_imp = ProofNode("impl", Sequent((imp, _q(a), _q(b), _p(b)), (eqab,)), (imp_l, imp_r))
    r3 = ProofNode("foralll", Sequent((_q(a),) + gamma3, (eqab,)), (n_imp,), terms=(a,))
    out["derived_iotar"] = derived_iotar(r1, r2, r3, dd, b, a)
    return out


def _cut_compose(pa, pb, chi):
    """Join two proofs with a cut on a formula weakened into both sides."""
    p1 = weaken_to(pa, Sequent(pa.conclusion.ant, pa.conclusion.suc + (chi,)))
    p2 = weaken_to(pb, Sequent(pb.conclusion.ant + (chi,), pb.conclusion.suc))
    return mk_cut(p1, p2, chi)


def cut_corpus(seed: int = CUT_CORPUS_SEED) -> list:
    """55 cut-bearing proofs, as (name, proof): the three derived
    description rules, 32 cut compositions of golden proofs, and 20 random
    proofs grown around a cut."""
    golden = golden_proofs()
    rng = random.Random(seed)
    chi_gen = FormulaGen(rng, params=("a",), consts=(), max_conn=3, max_dd_depth=1)
    pool_names = ["rlambda_left", "rlambda_right", "sym_trans", "derived_iota1l",
                  "derived_iotar", "leibniz_bool", "leibniz_quant"]
    corpus = [(n, golden[n]) for n in ("derived_iota1l", "derived_iota2l", "derived_iotar")]
    corpus.append(("compose:leibniz_dd+sym_trans",
                   _cut_compose(golden["leibniz_dd"], golden["sym_trans"], chi_gen.formula())))
    corpus.append(("compose:sym_trans+leibniz_dd",
                   _cut_compose(golden["sym_trans"], golden["leibniz_dd"], chi_gen.formula())))
    while len(corpus) < 35:
        na, nb = rng.choice(pool_names), rng.choice(pool_names)
        corpus.append((f"compose:{na}+{nb}",
                       _cut_compose(golden[na], golden[nb], chi_gen.formula())))
    pgen = ProofGen(rng, max_steps=4)
    while len(corpus) < 55:
        corpus.append((f"random:{len(corpus)}", pgen.proof_with_cut()))
    return corpus


def prove_sample(seed: int = PROVE_SAMPLE_SEED, n: int = 500) -> list:
    """n random sequents: two sides of at most two formulas, each of at most
    four connectives and description depth at most one."""
    fgen = FormulaGen(random.Random(seed), max_conn=4, max_dd_depth=1)
    return [fgen.sequent() for _ in range(n)]


def desk_formulas(rng: random.Random, n: int) -> list:
    """n formulas in the free variable x, of at most 12 connectives and
    description depth at most two, for replacement-of-equals proofs."""
    fgen = FormulaGen(rng, max_conn=12, max_dd_depth=2)
    return [fgen.formula(scope=["x"]) for _ in range(n)]
