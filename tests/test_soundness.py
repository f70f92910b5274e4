"""Soundness of the kernel, one inference at a time.

The paper proves its calculus sound rule by rule: each rule preserves truth
in every model, an eigenparameter read as universally quantified over the
premises. This module checks that property for every step `analyze_step`
accepts, with the reference evaluator `eval_sequent`, on every
interpretation of size 1 and 2: wherever every premise holds for every
value of the eigenparameter, the conclusion holds for every value too.

Steps are built from the kernel's own table, each `RULES` entry's principal
test and active formulas, and by hand for ax, cut, wl, wr, cl, cr, eqminus
(whose chi comes from the search's enumerator `search.rewrite_variants`)
and eqplus, over nonempty contexts, with instance terms from #a, #b and $c,
and eigenparameters that sometimes clash with the context. Each step is
then perturbed: a formula dropped, duplicated or moved, premises swapped,
terms or eigenparameter changed, the conclusion flipped, a formula added to
every sequent or to one premise, a parameter renamed throughout, or the
annotations left out.
Whatever the kernel accepts of either kind must be sound.
"""

import random

from genutil import FormulaGen
from ddproof.kernel import RULES, ProofNode, RuleError, analyze_step
from ddproof.search import rewrite_variants
from ddproof.semantics import eval_sequent, iter_interpretations, signature_of
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
    PredAtom,
    Sequent,
    rename_param,
)

TERMS = (Param("a"), Param("b"), Const("c"))
# e occurs in no generated formula, d only in contexts, a anywhere
EIGENS = (Param("e"), Param("d"), Param("a"))
STRUCTURAL = ("ax", "cut", "wl", "wr", "cl", "cr")
MIN_ACCEPTED = 50


def _insert(rng, forms: tuple, f) -> tuple[tuple, int]:
    """forms with f at a random place, and that place."""
    i = rng.randint(0, len(forms))
    return forms[:i] + (f,) + forms[i:], i


class StepGen:
    """Random inference steps, as (rule, conclusion, premises, terms, eigen,
    at), and random perturbations of them."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.principals = FormulaGen(rng, max_conn=2, max_dd_depth=1)
        self.contexts = FormulaGen(rng, params=("a", "b", "d"), max_conn=0)

    def formula(self, scope=()):
        return self.principals.formula(self.rng.randint(0, 2), list(scope))

    def context(self) -> tuple:
        return (self.contexts.formula(0),)

    def principal(self, rule: str):
        kind, f = RULES[rule].kind, self.formula
        if kind is Not:
            return Not(f())
        if kind in (And, Or, Imp, Iff):
            return kind(f(), f())
        if kind in (Forall, Exists):
            return kind("x", f(["x"]))
        arg = IotaTerm("y", f(["y"])) if rule.startswith("iota") else self.rng.choice(TERMS)
        return LambdaAtom("x", f(["x"]), arg)

    def step(self, rule: str) -> tuple:
        rng, gamma, delta = self.rng, self.context(), self.context()
        if rule == "ax":
            a = self.formula()
            return rule, Sequent((a,), (a,)), (), (), None, None
        if rule == "cut":
            chi, g2, d2 = self.formula(), self.context(), self.context()
            prems = (Sequent(gamma, delta + (chi,)), Sequent((chi,) + g2, d2))
            return rule, Sequent(gamma + g2, delta + d2), prems, (), None, None
        if rule in STRUCTURAL:  # weakening or contraction, on the side rule[1] names
            a, j = self.formula(), "lr".index(rule[1])
            c, p = [gamma, delta], [gamma, delta]
            c[j], _ = _insert(rng, c[j], a)
            if rule[0] == "c":  # the premise holds a twice
                p[j], _ = _insert(rng, c[j], a)
            return rule, Sequent(*c), (Sequent(*p),), (), None, None
        if rule == "eqminus":
            b1, b2 = rng.sample(TERMS, 2)
            other = rng.choice(TERMS)
            a0 = rng.choice([PredAtom("P", (b1,)), PredAtom("Q", (b1,)),
                             Identity(b1, other), Identity(other, b1), Identity(b1, b1)])
            chi = rng.choice([a0, *rewrite_variants(a0, b1, b2)])
            eq = Identity(b1, b2)
            ant, _ = _insert(rng, gamma, a0)
            ant, at = _insert(rng, ant, eq)
            return rule, Sequent(ant, delta), (Sequent(gamma + (chi,), delta),), (b1, b2), None, at
        if rule == "eqplus":
            b = rng.choice(TERMS)
            return rule, Sequent(gamma, delta), (Sequent(gamma + (Identity(b, b),), delta),), (b,), None, None
        schema = RULES[rule]
        f = self.principal(rule)
        assert schema.principal(f), (rule, f)
        terms = tuple(rng.choice(TERMS) for _ in range(schema.terms))
        eigen = rng.choice(EIGENS) if schema.eigen else None
        if schema.side == "ant":
            side, at = _insert(rng, gamma, f)
            c = Sequent(side, delta)
        else:
            side, at = _insert(rng, delta, f)
            c = Sequent(gamma, side)
        instance = terms + ((eigen,) if eigen else ())
        prems = tuple(Sequent(gamma + ant, delta + suc) for ant, suc in schema.actives(f, *instance))
        return rule, c, prems, terms, eigen, at

    def perturb(self, step: tuple) -> tuple:
        rng = self.rng
        rule, c, prems, terms, eigen, at = step
        seqs = [c, *prems]
        op = rng.choice(("drop", "dup", "move", "swap", "terms", "eigen", "flip",
                         "context", "premise", "rename", "bare"))
        if op in ("drop", "dup", "move"):
            k = rng.randrange(len(seqs))
            sides = [seqs[k].ant, seqs[k].suc]
            j = rng.randrange(2)
            if not sides[j]:
                return self.perturb(step)
            i = rng.randrange(len(sides[j]))
            f = sides[j][i]
            if op != "dup":
                sides[j] = sides[j][:i] + sides[j][i + 1:]
            if op != "drop":
                target = j if op == "dup" else 1 - j
                sides[target], _ = _insert(rng, sides[target], f)
            seqs[k] = Sequent(*sides)
        elif op == "swap":
            seqs[1:] = seqs[:0:-1]
        elif op == "terms":
            terms = tuple(rng.choice(TERMS) for _ in terms or (None,) * rng.randint(1, 2))
        elif op == "eigen":
            eigen = rng.choice(EIGENS)
        elif op == "flip":
            seqs[0] = Sequent(c.suc, c.ant)
        elif op in ("context", "premise"):  # one formula added everywhere, or to one premise
            j, g = rng.randrange(2), self.context()[0]
            for k in range(len(seqs)) if op == "context" else [rng.randrange(len(seqs))]:
                sides = [seqs[k].ant, seqs[k].suc]
                sides[j] += (g,)
                seqs[k] = Sequent(*sides)
        elif op == "rename":
            old, new = rng.choice("abde"), rng.choice(TERMS + EIGENS)
            seqs = [Sequent(*(tuple(rename_param(f, old, new) for f in side) for side in (s.ant, s.suc)))
                    for s in seqs]
            terms = tuple(new if t == Param(old) else t for t in terms)
            eigen = new if eigen == Param(old) else eigen
        else:
            terms, eigen, at = (), None, None
        return rule, seqs[0], tuple(seqs[1:]), terms, eigen, at


def _sound(c: Sequent, prems: tuple, eigen) -> bool:
    """Wherever every premise holds for every value of the eigenparameter,
    c holds for every value: on every interpretation of size 1 and 2."""
    sig = signature_of(c, *prems)
    for size in (1, 2):
        # the interpretations that differ in the eigenparameter only
        groups: dict = {}
        for model, asg in iter_interpretations(sig, size):
            key = (id(model), *[v for p, v in asg.items() if p != eigen])
            groups.setdefault(key, (model, []))[1].append(asg)
        for model, asgs in groups.values():
            if all(eval_sequent(c, model, asg) for asg in asgs):
                continue
            if all(eval_sequent(p, model, asg) for asg in asgs for p in prems):
                return False
    return True


def _accepted(step: tuple, sound: dict) -> bool:
    """The kernel accepts the step. `sound` maps each accepted step's
    sequents and eigenparameter to whether the step is sound."""
    rule, c, prems, terms, eigen, at = step
    node = ProofNode(rule, c, tuple(ProofNode("ax", p) for p in prems), terms, eigen, at)
    try:
        info = analyze_step(node)
    except RuleError:
        return False
    key = (c, prems, info.eigen)
    if key not in sound:
        sound[key] = _sound(*key)
    return True


def test_every_accepted_step_is_sound():
    rng = random.Random(16)
    gen = StepGen(rng)
    sound: dict = {}
    for rule in STRUCTURAL + tuple(RULES):
        steps = perturbed = tries = 0
        while steps < MIN_ACCEPTED or perturbed < MIN_ACCEPTED:
            tries += 1
            assert tries <= 1000, (rule, steps, perturbed)
            step = gen.step(rule)
            if steps < MIN_ACCEPTED:
                steps += _accepted(step, sound)
            for _ in range(3):
                perturbed += _accepted(gen.perturb(step), sound)
    unsound = [key for key, ok in sound.items() if not ok]
    assert not unsound, f"{len(unsound)} unsound accepted steps, the first: {unsound[0]}"
