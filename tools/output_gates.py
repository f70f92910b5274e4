"""Output gates: sha256 digests of what ddproof prints, to show that a change
leaves its outputs as they were.

    python3 tools/output_gates.py [prove-sample] [prove-default] [cut-corpus] [cut-extra]
                                  [parse] [kernel] [translate] [walks] [countermodel]

The package is imported from the checkout's src/ and the corpora from
its perfbench/gen.py. With no argument all nine gates run, one after
another in this interpreter; each prints one line: its name, its digest
and a tally. Run it on both sides of a change and compare the lines.

  prove-sample  the 500 criterion-8 sequents, each printed, re-parsed and
                searched with gen.PROVE_BUDGET: the verdict's class name,
                then format_proof of the proof, describe() of the
                countermodel or the reason it is unknown, each utf-8
                encoded into one hash with no separator
  prove-default the same, searched with search.DEFAULT_BUDGET, the budget
                `ddproof prove` uses: deeper, with more terms and models,
                so the choice moves are tried far more often
  cut-corpus    the 55 criterion-4 proofs: format_proof of each
                eliminate_cuts_traced result, then repr of each of its
                TraceEntry rows, proof by proof
  cut-extra     the same digest over proofs whose elimination renames
                eigenparameters where the corpus never does: a hand-built
                proof whose reduction duplicates a subproof with its
                eigenparameters, then 500 seeded gen.ProofGen proofs with
                a cut (300 grown up to 8 steps, 200 up to 12); none carries
                an `:at`
  parse         the fixtures, 60 desk-check proofs (about 30% printed with
                unicode glyphs), 300 prove-sample sequents, and 12 seeded
                insertions, deletions and replacements of each: for every
                input, the parse printed back or the ParseError's message,
                line and column
  kernel        the fixtures and 60 seeded desk-check proofs (printed and
                parsed, so nodes share formula objects), each as it is and
                with one node perturbed, 20 times per proof: a formula
                dropped, duplicated or moved to the other side, `:at`,
                `:eigen` or an annotation term changed, or a parameter in
                one formula renamed to another term (a variable included).
                For every input, its label, then `check_proof`'s height and
                cut degrees, the rejection's path and reason, or the
                exception a crash raised
  translate     format_sequent of translate_sequent over the 500
                prove-sample sequents, then format_formula of translate
                over 200 seeded desk-check formulas, one line each
  walks         the structural walks of `syntax` over every distinct
                formula (and subformula, description bodies included) of
                the prove sample, 300 seeded desk-check formulas and every
                node of the cut corpus: alpha_key, free_vars, params_in,
                consts_in, preds_in, logical_constants, the arity map of
                validate_formula, is_pure_fol, format_formula of
                substitute for each of x, y, y1, z by each of y, x1, #a,
                $c, and format_formula of rename_param of each parameter
                to $k and to #a9, one line per formula
  countermodel  every distinct sequent (by sequent_key) that search.prove
                passes to find_countermodel up front or that reaches the
                search's countermodel probe point (search._quick_refuted,
                probed or skipped) while searching the prove sample with
                gen.PROVE_BUDGET, in the order first passed:
                the sequent printed, then find_countermodel's result up to
                size 3 with a cap of 100,000 and again with a cap of 1,000,
                each as the size and describe() of the countermodel,
                `none`, or `cap` and the count the cap error carries
"""

import hashlib
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARSE_SEED = 20261018
KERNEL_SEED = 20261019
KERNEL_DESK = 60
KERNEL_PERTURBATIONS = 20
KERNEL_OPS = ("drop", "duplicate", "move", "at", "eigen", "term", "rename")
TRANSLATE_SEED = 20261020
TRANSLATE_DESK = 200
WALKS_SEED = 20261021
WALKS_DESK = 300
CUT_EXTRA_SEED = 20261022
# reducing its cut copies the existsr subproof into both andr branches, so
# the copies' eigenparameters must be renamed apart after the reduction
DUPLICATION_PROOF = """
(cut (seq (P(#c)) (P(#c) & P(#c), forall y. Q(y) -> Q(y)))
  (andr (seq (P(#c)) (P(#c) & P(#c), exists x. P(x)))
    (existsr (seq (P(#c)) (P(#c), exists x. P(x))) :term #c
      (wr (seq (P(#c)) (P(#c), P(#c))) (ax (seq (P(#c)) (P(#c))))))
    (existsr (seq (P(#c)) (P(#c), exists x. P(x))) :term #c
      (wr (seq (P(#c)) (P(#c), P(#c))) (ax (seq (P(#c)) (P(#c)))))))
  (existsl (seq (exists x. P(x)) (forall y. Q(y) -> Q(y))) :eigen #a
    (wl (seq (P(#a)) (forall y. Q(y) -> Q(y)))
      (forallr (seq () (forall y. Q(y) -> Q(y))) :eigen #b
        (impr (seq () (Q(#b) -> Q(#b))) (ax (seq (Q(#b)) (Q(#b)))))))))
"""
# what a mutation inserts or puts in place of a character
SNIPPETS = ("(", ")", "~", "&", "|", ",", ".", "=", "=>", "->", "<->", "-", "<",
            "#", "#a", "$", "$c", ":", ":at 1", ":eigen #b", "x", "P", "forall",
            "iota", "lam", "0", " ", "\n", "\t", "\r", "\v", " ", "@", "_",
            "# c\n", "¬", "∧", "∀", "λ", "ι", "⇒")


def _prove_gate(budget) -> str:
    import gen
    from ddproof.search import prove
    from ddproof.surface import format_proof, format_sequent, parse_sequent

    h = hashlib.sha256()
    tally = {"Refuted": 0, "Proved": 0, "Unknown": 0}
    for s in gen.prove_sample():
        verdict = prove(parse_sequent(format_sequent(s)), budget)
        kind = type(verdict).__name__
        tally[kind] += 1
        if kind == "Proved":
            shown = format_proof(verdict.proof.root)
        elif kind == "Refuted":
            shown = verdict.model.describe(verdict.assignment)
        else:
            shown = verdict.reason
        h.update(kind.encode())
        h.update(shown.encode())
    return f"{h.hexdigest()} {tally['Refuted']}/{tally['Proved']}/{tally['Unknown']}"


def prove_sample_gate() -> str:
    import gen

    return _prove_gate(gen.PROVE_BUDGET)


def prove_default_gate() -> str:
    from ddproof.search import DEFAULT_BUDGET

    return _prove_gate(DEFAULT_BUDGET)


def _cut_gate(proofs) -> str:
    from ddproof.cutelim import eliminate_cuts_traced
    from ddproof.surface import format_proof

    h = hashlib.sha256()
    steps = 0
    for proof in proofs:
        out, trace = eliminate_cuts_traced(proof)
        h.update(format_proof(out).encode())
        for entry in trace:
            h.update(repr(entry).encode())
        steps += len(trace)
    return f"{h.hexdigest()} {steps} steps"


def cut_corpus_gate() -> str:
    import gen

    return _cut_gate(proof for _, proof in gen.cut_corpus())


def cut_extra_gate() -> str:
    import gen
    from ddproof.surface import parse_proof

    rng = random.Random(CUT_EXTRA_SEED)
    proofs = [parse_proof(DUPLICATION_PROOF)]
    for steps, n in ((8, 300), (12, 200)):
        pgen = gen.ProofGen(rng, max_steps=steps)
        proofs += [pgen.proof_with_cut() for _ in range(n)]
    return _cut_gate(proofs)


def _parse_corpus() -> list:
    """(kind, text) pairs: the printed inputs, then their mutations."""
    import gen
    from ddproof.builders import build_leibniz
    from ddproof.cli import fixture_proofs
    from ddproof.surface import format_proof, format_sequent
    from ddproof.syntax import Param

    rng = random.Random(PARSE_SEED)
    base = [("proof", format_proof(p)) for _, p in fixture_proofs()]
    b1, b2 = Param("b1"), Param("b2")
    for phi in gen.desk_formulas(rng, 60):
        proof = build_leibniz(phi, "x", b1, b2)
        base.append(("proof", format_proof(proof, unicode=rng.random() < 0.3)))
    base += [("sequent", format_sequent(s)) for s in gen.prove_sample()[:300]]
    corpus = list(base)
    for kind, text in base:
        for _ in range(12):
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            if op == 0:
                mutated = text[:i] + rng.choice(SNIPPETS) + text[i:]
            elif op == 1:
                mutated = text[:i] + text[i + 1:]
            else:
                mutated = text[:i] + rng.choice(SNIPPETS) + text[i + 1:]
            corpus.append((kind, mutated))
    return corpus


def parse_gate() -> str:
    from ddproof.surface import (
        ParseError,
        format_proof,
        format_sequent,
        parse_proof,
        parse_sequent,
    )

    h = hashlib.sha256()
    accepted = rejected = 0
    for kind, text in _parse_corpus():
        try:
            if kind == "proof":
                shown = "ok " + format_proof(parse_proof(text))
            else:
                shown = "ok " + format_sequent(parse_sequent(text))
            accepted += 1
        except ParseError as e:
            shown = f"error {e.msg!r} {e.line}:{e.col}"
            rejected += 1
        h.update(f"{kind}\0{text}\0{shown}\0".encode())
    return f"{h.hexdigest()} {accepted} accepted, {rejected} rejected"


def _perturb(rng, root):
    """One node of `root` changed by one seeded operation: (label, proof)."""
    from ddproof.cutelim import _splice
    from ddproof.kernel import iter_nodes
    from ddproof.syntax import Const, Param, Sequent, Var, params_in, rename_param, replace

    path, node = rng.choice(list(iter_nodes(root)))
    op = rng.choice(KERNEL_OPS)
    names = sorted(params_in(node.conclusion)) or ["a"]
    terms = [Param(rng.choice(names)), Param("a9"), Const("k"), Var("x")]
    sides = [node.conclusion.ant, node.conclusion.suc]
    side = rng.randrange(2)
    forms = list(sides[side])
    j = rng.randrange(len(forms)) if forms else None
    if op in ("drop", "duplicate", "move", "rename") and j is None:
        op = "at"
    if op == "drop":
        del forms[j]
    elif op == "duplicate":
        forms.insert(rng.randrange(len(forms) + 1), forms[j])
    elif op == "move":
        other = list(sides[1 - side])
        other.insert(rng.randrange(len(other) + 1), forms.pop(j))
        sides[1 - side] = tuple(other)
    elif op == "rename":
        old = rng.choice(sorted(params_in(forms[j])) or ["a"])
        forms[j] = rename_param(forms[j], old, rng.choice(terms))
    sides[side] = tuple(forms)
    if op == "at":
        node = replace(node, at=rng.choice([None, 0, 1, 2, 3]))
    elif op == "eigen":
        node = replace(node, eigen=rng.choice([None] + terms[:3]))
    elif op == "term":
        new = list(node.terms)
        if new and rng.random() < 0.7:
            new[rng.randrange(len(new))] = rng.choice(terms)
        else:
            new.insert(rng.randrange(len(new) + 1), rng.choice(terms))
        node = replace(node, terms=tuple(new))
    else:
        node = replace(node, conclusion=Sequent(sides[0], sides[1]))
    parts = () if path == "root" else tuple(map(int, path.split(".")))
    return f"{op} at {path}", _splice(root, parts, node)


def _kernel_corpus() -> list:
    """(label, proof) pairs: every base proof, then its perturbations."""
    import gen
    from ddproof.builders import build_leibniz
    from ddproof.cli import fixture_proofs
    from ddproof.surface import format_proof, parse_proof
    from ddproof.syntax import Param

    rng = random.Random(KERNEL_SEED)
    base = [(f"fixture {name}", root) for name, root in fixture_proofs()]
    b1, b2 = Param("b1"), Param("b2")
    for i, phi in enumerate(gen.desk_formulas(rng, KERNEL_DESK)):
        base.append((f"desk {i}", parse_proof(format_proof(build_leibniz(phi, "x", b1, b2)))))
    corpus = list(base)
    for name, root in base:
        for _ in range(KERNEL_PERTURBATIONS):
            label, proof = _perturb(rng, root)
            corpus.append((f"{name}: {label}", proof))
    return corpus


def _kernel_verdict(root) -> str:
    """What `check_proof` says about a proof, as one line."""
    from ddproof.kernel import CheckError, check_proof

    try:
        proof = check_proof(root)
    except CheckError as e:
        return f"rejected {e}"
    except Exception as e:  # a crash is an outcome to keep as it was, too
        return f"crashed {type(e).__name__}: {e}"
    return f"ok height={proof.height} cut_degrees={proof.cut_degrees}"


def kernel_gate() -> str:
    h = hashlib.sha256()
    tally = {"ok": 0, "rejected": 0, "crashed": 0}
    for label, root in _kernel_corpus():
        verdict = _kernel_verdict(root)
        tally[verdict.split(" ", 1)[0]] += 1
        h.update(f"{label}\0{verdict}\0".encode())
    return (f"{h.hexdigest()} {tally['ok']} accepted, {tally['rejected']} rejected, "
            f"{tally['crashed']} crashed")


def translate_gate() -> str:
    import gen
    from ddproof.surface import format_formula, format_sequent
    from ddproof.translate import translate, translate_sequent

    h = hashlib.sha256()
    lines = [format_sequent(translate_sequent(s)) for s in gen.prove_sample()]
    desk = gen.desk_formulas(random.Random(TRANSLATE_SEED), TRANSLATE_DESK)
    lines += [format_formula(translate(f)) for f in desk]
    for line in lines:
        h.update(f"{line}\n".encode())
    return f"{h.hexdigest()} {len(lines)} lines"


def _subformulas(f, out: dict) -> None:
    """Add f and its subformulas to `out`, keyed by structural equality, in
    pre-order; read off the record fields, so that the gate does not
    lean on the walks it checks."""
    from ddproof.syntax import IotaTerm, is_term

    out.setdefault(f, None)
    for name in f.__match_args__:
        v = getattr(f, name)
        if isinstance(v, IotaTerm):
            _subformulas(v.body, out)
        elif not isinstance(v, (str, tuple)) and not is_term(v):
            _subformulas(v, out)


def walks_gate() -> str:
    import gen
    from ddproof.kernel import iter_nodes
    from ddproof.surface import format_formula
    from ddproof.syntax import (Const, Param, Var, alpha_key, consts_in, free_vars,
                                logical_constants, params_in, preds_in, rename_param,
                                substitute, validate_formula)
    from ddproof.translate import is_pure_fol

    forms: dict = {}
    for s in gen.prove_sample():
        for f in s.ant + s.suc:
            _subformulas(f, forms)
    for f in gen.desk_formulas(random.Random(WALKS_SEED), WALKS_DESK):
        _subformulas(f, forms)
    for _, proof in gen.cut_corpus():
        for _, node in iter_nodes(proof):
            for f in node.conclusion.ant + node.conclusion.suc:
                _subformulas(f, forms)
    by = (Var("y"), Var("x1"), Param("a"), Const("c"))
    h = hashlib.sha256()
    for f in forms:
        row = [alpha_key(f), sorted(free_vars(f)), sorted(params_in(f)),
               sorted(consts_in(f)), list(preds_in(f)), logical_constants(f),
               sorted(validate_formula(f).items()), is_pure_fol(f)]
        row += [format_formula(substitute(f, x, t)) for x in ("x", "y", "y1", "z") for t in by]
        row += [format_formula(rename_param(f, p, new))
                for p in sorted(params_in(f)) for new in (Const("k"), Param("a9"))]
        h.update(f"{row!r}\n".encode())
    return f"{h.hexdigest()} {len(forms)} formulas"


def countermodel_gate() -> str:
    import gen
    from ddproof import search
    from ddproof.semantics import EnumerationCapError, find_countermodel
    from ddproof.surface import format_sequent, parse_sequent
    from ddproof.syntax import sequent_key

    # the up-front pass calls find_countermodel, and _search calls
    # _quick_refuted at every probe point, probed or not
    seen: dict = {}
    real = {name: getattr(search, name) for name in ("find_countermodel", "_quick_refuted")}

    def collector(fn):
        def collect(s, *args, **kwargs):
            seen.setdefault(sequent_key(s), s)
            return fn(s, *args, **kwargs)
        return collect

    for name, fn in real.items():
        setattr(search, name, collector(fn))
    try:
        for s in gen.prove_sample():
            search.prove(parse_sequent(format_sequent(s)), gen.PROVE_BUDGET)
    finally:
        for name, fn in real.items():
            setattr(search, name, fn)
    h = hashlib.sha256()
    caps = (100_000, 1_000)
    tally = {cap: {"countermodels": 0, "none": 0, "cap hits": 0} for cap in caps}
    for s in seen.values():
        row = [format_sequent(s)]
        for cap in caps:
            try:
                cm = find_countermodel(s, max_size=3, cap=cap)
            except EnumerationCapError as e:
                kind, shown = "cap hits", f"cap {e.count}"
            else:
                kind = "none" if cm is None else "countermodels"
                shown = "none" if cm is None else f"{cm.size}\n{cm.describe()}"
            tally[cap][kind] += 1
            row.append(shown)
        h.update(("\0".join(row) + "\0").encode())
    counts = "; ".join(f"cap {cap}: " + ", ".join(f"{n} {k}" for k, n in tally[cap].items())
                       for cap in caps)
    return f"{h.hexdigest()} {len(seen)} sequents; {counts}"


GATES = {"prove-sample": prove_sample_gate, "prove-default": prove_default_gate,
         "cut-corpus": cut_corpus_gate, "cut-extra": cut_extra_gate,
         "parse": parse_gate, "kernel": kernel_gate, "translate": translate_gate,
         "walks": walks_gate, "countermodel": countermodel_gate}


def main(argv: list) -> int:
    names = argv or list(GATES)
    unknown = [n for n in names if n not in GATES]
    if unknown:
        print(f"unknown gate {unknown[0]!r}; choose from {', '.join(GATES)}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    for name in names:
        print(f"{name} {GATES[name]()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
