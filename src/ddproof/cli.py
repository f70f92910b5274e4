"""Command line front end.

One subcommand per invocation: parse, check, prove, eliminate-cut,
countermodel, translate, fixtures. Exit codes: 0 for success (a proof
found, a check passed, no countermodel within the requested bound), 1
for a definite negative (rejected, unparsable or ill-formed input, refuted
goal, countermodel found), 2 for unknown (budget or enumeration cap, out
of memory, input nested too deeply, or a countermodel that failed its
check), 3 for usage errors.

Formula files (.rlf) hold one formula or sequent per line; proof files
(.rlp) hold a single s-expression. Every proof printed by any subcommand
is re-checked by the kernel first, and every countermodel is checked to
falsify its goal.
"""

import argparse
import os
import sys
from typing import Optional

from .builders import (
    ax,
    build_leibniz,
    build_rlambda_left,
    build_rlambda_right,
    build_sym_trans,
    derived_iota1l,
    derived_iota2l,
    derived_iotar,
    weaken_to,
)
from .cutelim import eliminate_cuts, eliminate_cuts_traced
from .kernel import CheckError, ProofNode, check_proof
from .search import DEFAULT_BUDGET, Proved, Refuted, SearchBudget, Unknown, prove
from .semantics import DEFAULT_MAX_SIZE, EnumerationCapError, eval_sequent, find_countermodel
from .surface import (
    ParseError,
    format_formula,
    format_proof,
    format_sequent,
    parse_formula,
    parse_lines,
    parse_proof,
    parse_sequent,
)
from .syntax import (
    Identity,
    IllFormed,
    Not,
    Param,
    PredAtom,
    Sequent,
    validate_sequent,
)
from .translate import is_pure_fol, translate, translate_sequent


class UsageError(Exception):
    pass


class FailedCheck(Exception):
    """A countermodel about to be printed satisfies its goal."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _bound(value: Optional[int], flag: str, env: str = "", fallback: int = 0) -> int:
    """The flag's value, else the environment variable env's, else the
    fallback: a bound, which may be zero but not negative."""
    name = flag
    if value is None:
        name, raw = env, os.environ.get(env)
        if raw is None:
            return fallback
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"{env} must be an integer, got {raw!r}") from None
    if value < 0:
        raise UsageError(f"{name} must not be negative, got {value}")
    return value


def _budget(args) -> SearchBudget:
    return SearchBudget(
        max_depth=_bound(args.depth, "--depth", "RL_MAX_DEPTH", DEFAULT_BUDGET.max_depth),
        term_pool_cap=_bound(args.term_pool, "--term-pool"),
        contraction_cap=_bound(args.contractions, "--contractions"),
        model_cap=_bound(args.models, "--models", "RL_MAX_MODEL", DEFAULT_BUDGET.model_cap),
    )


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(str(e)) from None
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not UTF-8 text: {e}") from None


def _lines(text: str):
    """Each line of a formula file, once it is well-formed as a goal of
    `prove` is; a formula f is read as the sequent `=> f`."""
    for number, item in parse_lines(text):
        goal = item if isinstance(item, Sequent) else Sequent((), (item,))
        validate_sequent(goal, path=f"line {number}: root")
        yield item


def _shown(item, unicode: bool) -> str:
    """A line of a formula file, printed back."""
    if isinstance(item, Sequent):
        return format_sequent(item, unicode=unicode)
    return format_formula(item, unicode=unicode)


def _checked(root: ProofNode) -> ProofNode:
    """The one gate proofs pass through on their way to stdout."""
    check_proof(root)
    return root


def _falsifying(goal: Sequent, model, assignment) -> str:
    """The one gate countermodels pass through on their way to stdout: the
    model described, once the goal is false in it."""
    if eval_sequent(goal, model, assignment):
        raise FailedCheck
    return model.describe(assignment)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args) -> int:
    text = _read(args.file)
    if args.file.endswith(".rlp"):
        print(format_proof(_checked(parse_proof(text)), unicode=args.unicode))
        return 0
    for item in _lines(text):
        print(_shown(item, args.unicode))
    return 0


def _check_file(path: str) -> int:
    """The height of the proof in a file, once the kernel accepts it."""
    return check_proof(parse_proof(_read(path))).height


def _cmd_check(args) -> int:
    print(f"OK height={_check_file(args.file)}")
    return 0


def _goal(text: str) -> Sequent:
    goal = parse_sequent(text)
    validate_sequent(goal)
    return goal


def _cmd_prove(args) -> int:
    goal = _goal(args.sequent)
    verdict = prove(goal, _budget(args))
    if isinstance(verdict, Proved):
        print("proved")
        print(format_proof(_checked(verdict.proof.root), unicode=args.unicode))
        return 0
    if isinstance(verdict, Refuted):
        print("refuted", _falsifying(goal, verdict.model, verdict.assignment), sep="\n")
        return 1
    print(f"unknown: {verdict.reason}")
    return 2


def _cmd_eliminate_cut(args) -> int:
    root = parse_proof(_read(args.file))
    out, trace = eliminate_cuts_traced(root)
    if args.emit_trace:
        for e in trace:
            print(
                f"trace: cut@{e.path} degree={e.degree}"
                f" formula={format_formula(e.formula, unicode=args.unicode)}"
                f" measure=({e.degree_before},{e.maximal_before})"
                f"->({e.degree_after},{e.maximal_after})"
                f" cases={','.join(e.cases)}"
            )
    print(format_proof(_checked(out), unicode=args.unicode))
    return 0


def _cmd_countermodel(args) -> int:
    goal = _goal(args.sequent)
    max_size = _bound(args.max_size, "--max-size", "RL_MAX_MODEL", DEFAULT_MAX_SIZE)
    cm = find_countermodel(goal, max_size=max_size)
    if cm is None:
        print(f"no countermodel up to size {max_size}")
        return 0
    print(_falsifying(goal, cm.model, cm.assignment))
    return 1


def _cmd_translate(args) -> int:
    for item in _lines(_read(args.file)):
        if isinstance(item, Sequent):
            out = translate_sequent(item)
            assert all(is_pure_fol(f) for f in out.ant + out.suc)
        else:
            out = translate(item)
            assert is_pure_fol(out)
        print(_shown(out, args.unicode))
    return 0


# ---------------------------------------------------------------------------
# golden fixtures


def fixture_proofs() -> list[tuple[str, ProofNode]]:
    """Every golden proof the fixtures subcommand emits: the paraphrase
    bridges in both directions, the symmetry-transitivity derivation,
    replacement-of-equals samples, the three derived description rules
    (each containing cuts), and their cut-eliminated forms."""
    a, b, b1, b2 = Param("a"), Param("b"), Param("b1"), Param("b2")

    def q(t):
        return PredAtom("Q", (t,))

    def p(t):
        return PredAtom("P", (t,))

    dd = parse_formula("(lam x. P(x)) (iota y. Q(y))")
    entries: list[tuple[str, ProofNode]] = [
        ("rlambda_left", build_rlambda_left(dd)),
        ("rlambda_right", build_rlambda_right(dd)),
        ("sym_trans", build_sym_trans(b1, b2, b)),
        ("leibniz_bool", build_leibniz(parse_formula("P(x) & ~Q(x)"), "x", b1, b2)),
        ("leibniz_quant", build_leibniz(parse_formula("exists y. y = x"), "x", b1, b2)),
        (
            "leibniz_dd",
            build_leibniz(
                parse_formula("(lam z. Q(z) | P(x)) (iota w. R(w, x))"), "x", b1, b2
            ),
        ),
    ]

    # derived no-witness rule, on an abstract that contradicts its own body
    dd_neg = parse_formula("(lam x. ~Q(x)) (iota y. Q(y))")
    prem = ProofNode("negl", Sequent((q(a), Not(q(a))), ()), (ax(q(a)),))
    entries.append(("derived_iota1l", derived_iota1l(prem, dd_neg, a)))

    # derived uniqueness rule
    gamma2 = (q(b1), q(b2))
    p1 = weaken_to(ax(q(b1)), Sequent(gamma2, (Identity(b1, b2), q(b1))))
    p2 = weaken_to(ax(q(b2)), Sequent(gamma2, (Identity(b1, b2), q(b2))))
    p3 = weaken_to(
        ax(Identity(b1, b2)),
        Sequent((Identity(b1, b2),) + gamma2, (Identity(b1, b2),)),
    )
    entries.append(("derived_iota2l", derived_iota2l(p1, p2, p3, dd, b1, b2)))

    # derived right rule, from an explicit uniqueness assumption
    uniq = parse_formula("forall z. Q(z) -> z = #b")
    gamma3 = (q(b), p(b), uniq)
    r1 = weaken_to(ax(q(b)), Sequent(gamma3, (q(b),)))
    r2 = weaken_to(ax(p(b)), Sequent(gamma3, (p(b),)))
    imp = parse_formula("Q(#a) -> #a = #b")
    imp_l = weaken_to(ax(q(a)), Sequent((q(a), q(b), p(b)), (Identity(a, b), q(a))))
    imp_r = weaken_to(
        ax(Identity(a, b)),
        Sequent((Identity(a, b), q(a), q(b), p(b)), (Identity(a, b),)),
    )
    n_imp = ProofNode(
        "impl", Sequent((imp, q(a), q(b), p(b)), (Identity(a, b),)), (imp_l, imp_r)
    )
    r3 = ProofNode(
        "foralll", Sequent((q(a),) + gamma3, (Identity(a, b),)), (n_imp,), terms=(a,)
    )
    entries.append(("derived_iotar", derived_iotar(r1, r2, r3, dd, b, a)))

    for name in ("derived_iota1l", "derived_iota2l", "derived_iotar"):
        with_cuts = dict(entries)[name]
        entries.append((name + "_cutfree", eliminate_cuts(with_cuts)))
    return entries


def _cmd_fixtures(args) -> int:
    named_paths = []
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, proof in fixture_proofs():
            path = os.path.join(args.out, name + ".rlp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_proof(proof, unicode=args.unicode) + "\n")
            named_paths.append((name, path))
    except OSError as e:
        raise UsageError(str(e)) from None
    # every file is checked before any line is printed
    heights = [_check_file(p) for _, p in named_paths]
    for (name, _), height in zip(named_paths, heights):
        print(f"OK {name} height={height}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ddproof", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--unicode", action="store_true", help="print with logic glyphs")

    p = sub.add_parser("parse", help="validate and pretty-print a formula or proof file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("check", help="run the kernel over a proof file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("prove", help="search for a proof or countermodel of a sequent")
    p.add_argument("sequent")
    p.add_argument("--depth", type=int, default=None, help="search depth (RL_MAX_DEPTH)")
    p.add_argument("--models", type=int, default=None, help="countermodel domain bound (RL_MAX_MODEL)")
    p.add_argument("--term-pool", type=int, default=DEFAULT_BUDGET.term_pool_cap)
    p.add_argument("--contractions", type=int, default=DEFAULT_BUDGET.contraction_cap)
    common(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("eliminate-cut", help="rewrite a proof into cut-free form")
    p.add_argument("file")
    p.add_argument("--emit-trace", action="store_true", help="log each reduction step")
    common(p)
    p.set_defaults(func=_cmd_eliminate_cut)

    p = sub.add_parser("countermodel", help="search small models that falsify a sequent")
    p.add_argument("sequent")
    p.add_argument("--max-size", type=int, default=None, help="largest domain to try (RL_MAX_MODEL)")
    p.set_defaults(func=_cmd_countermodel)

    p = sub.add_parser("translate", help="eliminate abstracts and descriptions from a formula file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("fixtures", help="regenerate and re-check the golden proof files")
    p.add_argument("--out", default="fixtures", help="output directory")
    common(p)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"ddproof: error: {e}", file=sys.stderr)
        return 3
    except ParseError as e:
        print(f"ddproof: parse error: {e}", file=sys.stderr)
        return 1
    except IllFormed as e:
        print(f"ddproof: ill-formed: {e}", file=sys.stderr)
        return 1
    except CheckError as e:
        print(f"ddproof: rejected: {e}", file=sys.stderr)
        return 1
    except EnumerationCapError as e:
        print(f"ddproof: unknown: signature-cap ({e})", file=sys.stderr)
        return 2
    except FailedCheck:
        print("ddproof: unknown: countermodel failed its check", file=sys.stderr)
        return 2
    except MemoryError:
        print("ddproof: unknown: out of memory", file=sys.stderr)
        return 2
    except RecursionError:
        print("ddproof: unknown: input nested too deeply", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (e.g. piped into head); not our problem
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
