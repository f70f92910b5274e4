"""Command line behavior: subcommands, exit codes, output formats."""

import os
import re
import subprocess
import sys

import pytest

from ddproof.cli import fixture_proofs, main
from ddproof.kernel import check_proof, cut_nodes
from ddproof.semantics import Countermodel, Model, find_countermodel
from ddproof.surface import parse_proof, parse_sequent
from ddproof.syntax import sequents_alpha_equal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProve:
    def test_axiom_goal(self, capsys):
        code, out, _ = run(capsys, "prove", "P(#a) => P(#a)")
        assert code == 0
        assert out.startswith("proved\n")
        assert "(ax" in out

    def test_printed_proof_reparses_and_checks(self, capsys):
        code, out, _ = run(capsys, "prove", "forall x. P(x) => exists y. P(y)")
        assert code == 0
        script = out.split("proved\n", 1)[1]
        check_proof(parse_proof(script))

    def test_refuted_goal(self, capsys):
        code, out, _ = run(capsys, "prove", "=> (lam x. P(x)) iota y. Q(y)")
        assert code == 1
        assert out.startswith("refuted\n")
        assert "domain: {0}" in out

    def test_unknown_goal(self, capsys):
        code, out, _ = run(capsys, "prove", "=> P(#a) -> P(#a)", "--depth", "0", "--models", "1")
        assert code == 2
        assert out == "unknown: budget-exhausted\n"

    def test_env_defaults_and_flag_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RL_MAX_DEPTH", "0")
        monkeypatch.setenv("RL_MAX_MODEL", "1")
        code, out, _ = run(capsys, "prove", "=> P(#a) -> P(#a)")
        assert code == 2
        code, out, _ = run(capsys, "prove", "=> P(#a) -> P(#a)", "--depth", "5")
        assert code == 0

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("RL_MAX_DEPTH", "lots")
        code, _, err = run(capsys, "prove", "P(#a) => P(#a)")
        assert code == 3
        assert "RL_MAX_DEPTH" in err

    def test_deterministic_outputs_identical(self, capsys):
        goal = "forall x. (P(x) -> Q(x)), P(#a) => Q(#a)"
        _, out1, _ = run(capsys, "prove", goal)
        _, out2, _ = run(capsys, "prove", goal)
        assert out1 == out2


class TestIllFormedGoal:
    @pytest.mark.parametrize("cmd", ["prove", "countermodel"])
    @pytest.mark.parametrize(
        "goal, message",
        [
            ("P(#a) => P(#a, #b)", "root.suc0: predicate P used with arity 2, previously 1"),
            ("P(x) => P(x)", "root.ant0: free variable(s) ['x'] in sequent"),
        ],
    )
    def test_one_line_and_exit_1(self, capsys, cmd, goal, message):
        code, out, err = run(capsys, cmd, goal)
        assert code == 1
        assert out == ""
        assert err == f"ddproof: ill-formed: {message}\n"
        assert "Traceback" not in err


# the deepest `~` chain before `P(#a) => P(#a)` that `ddproof prove` ended
# cleanly (exit 2) before formulas stored their facts; 12,000 segfaulted
DEEPEST_CLEAN_PROVE = 11_000


def test_deep_negation_chain_ends_cleanly():
    """Storing facts on formula nodes adds no recursion depth: the deepest
    rung `prove` ended cleanly on must still end in exit 2, not a signal.
    The child is limited to 1 GiB of address space, so a store that grew
    quadratically with depth fails here instead of exhausting the host."""
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    goal = "~" * DEEPEST_CLEAN_PROVE + "P(#a) => P(#a)"
    child = subprocess.run(
        [sys.executable, "-m", "ddproof", "prove", goal],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 2, child.stderr[-2000:]
    assert child.stdout == "unknown: budget-exhausted\n"
    assert "Traceback" not in child.stderr


def _run_limited(argv, limit=1 << 30, timeout=300):
    """`python -m ddproof` in a child limited to `limit` bytes of address
    space."""
    resource = pytest.importorskip("resource")
    return subprocess.run(
        [sys.executable, "-m", "ddproof", *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("cmd", ["prove", "countermodel"])
def test_too_deep_negation_chain_is_one_line_and_exit_2(cmd):
    """60,000 `~` exhaust the recursion limit in the parser; that is
    "unknown" (exit 2) and one line, not a traceback and exit 1."""
    child = _run_limited([cmd, "~" * 60_000 + "P(#a) => P(#a)"])
    assert child.returncode == 2, child.stderr[-2000:]
    assert child.stderr == "ddproof: unknown: input nested too deeply\n"
    assert child.stdout == ""


@pytest.mark.parametrize("cmd", ["parse", "translate"])
def test_too_deep_parentheses_are_one_line_and_exit_2(cmd, tmp_path):
    """20,000 nested parentheses, which cost three frames per level in the
    parser (16,000 still end in exit 0)."""
    path = tmp_path / "deep.rlf"
    path.write_text("(" * 20_000 + "P(#a)" + ")" * 20_000 + "\n")
    child = _run_limited([cmd, str(path)])
    assert child.returncode == 2, child.stderr[-2000:]
    assert child.stderr == "ddproof: unknown: input nested too deeply\n"
    assert child.stdout == ""


def test_reader_that_goes_away_is_exit_0(tmp_path):
    """A reader that closes the pipe early (`ddproof parse ... | head -1`)
    ends the run quietly. The read end is closed before the child starts,
    and the output is far larger than any stdout buffer, so the first
    write fails inside the command."""
    path = tmp_path / "many.rlf"
    path.write_text("P(#a) & Q(#a)\n" * 10_000)
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "ddproof", "parse", str(path)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (0, "")


def _write_chain(path, height):
    """A cut-free wl/cl chain `height` nodes high, written one node per
    line without indentation."""
    one, two = "(seq (P(#a1)) (P(#a1)))", "(seq (P(#a1), P(#a1)) (P(#a1)))"
    heads = ["(wl " + two if i % 2 else "(cl " + one for i in range(height - 1, 0, -1)]
    path.write_text("\n".join([*heads, "(ax " + one]) + ")" * height + "\n")


@pytest.mark.parametrize("cmd", ["check", "parse", "eliminate-cut"])
def test_tall_proof_needs_no_recursion_limit(cmd, tmp_path):
    """A wl/cl chain 5,000 nodes high. Every proof walk on the way (the
    parser, the kernel, regularization, the printer) is a loop, so the
    command exits 0 in a child that lowers the recursion limit to 1,000
    after importing ddproof."""
    path = tmp_path / "tall.rlp"
    _write_chain(path, 5_000)
    code = (
        "import sys\n"
        "from ddproof.cli import main\n"
        "sys.setrecursionlimit(1_000)\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, cmd, str(path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr[-2000:]


def test_tall_proof_checks_in_linear_memory(tmp_path):
    """A wl/cl chain 40,000 nodes high checks under a 1 GiB address-space
    limit: the check keeps the open path, not a path string per pending
    node, so its memory grows linearly with the height."""
    path = tmp_path / "tall.rlp"
    _write_chain(path, 40_000)
    child = _run_limited(["check", str(path)])
    assert child.returncode == 0, child.stderr[-2000:]
    assert child.stdout == "OK height=40000\n"


def test_import_loads_every_traced_module_and_no_dataclasses():
    """`import ddproof.cli` in a fresh interpreter loads every module the
    benchmark's tracer wraps (it reads them from `sys.modules` right after
    that import), every name it wraps exists, and none of the modules
    `dataclasses` would pull in is loaded."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import sys\n"
        "import ddproof.cli\n"
        "loaded = set(sys.modules)\n"
        "from tracer import TRACED\n"
        "print(sorted({m for m, _ in TRACED if 'ddproof.' + m not in loaded}))\n"
        "print(sorted({'dataclasses', 'inspect'} & loaded))\n"
        "wrapped = [*TRACED, ('semantics', 'iter_interpretations'), ('syntax', 'ParamSupply.fresh')]\n"
        "def found(m, path):\n"
        "    obj = sys.modules.get('ddproof.' + m)\n"
        "    for attr in path.split('.'):\n"
        "        obj = getattr(obj, attr, None)\n"
        "    return obj is not None\n"
        "print(sorted((m, a) for m, a in wrapped if not found(m, a)))\n"
    )
    path = os.pathsep.join([os.path.join(root, "perfbench"), *sys.path])
    child = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    assert child.stdout == "[]\n[]\n[]\n"


def test_out_of_memory_is_one_line_and_exit_2():
    """Eighteen nested binders at size 3 need vectors far beyond 256 MiB of
    address space; the MemoryError ends in exit 2 ("unknown") and one line,
    not a traceback and exit 1 ("countermodel found")."""
    resource = pytest.importorskip("resource")
    limit = 256 << 20
    binders = "".join(f"forall x{i}. " for i in range(18))
    goal = f"=> {binders}R(x0, x17) | ~R(x0, x17)"
    child = subprocess.run(
        [sys.executable, "-m", "ddproof", "countermodel", "--max-size", "3", goal],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 2, child.stderr[-2000:]
    assert child.stderr == "ddproof: unknown: out of memory\n"
    assert child.stdout == ""


class TestCountermodel:
    def test_found(self, capsys):
        code, out, _ = run(
            capsys, "countermodel", "=> (lam x. P(x)) iota y. Q(y)", "--max-size", "1"
        )
        assert code == 1
        assert "domain: {0}" in out
        assert "P/1: {}" in out

    def test_none_found(self, capsys):
        code, out, _ = run(capsys, "countermodel", "P(#a) => P(#a)", "--max-size", "3")
        assert code == 0
        assert out == "no countermodel up to size 3\n"

    def test_signature_past_the_cap_is_unknown(self, capsys):
        """Seven binary predicates: size 1 has no countermodel, and size 2
        has 2 * 16**7 interpretations, past the default cap."""
        goal = ", ".join(f"R{i}(#a, #a)" for i in range(1, 8)) + " => R1(#a, #a)"
        code, out, err = run(capsys, "countermodel", goal, "--max-size", "2")
        assert (code, out) == (2, "")
        assert err == (
            "ddproof: unknown: signature-cap (gave up after enumerating 2000001 interpretations)\n"
        )


# each subcommand, and the module whose find_countermodel it calls
@pytest.mark.parametrize("cmd, caller", [("prove", "search"), ("countermodel", "cli")])
def test_countermodel_that_satisfies_the_goal_is_one_line_and_exit_2(
    capsys, monkeypatch, cmd, caller
):
    """A model that does not falsify the goal is never printed as one."""
    goal = "P(#a) => Q(#a)"
    real = find_countermodel(parse_sequent(goal), max_size=1)
    wrong = Model(real.model.domain, {("P", 1): frozenset(), ("Q", 1): frozenset()})
    found = Countermodel(wrong, real.assignment, 1)
    monkeypatch.setattr(f"ddproof.{caller}.find_countermodel", lambda *a, **k: found)
    code, out, err = run(capsys, cmd, goal)
    assert (code, out, err) == (2, "", "ddproof: unknown: countermodel failed its check\n")


class TestCheck:
    def test_accepts_fixture(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fixtures", "--out", str(tmp_path))
        assert code == 0
        code, out, _ = run(capsys, "check", str(tmp_path / "sym_trans.rlp"))
        assert code == 0
        assert re.fullmatch(r"OK height=\d+\n", out)

    def test_rejects_broken_proof(self, capsys, tmp_path):
        bad = tmp_path / "bad.rlp"
        bad.write_text("(ax (seq (P(#a)) (Q(#a))))\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "rejected" in err

    def test_overlong_at_number_is_one_line(self, capsys, tmp_path):
        # 5,000 digits is past Python's default limit for int() of a string
        bad = tmp_path / "at.rlp"
        bad.write_text("(ax (seq (G) (G)) :at " + "9" * 5000 + ")\n")
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (1, "")
        assert err == "ddproof: parse error: 1:23: number too long\n"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.rlp"))
        assert code == 3

    def test_infers_the_instance_of_a_vacuous_description(self, capsys, tmp_path):
        # iotar without annotations, on a description whose body does not
        # mention its variable: premise 3's identity fixes the instance
        proof = tmp_path / "iotar.rlp"
        proof.write_text(
            "(iotar (seq (Q, P(#c), forall z. z = #c) ((lam x. P(x)) (iota y. Q)))\n"
            "  (wl (seq (Q, P(#c), forall z. z = #c) (Q)) (wl (seq (P(#c), Q) (Q))"
            " (ax (seq (Q) (Q)))))\n"
            "  (wl (seq (Q, P(#c), forall z. z = #c) (P(#c))) (wl (seq (Q, P(#c)) (P(#c)))"
            " (ax (seq (P(#c)) (P(#c))))))\n"
            "  (foralll (seq (Q, Q, P(#c), forall z. z = #c) (#a = #c)) :term #a\n"
            "    (wl (seq (#a = #c, Q, Q, P(#c)) (#a = #c)) (wl (seq (Q, Q, #a = #c) (#a = #c))"
            " (wl (seq (Q, #a = #c) (#a = #c)) (ax (seq (#a = #c) (#a = #c))))))))\n"
        )
        code, out, err = run(capsys, "check", str(proof))
        assert (code, out, err) == (0, "OK height=6\n", "")

    def test_eqminus_with_one_term_is_one_line(self, capsys, tmp_path):
        bad = tmp_path / "eqminus.rlp"
        bad.write_text(
            "(eqminus (seq (#a = #b, P(#a)) (P(#b))) :term #a (ax (seq (P(#b)) (P(#b)))))\n"
        )
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (1, "")
        assert err == (
            "ddproof: rejected: path=root: eqminus takes two annotated terms or none\n"
        )


@pytest.mark.parametrize("cmd", ["parse", "check", "eliminate-cut", "translate"])
def test_file_not_in_utf8_is_a_usage_error(capsys, tmp_path, cmd):
    # a UTF-16 byte order mark: not valid UTF-8
    bad = tmp_path / "bad.rlp"
    bad.write_bytes(b"\xff\xfe(\x00a\x00x\x00")
    code, out, err = run(capsys, cmd, str(bad))
    assert (code, out) == (3, "")
    assert err.startswith(f"ddproof: error: {bad}: not UTF-8 text: ")
    assert err.count("\n") == 1


class TestParseAndTranslate:
    def test_parse_formula_lines(self, capsys, tmp_path):
        f = tmp_path / "in.rlf"
        f.write_text("forall x. P(x) -> Q(x)\n\nP(#a) => P(#a)\n")
        code, out, _ = run(capsys, "parse", str(f))
        assert code == 0
        assert out == "forall x. P(x) -> Q(x)\nP(#a) => P(#a)\n"

    def test_parse_unicode(self, capsys, tmp_path):
        f = tmp_path / "in.rlf"
        f.write_text("(lam x. ~P(x)) iota y. Q(y)\n")
        code, out, _ = run(capsys, "parse", str(f), "--unicode")
        assert code == 0
        assert "λ" in out and "ι" in out and "¬" in out

    def test_parse_rejects_bad_syntax(self, capsys, tmp_path):
        f = tmp_path / "in.rlf"
        f.write_text("P(iota y. Q(y))\n")
        code, _, err = run(capsys, "parse", str(f))
        assert code == 1
        assert "parse error" in err

    def test_parse_runs_the_kernel_on_a_proof(self, capsys, tmp_path):
        # a proof is printed only once the kernel accepts it, as check does
        bad = tmp_path / "bad.rlp"
        bad.write_text("(ax (seq (P(#a)) (Q(#a))))\n")
        expected = (1, "", "ddproof: rejected: path=root: axiom sides differ\n")
        assert run(capsys, "parse", str(bad)) == expected
        assert run(capsys, "check", str(bad)) == expected

    @pytest.mark.parametrize("cmd", ["parse", "translate"])
    def test_sequent_written_with_the_glyph_arrow(self, capsys, tmp_path, cmd):
        # so that the --unicode output of a sequent file parses again
        f = tmp_path / "in.rlf"
        f.write_text("P(#a) ⇒ P(#a)\n", encoding="utf-8")
        assert run(capsys, cmd, str(f)) == (0, "P(#a) => P(#a)\n", "")

    @pytest.mark.parametrize("cmd", ["parse", "translate"])
    def test_arrow_in_a_comment_does_not_make_a_sequent(self, capsys, tmp_path, cmd):
        f = tmp_path / "in.rlf"
        f.write_text("P(#a) # implies => nothing\n")
        assert run(capsys, cmd, str(f)) == (0, "P(#a)\n", "")

    @pytest.mark.parametrize("cmd", ["parse", "translate"])
    def test_error_gives_the_files_line_and_column(self, capsys, tmp_path, cmd):
        f = tmp_path / "in.rlf"
        f.write_text("P(#a)\n\n  Q(#b) &\n")
        assert run(capsys, cmd, str(f)) == (
            1, "P(#a)\n", "ddproof: parse error: 3:10: expected a formula\n"
        )

    @pytest.mark.parametrize("cmd", ["parse", "translate"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("P(x)", "root.suc0: free variable(s) ['x'] in sequent"),
            ("P(#a) & P(#a, #b)", "root.suc0.right: predicate P used with arity 2, previously 1"),
            ("Q(#a), P(#a) => P(#a, #b)", "root.suc0: predicate P used with arity 2, previously 1"),
        ],
    )
    def test_ill_formed_line_is_one_line_and_exit_1(self, capsys, tmp_path, cmd, line, message):
        # each line is validated as prove validates its goal, a formula f
        # as the sequent => f, with its own arities
        f = tmp_path / "in.rlf"
        f.write_text(f"P(#a, #b)\n\n{line}\n")
        assert run(capsys, cmd, str(f)) == (
            1, "P(#a, #b)\n", f"ddproof: ill-formed: line 3: {message}\n"
        )

    def test_translate_file(self, capsys, tmp_path):
        f = tmp_path / "in.rlf"
        f.write_text("(lam x. P(x)) iota y. Q(y)\n(lam x. P(x)) #a => Q(#a)\n")
        code, out, _ = run(capsys, "translate", str(f))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "exists x. (forall y. Q(y) <-> y = x) & P(x)"
        assert lines[1] == "P(#a) => Q(#a)"
        assert "lam" not in out and "iota" not in out

    def test_translate_line_does_not_depend_on_earlier_lines(self, capsys, tmp_path):
        # the inner binder must be renamed away from the argument y
        f = tmp_path / "in.rlf"
        f.write_text("forall y. (lam x. exists y. R(x, y)) y\n" * 2)
        code, out, _ = run(capsys, "translate", str(f))
        assert code == 0
        assert out == "forall y. exists y1. R(y, y1)\n" * 2


class TestEliminateCut:
    def test_output_is_cut_free_and_checked(self, capsys, tmp_path):
        run(capsys, "fixtures", "--out", str(tmp_path))
        src = tmp_path / "derived_iota1l.rlp"
        code, out, _ = run(capsys, "eliminate-cut", str(src))
        assert code == 0
        root = parse_proof(out)
        check_proof(root)
        assert not cut_nodes(root)
        original = parse_proof(src.read_text())
        assert sequents_alpha_equal(root.conclusion, original.conclusion)

    def test_trace_measure_strictly_decreases(self, capsys, tmp_path):
        run(capsys, "fixtures", "--out", str(tmp_path))
        code, out, _ = run(
            capsys, "eliminate-cut", str(tmp_path / "derived_iotar.rlp"), "--emit-trace"
        )
        assert code == 0
        measures = re.findall(r"measure=\((\d+),(\d+)\)->\((\d+),(\d+)\)", out)
        assert measures
        for a, b, c, d in measures:
            assert (int(c), int(d)) < (int(a), int(b))

    def test_reordered_at_is_dropped(self, capsys, tmp_path):
        """The reduction reorders the andl's conclusion; its `:at 1` named
        P & Q in the old order, so it must go, or the kernel rejects the
        output."""
        src = tmp_path / "at.rlp"
        src.write_text(
            "(cut (seq (P & Q, A) (P)) (ax (seq (P & Q) (P & Q)))"
            " (andl (seq (A, P & Q) (P)) :at 1"
            " (wl (seq (A, P, Q) (P)) (wl (seq (P, Q) (P)) (ax (seq (P) (P)))))))"
        )
        assert run(capsys, "check", str(src))[0] == 0
        code, out, err = run(capsys, "eliminate-cut", str(src))
        assert (code, err) == (0, "")
        root = parse_proof(out)
        check_proof(root)
        assert root.rule == "andl" and root.at is None

    def test_cut_free_input_passes_through(self, capsys, tmp_path):
        run(capsys, "fixtures", "--out", str(tmp_path))
        code, out, _ = run(
            capsys, "eliminate-cut", str(tmp_path / "rlambda_left.rlp"), "--emit-trace"
        )
        assert code == 0
        assert "trace:" not in out


class TestFixtures:
    def test_writes_and_reports_all(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fixtures", "--out", str(tmp_path))
        assert code == 0
        names = [name for name, _ in fixture_proofs()]
        reported = re.findall(r"OK (\S+) height=\d+", out)
        assert reported == names
        for name in names:
            assert (tmp_path / f"{name}.rlp").exists()

    def test_out_that_cannot_be_a_directory_is_a_usage_error(self, capsys, tmp_path):
        taken = tmp_path / "taken.md"
        taken.write_text("a file\n")
        for out, reason in ((taken, "File exists"), (taken / "sub", "Not a directory")):
            code, printed, err = run(capsys, "fixtures", "--out", str(out))
            assert (code, printed) == (3, "")
            assert err.startswith("ddproof: error: ") and reason in err
            assert err.count("\n") == 1
        assert taken.read_text() == "a file\n"


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "bogus")[0] == 3

    @pytest.mark.parametrize("argv", [
        ("prove", "P(#a) => Q(#a)", "--depth", "-1"),
        ("prove", "P(#a) => Q(#a)", "--models", "-1"),
        ("prove", "P(#a) => Q(#a)", "--term-pool", "-1"),
        ("prove", "P(#a) => Q(#a)", "--contractions", "-2"),
        ("countermodel", "P(#a) => Q(#a)", "--max-size", "-2"),
    ])
    def test_negative_flag_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"ddproof: error: {argv[2]} must not be negative, got {argv[3]}\n"

    @pytest.mark.parametrize("name, argv", [
        ("RL_MAX_DEPTH", ("prove", "P(#a) => Q(#a)")),
        ("RL_MAX_MODEL", ("prove", "P(#a) => Q(#a)")),
        ("RL_MAX_MODEL", ("countermodel", "P(#a) => Q(#a)")),
    ])
    def test_negative_variable_is_a_usage_error(self, capsys, monkeypatch, name, argv):
        monkeypatch.setenv(name, "-1")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"ddproof: error: {name} must not be negative, got -1\n"

    def test_zero_bounds_are_valid(self, capsys, monkeypatch):
        monkeypatch.setenv("RL_MAX_DEPTH", "0")
        code, out, _ = run(capsys, "prove", "P(#a) => P(#a)", "--term-pool", "0",
                           "--contractions", "0")
        assert code == 0 and out.startswith("proved\n")
        code, out, _ = run(capsys, "countermodel", "P(#a) => Q(#a)", "--max-size", "0")
        assert (code, out) == (0, "no countermodel up to size 0\n")

    def test_missing_argument(self, capsys):
        assert run(capsys, "prove")[0] == 3

    def test_no_subcommand(self, capsys):
        assert run(capsys)[0] == 3
