"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD --seed N --round R [--trace] [--setup-only]

Sets the workload up (imports, input generation), runs its items one after
another, checks every output against its known answer outside the timed
part, and prints one JSON object: the set-up time, one row per item
(latency, passed, decided, note), the speed probes taken between items, the
peak memory, and with --trace the per-layer totals. `run.py` starts one of
these per round.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

# items per desk-check round
DESK_ITEMS = 100

# time between speed probes while items run, and probes after a bare set-up
PROBE_INTERVAL_S = 0.25
SETUP_PROBES = 15


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not touch
    ddproof: tuple and dict allocation, a linked walk, string conversion.
    Taken between items, it tracks how fast the host runs the interpreter
    at the moment, so that run.py can factor host speed out of the times."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(12):
        node = None
        for i in range(2000):
            node = (i, node, {"k": i % 7}, str(i))
        while node is not None:
            acc += node[0] + node[2]["k"] + len(node[3])
            node = node[1]
    return time.perf_counter() - t0

def _load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# prove-sample: parse a sequent, then bounded proof search


class ProveSample:
    def setup(self, seed, rnd):
        import gen
        from ddproof import search, surface
        from ddproof.surface import format_sequent

        # calls go through the modules, so that a tracer installed later
        # sees them
        self.modules = search, surface
        self.budget = gen.PROVE_BUDGET
        ref = _load_reference()["prove-sample"]
        texts = [format_sequent(s) for s in gen.prove_sample()]
        return [(i, "sequent", (t, ref[i])) for i, t in enumerate(texts)]

    def run(self, payload):
        search, surface = self.modules
        goal = surface.parse_sequent(payload[0])
        return goal, search.prove(goal, self.budget)

    def check(self, payload, out):
        from ddproof.kernel import check_proof
        from ddproof.semantics import eval_sequent, find_countermodel
        from ddproof.syntax import sequents_alpha_equal

        goal, verdict = out
        kind = type(verdict).__name__
        if kind[0] != payload[1]:
            return False, False, f"verdict {kind}, reference {payload[1]}"
        if kind == "Proved":
            root = verdict.proof.root
            check_proof(root)
            if not sequents_alpha_equal(root.conclusion, goal):
                return False, True, "proof of another sequent"
            if find_countermodel(goal, 2) is not None:
                return False, True, "proved sequent has a countermodel"
        elif kind == "Refuted":
            if eval_sequent(goal, verdict.model, verdict.assignment):
                return False, True, "countermodel satisfies the sequent"
        return True, kind != "Unknown", ""


# ---------------------------------------------------------------------------
# cut-corpus: eliminate cuts, then re-check the output as the CLI does


class CutCorpus:
    def setup(self, seed, rnd):
        import gen
        from ddproof import cutelim, kernel

        self.modules = cutelim, kernel
        ref = _load_reference()["cut-corpus"]
        items = []
        for i, (name, proof) in enumerate(gen.cut_corpus()):
            if not kernel.check_proof(proof).cut_degrees:
                raise SystemExit(f"cut-corpus proof {name} has no cut")
            items.append((i, name, (proof, ref[i])))
        return items

    def run(self, payload):
        cutelim, kernel = self.modules
        out, trace = cutelim.eliminate_cuts_traced(payload[0])
        kernel.check_proof(out)
        return out, trace

    def check(self, payload, out):
        from ddproof.kernel import cut_nodes, proof_size
        from ddproof.syntax import sequents_alpha_equal

        proof, ref = payload
        result, trace = out
        if cut_nodes(result):
            return False, True, "output still has cuts"
        if not sequents_alpha_equal(result.conclusion, proof.conclusion):
            return False, True, "end-sequent changed"
        if not trace:
            return False, True, "no reduction steps recorded"
        for e in trace:
            if (e.degree_after, e.maximal_after) >= (e.degree_before, e.maximal_before):
                return False, True, "trace measure did not decrease"
        got = [len(trace), proof_size(result)]
        if got != [ref["steps"], ref["nodes_out"]]:
            return False, True, f"steps, nodes_out {got}, reference {ref}"
        return True, True, ""


# ---------------------------------------------------------------------------
# desk-check: build, print, parse and check a proof, then sweep small models


class DeskCheck:
    def setup(self, seed, rnd):
        import gen
        from ddproof import builders, kernel, semantics, surface
        from ddproof.syntax import Param

        self.modules = builders, kernel, semantics, surface
        self.b1, self.b2 = Param("b1"), Param("b2")
        rng = random.Random(seed * 1_000_003 + rnd)
        return [(i, "formula", phi) for i, phi in enumerate(gen.desk_formulas(rng, DESK_ITEMS))]

    def run(self, phi):
        builders, kernel, semantics, surface = self.modules
        proof = builders.build_leibniz(phi, "x", self.b1, self.b2)
        parsed = surface.parse_proof(surface.format_proof(proof))
        kernel.check_proof(parsed)
        return proof, parsed, semantics.find_countermodel(parsed.conclusion, max_size=2)

    def check(self, phi, out):
        from ddproof.kernel import proofs_equal
        from ddproof.semantics import iter_interpretations, signature_of

        proof, parsed, cm = out
        if not proofs_equal(parsed, proof):
            return False, True, "print/parse round trip changed the proof"
        if cm is not None:
            return False, False, "countermodel to a valid sequent"
        sig = signature_of(parsed.conclusion)
        expect = 0
        for size in (1, 2):
            n = size ** (len(sig.consts) + len(sig.params))
            for _, arity in sig.preds:
                n *= 2 ** (size**arity)
            expect += n
        seen = sum(1 for size in (1, 2) for _ in iter_interpretations(sig, size))
        if seen != expect:
            return False, True, f"{seen} interpretations, closed form {expect}"
        return True, True, ""


# ---------------------------------------------------------------------------
# cli-readme: one ddproof process per README example

DEMO_RLF = "(lam x. P(x)) iota y. Q(y)\n"

# (label, arguments, environment overrides, exit code, stdout), as the
# README documents them
CLI_EXAMPLES = (
    ("prove-proved", ["prove", "P(#a) => P(#a)"], {}, 0,
     "proved\n(ax (seq (P(#a)) (P(#a))))\n"),
    ("prove-refuted", ["prove", "=> (lam x. P(x)) iota y. Q(y)"], {}, 1,
     "refuted\ndomain: {0}\nP/1: {}\nQ/1: {}\n"),
    ("prove-unknown", ["prove", "forall x. P(x) => exists y. P(y)"],
     {"RL_MAX_DEPTH": "0"}, 2, "unknown: budget-exhausted\n"),
    ("countermodel", ["countermodel", "forall x. P(x) => exists y. Q(y)", "--max-size", "2"],
     {}, 1, "domain: {0}\nP/1: {0}\nQ/1: {}\n"),
    ("parse", ["parse", "{work}/demo.rlf", "--unicode"], {}, 0,
     "(λx. P(x)) (ιy. Q(y))\n"),
    ("translate", ["translate", "{work}/demo.rlf"], {}, 0,
     "exists x. (forall y. Q(y) <-> y = x) & P(x)\n"),
    ("check", ["check", "{work}/rlambda_left.rlp"], {}, 0, "OK height=12\n"),
)


def _spawn(argv, env):
    """Run a process to exit; returns (seconds, exit code, output, max RSS KiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return time.perf_counter() - t0, proc.returncode, output.decode("utf-8"), usage.ru_maxrss


class CliReadme:
    def setup(self, seed, rnd):
        from ddproof.builders import build_rlambda_left
        from ddproof.surface import format_proof, parse_formula

        self.work = os.path.join(OUT_DIR, "cli-work")
        os.makedirs(self.work, exist_ok=True)
        with open(os.path.join(self.work, "demo.rlf"), "w", encoding="utf-8") as fh:
            fh.write(DEMO_RLF)
        proof = build_rlambda_left(parse_formula("(lam x. P(x)) (iota y. Q(y))"))
        with open(os.path.join(self.work, "rlambda_left.rlp"), "w", encoding="utf-8") as fh:
            fh.write(format_proof(proof) + "\n")
        self.env = dict(os.environ)
        self.env.pop("RL_MAX_DEPTH", None)
        self.env.pop("RL_MAX_MODEL", None)
        self.traced = False
        self.child_rss = 0
        self.layer_files = []
        items = [(i, ex[0], ex) for i, ex in enumerate(CLI_EXAMPLES)]
        random.Random(seed * 1_000_003 + rnd).shuffle(items)
        return items

    def run(self, example):
        label, args, env_over, _, _ = example
        args = [a.replace("{work}", self.work) for a in args]
        env = dict(self.env, **env_over)
        if self.traced:
            path = os.path.join(OUT_DIR, f"layers-cli-{label}.json")
            self.layer_files.append(path)
            argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), path, *args]
        else:
            argv = [sys.executable, "-m", "ddproof", *args]
        _, code, output, rss = _spawn(argv, env)
        self.child_rss = max(self.child_rss, rss)
        return code, output

    def check(self, example, out):
        label, _, _, want_code, want_out = example
        code, output = out
        if code != want_code:
            return False, False, f"exit {code}, documented {want_code}: {output[-200:]!r}"
        # a README block cannot show the blank line after a printed proof
        if output.rstrip("\n") != want_out.rstrip("\n"):
            return False, code != 2, f"stdout {output!r}"
        return True, code != 2, ""

    def floors(self, repeat: int = 5) -> dict:
        """Median interpreter start-up and `import ddproof.cli`, in ms."""
        from stats import median

        bare = [_spawn([sys.executable, "-c", "pass"], self.env)[0] for _ in range(repeat)]
        imp = [
            _spawn([sys.executable, "-c", "import ddproof.cli"], self.env)[0]
            for _ in range(repeat)
        ]
        floor = median(bare) * 1000
        return {"interpreter_ms": floor, "import_ms": median(imp) * 1000 - floor}


WORKLOADS = {
    "prove-sample": ProveSample,
    "cut-corpus": CutCorpus,
    "desk-check": DeskCheck,
    "cli-readme": CliReadme,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import ddproof

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(ddproof.__file__), src]) != src:
        print(f"ddproof imported from {ddproof.__file__}, not {src}", file=sys.stderr)
        return 1

    wl = WORKLOADS[args.workload]()
    items = wl.setup(args.seed, args.round)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}
    if args.setup_only:
        result["probes"] = [speed_probe() for _ in range(SETUP_PROBES)]
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        if isinstance(wl, CliReadme):
            wl.traced = True
        else:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()

    rows = []
    probes = [speed_probe()]
    last_probe = time.perf_counter()
    for item_id, label, payload in items:
        if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            probes.append(speed_probe())
            last_probe = time.perf_counter()
        if tracer is not None:
            tracer.current_item = item_id
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = wl.run(payload)
            err = None
        except Exception as exc:  # an item that raises counts as failed
            err = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if err is None:
            try:
                ok, decided, note = wl.check(payload, out)
            except Exception as exc:
                ok, decided, note = False, False, f"check raised {type(exc).__name__}: {exc}"
        else:
            ok, decided, note = False, False, err
        rows.append([item_id, label, latency, ok, decided, note])

    probes.append(speed_probe())
    result["items"] = rows
    result["probes"] = probes
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if isinstance(wl, CliReadme):
        rss = wl.child_rss
    result["peak_rss_kb"] = rss
    if tracer is not None:
        result["trace"] = tracer.layer_metrics()
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))
    elif args.trace:
        result["trace"] = merge_layer_files(wl.layer_files)
        result["cli"] = wl.floors()
    print(json.dumps(result))
    return 0


def merge_layer_files(paths) -> dict:
    """Sum the per-layer totals written by traced CLI processes."""
    merged = {"layers": {}, "covered_s": 0.0, "counts": {}, "unknown_s": 0.0}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            part = json.load(fh)
        for name, row in part["layers"].items():
            acc = merged["layers"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for name, n in part["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + n
        merged["covered_s"] += part["covered_s"]
        merged["unknown_s"] += part["unknown_s"]
    return merged


if __name__ == "__main__":
    sys.exit(main())
