"""Span tracing around the public functions of the ddproof modules.

`Tracer.install` replaces each traced function by a wrapper in every
`ddproof.*` module that binds it by name (the modules import by name, so
patching only the defining module would miss most calls), and wraps
`ParamSupply.fresh` on the class. Nothing under `src/` changes.

A span is (name, start, end, parent, item). Spans are kept in flat arrays
while the workload runs and written out when it ends. Only the outermost
entry of a recursive function is recorded. Inside a `search.prove` span the
first `find_countermodel` call is the up-front refutation pass and later
ones are the per-branch probes; outside `prove` a call is a sweep.
"""

import json
import os
import sys
import time
from array import array

from stats import layer_totals

# (module, attribute) of every function traced; the span name is
# "<module>.<attribute>". parse_sequent is not reported, but its span
# keeps prove-sample's parsing out of the uncovered share.
TRACED = (
    ("surface", "parse_proof"),
    ("surface", "parse_sequent"),
    ("surface", "format_proof"),
    ("syntax", "substitute"),
    ("syntax", "alpha_key"),
    ("syntax", "sequent_key"),
    ("kernel", "check_proof"),
    ("kernel", "proof_params"),
    ("kernel", "cut_nodes"),
    ("kernel", "analyze_step"),
    ("builders", "build_leibniz"),
    ("builders", "weaken_to"),
    ("cutelim", "eliminate_cuts_traced"),
    ("cutelim", "regularize"),
    ("cutelim", "is_regular"),
    ("cutelim", "left_reduce"),
    ("semantics", "find_countermodel"),
    ("search", "prove"),
    ("translate", "translate"),
)

# bookkeeping done by the tracer itself inside a span's interval; recorded
# as a child span so it is not charged to the traced function
TRACER_SPAN = "tracer"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self.enabled = False
        self.current_item = -1
        # counts taken at the span boundaries
        self.counts = {
            "check_nodes": 0,
            "parse_nodes": 0,
            "interpretations": 0,
            "cap_hits": 0,
            "probe_hits": 0,
            "cut_steps": 0,
            "cut_nodes_in": 0,
            "cut_nodes_out": 0,
            "verdicts.proved": 0,
            "verdicts.refuted": 0,
            "verdicts.unknown": 0,
        }
        self.unknown_s = 0.0
        self._prove_fcm_seen = False

    # -- recording -----------------------------------------------------

    def _enter(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self):
        return len(self.start)

    def __getitem__(self, i):
        """Span i as (name, start, end, parent, item)."""
        return (
            self.names[self.name[i]],
            self.start[i],
            self.end[i],
            self.parent[i],
            self.item[i],
        )

    # -- wrapping ------------------------------------------------------

    def _wrap(self, key: str, fn, post=None, label_of=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled or tracer._open.get(key):
                return fn(*args, **kwargs)
            label = label_of() if label_of else key
            tracer._open[key] = 1
            idx = tracer._enter(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(idx)
                tracer._open[key] = 0
                if post is not None:
                    post(idx, args, None, exc)
                raise
            tracer._exit(idx)
            tracer._open[key] = 0
            if post is not None:
                post(idx, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted_generator(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            for x in fn(*args, **kwargs):
                if tracer.enabled:
                    tracer.counts["interpretations"] += 1
                yield x

        counted.__wrapped__ = fn
        return counted

    def _fcm_label(self) -> str:
        if self._open.get("search.prove"):
            if self._prove_fcm_seen:
                return "semantics.find_countermodel.probe"
            self._prove_fcm_seen = True
            return "semantics.find_countermodel.upfront"
        return "semantics.find_countermodel.sweep"

    def install(self) -> None:
        """Wrap every traced function wherever a ddproof module binds it."""
        import ddproof.cli  # noqa: F401  (loads every module)
        from ddproof import kernel, syntax
        from ddproof.semantics import EnumerationCapError

        proof_size = kernel.proof_size
        modules = [m for n, m in sys.modules.items() if n.startswith("ddproof")]
        counts = self.counts

        def count_nodes(key, root):
            idx = self._enter(TRACER_SPAN)
            counts[key] += proof_size(root)
            self._exit(idx)

        def post_check(idx, args, result, exc):
            if exc is None:
                count_nodes("check_nodes", args[0])

        def post_parse(idx, args, result, exc):
            if exc is None:
                count_nodes("parse_nodes", result)

        def post_cutelim(idx, args, result, exc):
            if exc is None:
                out, trace = result
                counts["cut_steps"] += len(trace)
                count_nodes("cut_nodes_in", args[0])
                count_nodes("cut_nodes_out", out)

        def post_fcm(idx, args, result, exc):
            if isinstance(exc, EnumerationCapError):
                counts["cap_hits"] += 1
            elif result is not None and self.names[self.name[idx]].endswith(".probe"):
                counts["probe_hits"] += 1

        def post_prove(idx, args, result, exc):
            if exc is not None:
                return
            kind = type(result).__name__.lower()
            counts["verdicts." + kind] += 1
            if kind == "unknown":
                self.unknown_s += self.end[idx] - self.start[idx]

        def prove_label():
            self._prove_fcm_seen = False
            return "search.prove"

        hooks = {
            "kernel.check_proof": (post_check, None),
            "surface.parse_proof": (post_parse, None),
            "cutelim.eliminate_cuts_traced": (post_cutelim, None),
            "semantics.find_countermodel": (post_fcm, self._fcm_label),
            "search.prove": (post_prove, prove_label),
        }
        replace = {}
        for mod_name, attr in TRACED:
            key = f"{mod_name}.{attr}"
            fn = getattr(sys.modules["ddproof." + mod_name], attr)
            post, label_of = hooks.get(key, (None, None))
            replace[id(fn)] = (fn, self._wrap(key, fn, post, label_of))
        gen = sys.modules["ddproof.semantics"].iter_interpretations
        replace[id(gen)] = (gen, self._counted_generator(gen))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        syntax.ParamSupply.fresh = self._wrap(
            "syntax.ParamSupply.fresh", syntax.ParamSupply.fresh
        )

    # -- output --------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as flat binary arrays after a JSON header line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "fields": ["start:f64", "end:f64", "name:i32", "parent:i32", "item:i32"],
            "count": len(self.start),
            "names": self.names,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent, self.item):
                arr.tofile(fh)

    def layer_metrics(self) -> dict:
        """Per-layer calls and self times, plus the boundary counts."""
        layers, covered = layer_totals(self, skip=(TRACER_SPAN,))
        return {
            "layers": layers,
            "covered_s": covered,
            "counts": dict(self.counts),
            "unknown_s": self.unknown_s,
        }
