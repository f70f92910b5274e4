"""Regenerate reference.json, the known answers the benchmark compares with.

    PYTHONPATH=src python3 perfbench/make_reference.py

Records the verdict kind (P, R or U) of each prove-sample sequent and the
number of reduction steps and output nodes of each cut-corpus proof, as
the code at hand computes them. Run it only when a change is meant to
alter those answers; every benchmark run fails on a mismatch.
"""

import json
import os

import gen
from ddproof.cutelim import eliminate_cuts_traced
from ddproof.kernel import proof_size
from ddproof.search import prove

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    verdicts = "".join(type(prove(s, gen.PROVE_BUDGET)).__name__[0] for s in gen.prove_sample())
    cuts = []
    for name, proof in gen.cut_corpus():
        out, trace = eliminate_cuts_traced(proof)
        cuts.append({"name": name, "steps": len(trace), "nodes_out": proof_size(out)})
    ref = {
        "prove-sample": verdicts,
        "prove-sample.tally": {k: verdicts.count(k) for k in "PRU"},
        "cut-corpus": cuts,
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(ref["prove-sample.tally"], sum(c["steps"] for c in cuts), "cut steps")


if __name__ == "__main__":
    main()
