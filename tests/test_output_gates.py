"""The output gates of tools/output_gates.py, each pinned to its digest and
tally, so that a change to what ddproof prints fails here. Each gate runs
in its own interpreter, as `python3 tools/output_gates.py <gate>` does.

A change that moves a gate on purpose updates its line here, and says
which gate moved and why."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GATES = {
    "prove-sample": "4a66668f2f0fc1ca694e8de4460511936bd62914184785c2a1fec67dd4ad14ac 392/99/9",
    "prove-default": "6c49a5d5c36c8c3ee2e0bd2af0dcebc54a88b4480245594e000a958f3c003c50 392/104/4",
    "cut-corpus": "75989ccdc91edba48953596a96b9916793cffbac89c512fce725279da2dc5c01 157 steps",
    "cut-extra": "26e2deeaee3d277f37eb14317362e2811dd85e0e7a7705c454a6515ee997c85e 730 steps",
    "parse": "7263637a24fcf3c3afdbef77e3d4c6a6abf5308b2962ce9df6b50b39857be879"
             " 1426 accepted, 3410 rejected",
    "kernel": "afd10015643d6b0d6a3cf0a02ba3e205f42128ee8917aa2e1b37aebb353ea90e"
              " 222 accepted, 1290 rejected, 0 crashed",
    "translate": "dd665ff7319dd9e142010d97a6cdc0ec33b94afe97e8c4ed4518ceb7a7cc8386 700 lines",
    "walks": "64867f8e42b228404162ee08eb09665b95d3621c9e8848c6ab92533f9e8cdcb7 4676 formulas",
    "countermodel": "ecc7d016efc2e403ae540cbcec96fae96aada51839136087bfce9bc598e2661f"
                    " 2355 sequents; cap 100000: 409 countermodels, 1946 none, 0 cap hits;"
                    " cap 1000: 409 countermodels, 390 none, 1556 cap hits",
}


def test_every_gate_is_pinned():
    path = os.path.join(ROOT, "tools", "output_gates.py")
    spec = importlib.util.spec_from_file_location("output_gates", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert list(tool.GATES) == list(GATES)


@pytest.mark.parametrize("gate", GATES)
def test_gate_digest(gate):
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "output_gates.py"), gate],
        capture_output=True, text=True, timeout=600,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == f"{gate} {GATES[gate]}\n"
