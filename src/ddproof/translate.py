"""Translation into pure first-order logic.

Predicate abstracts are eliminated bottom-up: an abstract applied to an
ordinary term beta-reduces, and an abstract applied to a description
unfolds to its quantified paraphrase (there is exactly one witness of
the description body, and it satisfies the abstract body). The output
contains no abstracts and no description terms, over the same signature,
and agrees with the input in every model.

Translating first and negating is not the same as negating first and
translating: the description's existence and uniqueness claims stay
inside the paraphrase, so negation scope is preserved, which is the
whole point of keeping descriptions as structured syntax.
"""

from .syntax import (
    Formula,
    IotaTerm,
    LambdaAtom,
    Sequent,
    _Node,
    _parts,
    _rebuild,
    substitute,
)
from .builders import paraphrase


def is_pure_fol(f: Formula) -> bool:
    """True when the formula contains no abstracts and no descriptions."""
    return not isinstance(f, LambdaAtom) and all(
        is_pure_fol(p) for p in _parts(f) if isinstance(p, _Node)
    )


def translate(f: Formula) -> Formula:
    """Eliminate every abstract: beta-reduce ordinary arguments, unfold
    description arguments to the quantified paraphrase. Homomorphic on
    everything else; an atom is returned as it is."""
    parts = _parts(f)
    if not any(isinstance(p, _Node) for p in parts):
        return f
    # translate the parts first, then eliminate this layer
    parts = [translate(p) if isinstance(p, _Node) else p for p in parts]
    if not isinstance(f, LambdaAtom):
        return _rebuild(f, parts)
    body, arg = parts
    if isinstance(arg, IotaTerm):
        return paraphrase(LambdaAtom(f.bound, body, arg))
    return substitute(body, f.bound, arg)


def translate_sequent(s: Sequent) -> Sequent:
    return Sequent(
        tuple(translate(f) for f in s.ant),
        tuple(translate(f) for f in s.suc),
    )
