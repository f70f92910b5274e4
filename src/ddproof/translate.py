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
    BINARY_OPS,
    QUANTIFIERS,
    Formula,
    Identity,
    IotaTerm,
    LambdaAtom,
    Not,
    PredAtom,
    Sequent,
    substitute,
)
from .builders import paraphrase


def is_pure_fol(f: Formula) -> bool:
    """True when the formula contains no abstracts and no descriptions."""
    if isinstance(f, (PredAtom, Identity)):
        return True
    if isinstance(f, Not):
        return is_pure_fol(f.sub)
    if isinstance(f, BINARY_OPS):
        return is_pure_fol(f.left) and is_pure_fol(f.right)
    if isinstance(f, QUANTIFIERS):
        return is_pure_fol(f.body)
    return False  # LambdaAtom


def translate(f: Formula) -> Formula:
    """Eliminate every abstract: beta-reduce ordinary arguments, unfold
    description arguments to the quantified paraphrase. Homomorphic on
    everything else."""
    if isinstance(f, (PredAtom, Identity)):
        return f
    if isinstance(f, Not):
        return Not(translate(f.sub))
    if isinstance(f, BINARY_OPS):
        return type(f)(translate(f.left), translate(f.right))
    if isinstance(f, QUANTIFIERS):
        return type(f)(f.bound, translate(f.body))
    # abstract: translate the bodies first, then eliminate this layer
    if isinstance(f.arg, IotaTerm):
        unfolded = LambdaAtom(
            f.bound,
            translate(f.body),
            IotaTerm(f.arg.bound, translate(f.arg.body)),
        )
        return paraphrase(unfolded)
    return substitute(translate(f.body), f.bound, f.arg)


def translate_sequent(s: Sequent) -> Sequent:
    return Sequent(
        tuple(translate(f) for f in s.ant),
        tuple(translate(f) for f in s.suc),
    )
