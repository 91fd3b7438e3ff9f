"""Probabilistic state-dependent grammars: modeling, sampling,
recognition, and exact reference oracles.

The central object is :class:`Psdg`, a context-free grammar whose
production probabilities are functions of an external factored state.
`generate` walks the generative story forward, `infer` maintains the
recognition engine's belief chart, and `oracle` cross-checks both by
exhaustive enumeration.
"""
from .errors import GrammarError, PsdgError, ZeroEvidence
from .grammar import Psdg, StateSet
from .infer import Observation, init_belief, recognize, step
from .parse import load_file, load_text

__version__ = "0.1.0"

__all__ = [
    "GrammarError", "Observation", "Psdg", "PsdgError", "StateSet",
    "ZeroEvidence", "init_belief", "load_file", "load_text", "recognize",
    "step",
]
