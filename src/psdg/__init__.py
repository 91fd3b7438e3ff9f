"""Probabilistic state-dependent grammars: modeling, sampling,
recognition, and exact reference oracles.

The central object is :class:`Psdg`, a context-free grammar whose
production probabilities are functions of an external factored state.
`generate` walks the generative story forward, `infer` maintains the
recognition engine's belief chart, and `oracle` cross-checks both by
exhaustive enumeration.
"""
from .errors import (DeadEnd, Diagnostic, ExplosionBound, GrammarError,
                     InvalidTrajectory, PsdgError, SetTooLarge,
                     SupportTooLarge, UndefinedConditional, UnknownProduction,
                     ZeroEvidence, ZeroEvidenceMass)
from .generate import (TimeStep, Trajectory, enumerate_chains,
                       expansion_terminates, sample_trajectory,
                       termination_flags, trajectory_probability)
from .grammar import (FeatureSpec, ProbabilityFunction, Production, Psdg,
                      StatePoint, StateSet, compile_grammar, enumerate_states,
                      prior_probability, production_probability,
                      transition_probability, validate_grammar)
from .infer import (BeliefState, Observation, StepReport,
                    conditional_production_given_symbol, explain, init_belief,
                    predict, step, symbol_transition, update)
from .oracle import (JointTable, Pcfg, Query, compare_reports, enumerate_joint,
                     exact_posterior, parse_tree, pcfg_text,
                     pcfg_tree_probability, reference_reports, to_pcfg)
from .parse import load_file, load_text, parse_text, validate_text

__version__ = "0.1.0"

__all__ = [
    "BeliefState", "DeadEnd", "Diagnostic", "ExplosionBound", "FeatureSpec",
    "GrammarError", "InvalidTrajectory", "JointTable", "Observation", "Pcfg",
    "ProbabilityFunction", "Production", "Psdg", "PsdgError", "Query",
    "SetTooLarge", "StatePoint", "StateSet", "StepReport", "SupportTooLarge",
    "TimeStep", "Trajectory", "UndefinedConditional", "UnknownProduction",
    "ZeroEvidence", "ZeroEvidenceMass", "compare_reports", "compile_grammar",
    "conditional_production_given_symbol", "enumerate_chains",
    "enumerate_joint", "enumerate_states", "exact_posterior", "explain",
    "expansion_terminates", "init_belief", "load_file", "load_text",
    "parse_text", "parse_tree", "pcfg_text", "pcfg_tree_probability",
    "predict", "prior_probability", "production_probability",
    "reference_reports", "sample_trajectory", "step", "symbol_transition",
    "termination_flags", "to_pcfg", "trajectory_probability",
    "transition_probability", "update", "validate_grammar", "validate_text",
]
