"""Simulator for mutation-and-selection learnability of Boolean functions.

A single lineage of hypotheses mutates locally and survives on empirical
correlation with a hidden target under the uniform distribution on the
Boolean cube.  The package provides the generic engine, monotone
conjunction and clause-wise DNF representation classes, exact and
sampled performance measures with clause-vs-clause matrices, and seeded
experiment drivers with golden-value self-checks.
"""
from .boolfn import (MonotoneConjunction, MonotoneDnf, OutputConvention,
                     ParityFunction, exact_perf, truth_table)
from .engine import (CorrelationFitness, EvalCounters, EvolutionParams,
                     EvolutionTrace, GenerationRecord, RepresentationClass,
                     classify_neighborhood, default_params, evolve)
from .errors import (ConfigError, ContractError, DimensionMismatchError,
                     EnumerationBudgetError, EvoforgeError, KMismatchError,
                     ParameterError)
from .experiments import (REGISTRY, ExperimentReport, GoldenCheck,
                          run_conjunction_evolvability, run_counterexample,
                          run_parity, run_redundancy_bias,
                          run_structural_vs_functional)
from .perf import (Aggregator, PerfMatrix, SampleSpec, empirical_perf,
                   gen_perf, matched_min, term_perf_matrix)
from .representations import (BestClauseFitness, ConjunctionClass,
                              KdnfResult, conj_mutation_weights,
                              conj_neighborhood, default_neigh_cap,
                              evolve_conjunction, evolve_kdnf)

__version__ = "0.1.0"

__all__ = [
    "Aggregator", "BestClauseFitness", "ConfigError", "ConjunctionClass",
    "ContractError", "CorrelationFitness", "DimensionMismatchError",
    "EnumerationBudgetError", "EvalCounters", "EvolutionParams",
    "EvolutionTrace", "EvoforgeError", "ExperimentReport",
    "GenerationRecord", "GoldenCheck", "KMismatchError", "KdnfResult",
    "MonotoneConjunction", "MonotoneDnf", "OutputConvention",
    "ParameterError", "ParityFunction", "PerfMatrix", "REGISTRY",
    "RepresentationClass", "SampleSpec", "classify_neighborhood",
    "conj_mutation_weights", "conj_neighborhood", "default_neigh_cap",
    "default_params", "empirical_perf", "evolve", "evolve_conjunction",
    "evolve_kdnf", "exact_perf", "gen_perf", "matched_min",
    "run_conjunction_evolvability", "run_counterexample", "run_parity",
    "run_redundancy_bias", "run_structural_vs_functional",
    "term_perf_matrix", "truth_table",
]
