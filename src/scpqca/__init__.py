"""scpQCA: configurational comparative analysis with set-cover simplification.

The package analyses crisp multi-value case data in two steps: necessity
analysis over single literals, then enumeration of sufficiency-consistent
candidate rules and a greedy maximal-coverage selection under a unique-cover
floor. Synthetic planted-pathway experiments and internal/external validity
protocols are included.
"""

import importlib

# Each public name, by the module it lives in. A name is imported on first
# use (PEP 562), so that `import scpqca.cli` loads only what a run needs.
# A name is exported when the package, a demo, the benchmark or README uses
# it; `binary_schema`, the tests' constructor, is the one other.
_EXPORTS = {
    "candidates": ("CandidatePool", "CandidateRules", "candidate_count_bound", "enumerate_candidates"),
    "cover": ("assemble_solution", "exhaustive_cover_oracle", "greedy_cover"),
    "ingest": ("CalibrationSpec", "Cutpoints", "deduplicate", "load_csv", "to_csv_string", "write_schema_json"),
    "model": (
        "AnalysisParams",
        "CandidateRule",
        "Case",
        "CaseTable",
        "Conjunction",
        "Factor",
        "FactorSchema",
        "InputError",
        "Literal",
        "ScpqcaError",
        "Solution",
        "UndefinedRatioError",
        "VacuousSolutionError",
        "as_fraction",
        "binary_schema",
        "conjunction_expr",
        "conjunction_shorthand",
        "dnf_shorthand",
        "match_bits",
        "necessity_consistency",
        "replace",
        "rule_from_conjunction",
        "solution_metrics",
    ),
    "necessity": ("exclude_necessary", "necessary_conditions"),
    "pathways": (
        "ExperimentReport",
        "ExperimentSpec",
        "PathwaySpec",
        "generate_experiment_table",
        "parse_pathway",
        "run_experiment",
        "synth_schema",
    ),
    "pipeline": ("SolveResult", "solve"),
    "robustness": (
        "ValidityClass",
        "ValidityReport",
        "classify_configuration",
        "derive_seed",
        "external_validity",
        "internal_sweep",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
