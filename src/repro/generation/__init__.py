"""End-to-end activity definition generation, correction and evaluation.

The paper's primary contribution glued together: generate RTEC event
descriptions from natural-language activity descriptions via a (simulated)
LLM, measure their similarity to the gold standard (Figure 2a), correct
minor syntactic errors (Figure 2b), and evaluate predictive accuracy when
RTEC executes them over the AIS stream (Figure 2c).
"""

from repro.generation.correction import (
    CorrectionReport,
    correct_event_description,
    levenshtein,
)
from repro.generation.error_analysis import (
    ErrorFinding,
    ErrorReport,
    analyse_errors,
    format_report,
)
from repro.generation.evaluation import (
    ActivityScore,
    run_recognition,
    score_activities,
    score_activity,
)
from repro.generation.generator import (
    GenerationOutcome,
    MANUAL_CONSTANT_RENAMES,
    correct_outcome,
    generate,
    generate_best,
)
from repro.generation.metrics import (
    activity_similarity,
    average_similarity,
    headline_rules,
    per_activity_similarities,
)

__all__ = [
    "CorrectionReport",
    "correct_event_description",
    "levenshtein",
    "ErrorFinding",
    "ErrorReport",
    "analyse_errors",
    "format_report",
    "ActivityScore",
    "run_recognition",
    "score_activities",
    "score_activity",
    "GenerationOutcome",
    "MANUAL_CONSTANT_RENAMES",
    "correct_outcome",
    "generate",
    "generate_best",
    "activity_similarity",
    "average_similarity",
    "headline_rules",
    "per_activity_similarities",
]
