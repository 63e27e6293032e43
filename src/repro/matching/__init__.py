"""Maximum-weight assignment and matching-quality evaluation."""

from repro.matching.assignment import (
    assignment_weight,
    max_weight_assignment,
    min_cost_assignment,
)
from repro.matching.evaluation import (
    Correspondence,
    MatchEvaluation,
    correspondence_links,
    evaluate,
    mean_evaluation,
)

__all__ = [
    "max_weight_assignment",
    "min_cost_assignment",
    "assignment_weight",
    "Correspondence",
    "MatchEvaluation",
    "correspondence_links",
    "evaluate",
    "mean_evaluation",
]
