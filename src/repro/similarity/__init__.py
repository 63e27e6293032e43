"""Label (typographic) similarity functions."""

from repro.similarity.labels import (
    CompositeAwareSimilarity,
    ExactSimilarity,
    JaccardTokenSimilarity,
    LabelSimilarity,
    LevenshteinSimilarity,
    OpaqueSimilarity,
    QGramCosineSimilarity,
)
from repro.similarity.levenshtein import levenshtein_distance, levenshtein_similarity
from repro.similarity.qgrams import qgram_cosine, qgrams

__all__ = [
    "LabelSimilarity",
    "OpaqueSimilarity",
    "ExactSimilarity",
    "QGramCosineSimilarity",
    "LevenshteinSimilarity",
    "JaccardTokenSimilarity",
    "CompositeAwareSimilarity",
    "levenshtein_distance",
    "levenshtein_similarity",
    "qgram_cosine",
    "qgrams",
]
