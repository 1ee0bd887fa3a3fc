"""Analysis helpers: Table-I comparisons, buffer metrics, trade-offs, corpus stats."""

from .corpus_stats import render_corpus_summary, summarize_corpus
from .metrics import (
    ComparisonTable,
    ImplementationMetrics,
    build_comparison,
    functional_metrics,
    qss_metrics,
    total_buffer_tokens,
)
from .tradeoffs import overhead_sensitivity

__all__ = [
    "ImplementationMetrics",
    "ComparisonTable",
    "qss_metrics",
    "functional_metrics",
    "build_comparison",
    "total_buffer_tokens",
    "overhead_sensitivity",
    "summarize_corpus",
    "render_corpus_summary",
]
