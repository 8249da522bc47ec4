"""Run observability: metrics, structured events, summaries.

The package is telemetry-only by contract — no runtime reads observer
state to make a decision, so attaching (or detaching) an observer never
changes a run's outcome, trace, or model-checking fingerprints.
"""

from repro.obs.events import EventLog
from repro.obs.observer import Observer
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.schema import (
    BENCH_RESULT_SCHEMA,
    SCHEMA_VERSION,
    validate_bench_result,
    validate_bench_result_file,
)
from repro.obs.summary import render_summary, summarize_export

__all__ = [
    "Observer",
    "EventLog",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "BENCH_RESULT_SCHEMA",
    "SCHEMA_VERSION",
    "validate_bench_result",
    "validate_bench_result_file",
    "summarize_export",
    "render_summary",
]
