"""Quality-of-service evaluation against a query-latency SLA.

The paper's QoS study (Figure 14b) serves Llama2-70B under different batch
sizes (GPU) and TP/PP mappings (CENT) and reports query latency against
throughput; a realistic SLA bounds the acceptable query latency (the MLPerf
Llama2-70B server scenario is the reference the paper cites).

``evaluate_sla`` classifies generic (latency, throughput) operating points;
``evaluate_sla_from_serving`` derives those points from **measured**
serving runs (:class:`~repro.core.results.ServingResult`) instead of
hand-fed closed-form numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.results import ServingResult, check_sla_latency_s

__all__ = ["SlaReport", "evaluate_sla", "evaluate_sla_from_serving"]


@dataclass(frozen=True)
class SlaReport:
    """Outcome of checking (latency, throughput) operating points."""

    sla_latency_s: float
    compliant_points: List[Tuple[float, float]]
    violating_points: List[Tuple[float, float]]

    @property
    def best_compliant_throughput(self) -> float:
        """Highest throughput among the SLA-compliant operating points."""
        if not self.compliant_points:
            return 0.0
        return max(throughput for _, throughput in self.compliant_points)

    @property
    def violation_fraction(self) -> float:
        total = len(self.compliant_points) + len(self.violating_points)
        if total == 0:
            return 0.0
        return len(self.violating_points) / total


def evaluate_sla(
    operating_points: Sequence[Tuple[float, float]],
    sla_latency_s: float,
) -> SlaReport:
    """Split (query latency [s], throughput) points by SLA compliance."""
    check_sla_latency_s(sla_latency_s)
    compliant = [(lat, thr) for lat, thr in operating_points if lat <= sla_latency_s]
    violating = [(lat, thr) for lat, thr in operating_points if lat > sla_latency_s]
    return SlaReport(
        sla_latency_s=sla_latency_s,
        compliant_points=compliant,
        violating_points=violating,
    )


def evaluate_sla_from_serving(
    results: Sequence[ServingResult],
    sla_latency_s: float,
    percentile: str = "p99",
) -> SlaReport:
    """Classify measured serving runs by a query-latency SLA.

    Each run contributes one operating point: its measured query-latency
    percentile (``"p50"``, ``"p90"``, ``"p99"``, ``"mean"`` or ``"max"``)
    against its measured throughput in generated tokens per second.
    """
    valid = ("p50", "p90", "p99", "mean", "max")
    if percentile not in valid:
        raise ValueError(f"percentile must be one of {valid}, got {percentile!r}")
    points = [
        (getattr(result.query_latency, f"{percentile}_s"),
         result.throughput_tokens_per_s)
        for result in results
    ]
    return evaluate_sla(points, sla_latency_s)
