"""Query definitions, synthetic trace generators and arrival processes."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "Query",
    "fixed_queries",
    "sharegpt_like_queries",
    "prefix_reuse_queries",
    "poisson_arrivals",
    "bursty_arrivals",
    "validate_arrivals",
    "with_arrivals",
]


@dataclass(frozen=True)
class Query:
    """One inference request: a prompt, tokens to generate, and when it arrives.

    ``arrival_time_s`` defaults to zero, which reproduces the paper's static
    evaluation shape (every query present at the start of the run); the
    serving engine uses it to replay trace-driven open-loop traffic.

    ``prefix_id`` / ``prefix_tokens`` declare that the first
    ``prefix_tokens`` of the prompt are content-identical across every
    query carrying the same id (a tenant's system prompt, a shared few-shot
    preamble).  A prefix-sharing engine keys its KV cache on the pair, so
    the id must change whenever the underlying prefix text does.  Both
    default off; a trace that never sets them is served exactly as before.
    """

    prompt_tokens: int
    decode_tokens: int
    arrival_time_s: float = 0.0
    prefix_id: Optional[str] = None
    prefix_tokens: int = 0

    def __post_init__(self) -> None:
        if self.prompt_tokens <= 0 or self.decode_tokens <= 0:
            raise ValueError("prompt and decode token counts must be positive")
        if not np.isfinite(self.arrival_time_s) or self.arrival_time_s < 0:
            raise ValueError("arrival time must be finite and non-negative")
        if (self.prefix_id is None) != (self.prefix_tokens == 0):
            raise ValueError(
                "prefix_id and prefix_tokens must be set together "
                f"(got prefix_id={self.prefix_id!r}, "
                f"prefix_tokens={self.prefix_tokens})"
            )
        if self.prefix_tokens < 0 or self.prefix_tokens > self.prompt_tokens:
            raise ValueError(
                f"prefix_tokens must lie in [0, prompt_tokens], got "
                f"{self.prefix_tokens} with prompt_tokens={self.prompt_tokens}"
            )

    @property
    def total_context(self) -> int:
        return self.prompt_tokens + self.decode_tokens

    @property
    def prefix_key(self) -> Optional[tuple]:
        """Hash key of the shared prefix, or None for a prefix-free query."""
        if self.prefix_id is None:
            return None
        return (self.prefix_id, self.prefix_tokens)


def fixed_queries(count: int, prompt_tokens: int = 512, decode_tokens: int = 3584) -> List[Query]:
    """A batch of identical queries (the paper's main evaluation shape)."""
    if count <= 0:
        raise ValueError("count must be positive")
    return [Query(prompt_tokens, decode_tokens) for _ in range(count)]


def sharegpt_like_queries(
    count: int,
    seed: int = 2025,
    mean_prompt_tokens: float = 161.0,
    mean_decode_tokens: float = 338.0,
    sigma: float = 0.8,
    max_context: int = 2048,
) -> List[Query]:
    """A deterministic synthetic trace with ShareGPT-like length statistics.

    Prompt and output lengths follow log-normal distributions whose means
    match the commonly reported ShareGPT averages (~161 prompt tokens, ~338
    output tokens); lengths are clipped so the total stays within
    ``max_context``.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if mean_prompt_tokens <= 0 or mean_decode_tokens <= 0 or sigma <= 0:
        raise ValueError("length statistics must be positive")
    rng = np.random.default_rng(seed)

    def lengths(mean: float) -> np.ndarray:
        mu = np.log(mean) - sigma**2 / 2.0
        values = rng.lognormal(mean=mu, sigma=sigma, size=count)
        return np.maximum(values.astype(int), 1)

    prompts = lengths(mean_prompt_tokens)
    outputs = lengths(mean_decode_tokens)
    queries = []
    for prompt, output in zip(prompts, outputs, strict=True):
        prompt = int(min(prompt, max_context - 1))
        output = int(min(output, max_context - prompt))
        queries.append(Query(max(prompt, 1), max(output, 1)))
    return queries


def prefix_reuse_queries(
    count: int,
    num_tenants: int = 8,
    reuse_fraction: float = 0.8,
    mean_prefix_tokens: float = 256.0,
    mean_suffix_tokens: float = 96.0,
    mean_decode_tokens: float = 256.0,
    sigma: float = 0.6,
    tenant_skew: float = 1.2,
    seed: int = 2025,
    max_context: int = 4096,
) -> List[Query]:
    """A deterministic multi-tenant trace with shared-prefix reuse.

    Each of ``num_tenants`` tenants owns one fixed prefix (its system
    prompt / few-shot preamble) whose length is log-normal around
    ``mean_prefix_tokens``; tenants are picked with Zipf-like popularity
    (``weight ∝ 1 / rank^tenant_skew``), so a few hot tenants dominate —
    the regime where prefix caching pays.  A query reuses its tenant's
    prefix with probability ``reuse_fraction`` (tagging ``prefix_id`` /
    ``prefix_tokens``, prompt = prefix + fresh suffix); otherwise it is an
    untagged one-off prompt of suffix length.  Suffix and decode lengths
    are log-normal, everything clipped into ``max_context``, and the trace
    is deterministic under ``seed``.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if num_tenants <= 0:
        raise ValueError(f"num_tenants must be positive, got {num_tenants}")
    if not 0.0 <= reuse_fraction <= 1.0:
        raise ValueError(
            f"reuse_fraction must lie in [0, 1], got {reuse_fraction!r}"
        )
    if min(mean_prefix_tokens, mean_suffix_tokens, mean_decode_tokens) <= 0 \
            or sigma <= 0:
        raise ValueError("length statistics must be positive")
    if tenant_skew < 0:
        raise ValueError(f"tenant_skew must be non-negative, got {tenant_skew!r}")
    rng = np.random.default_rng(seed)
    mu_prefix = np.log(mean_prefix_tokens) - sigma**2 / 2.0
    prefix_lengths = np.maximum(
        rng.lognormal(mean=mu_prefix, sigma=sigma, size=num_tenants).astype(int),
        8,
    )
    prefix_lengths = np.minimum(prefix_lengths, max(max_context // 2, 8))
    weights = 1.0 / np.arange(1, num_tenants + 1) ** tenant_skew
    weights /= weights.sum()
    tenants = rng.choice(num_tenants, size=count, p=weights)
    reuses = rng.random(count) < reuse_fraction

    def lengths(mean: float) -> np.ndarray:
        mu = np.log(mean) - sigma**2 / 2.0
        values = rng.lognormal(mean=mu, sigma=sigma, size=count)
        return np.maximum(values.astype(int), 1)

    suffixes = lengths(mean_suffix_tokens)
    outputs = lengths(mean_decode_tokens)
    queries = []
    for tenant, reuse, suffix, output in zip(tenants, reuses, suffixes,
                                             outputs, strict=True):
        if reuse:
            prefix = int(prefix_lengths[tenant])
            prompt = min(prefix + int(suffix), max_context - 1)
            decode = max(min(int(output), max_context - prompt), 1)
            queries.append(Query(prompt, decode,
                                 prefix_id=f"tenant-{int(tenant)}",
                                 prefix_tokens=min(prefix, prompt)))
        else:
            prompt = max(min(int(suffix), max_context - 1), 1)
            decode = max(min(int(output), max_context - prompt), 1)
            queries.append(Query(prompt, decode))
    return queries


# --------------------------------------------------------------------- arrivals

def _validate_arrival_args(count: int, rate_qps: float, start_s: float) -> None:
    """Shared argument validation of the arrival-process generators.

    NaN/infinite rates and fractional or negative counts would otherwise
    flow silently into ``numpy`` and come back as nonsense traces (NaN
    times, empty processes); reject them with explicit errors instead.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"count must be an integer, got {count!r}")
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if not np.isfinite(rate_qps) or rate_qps <= 0:
        raise ValueError(
            f"arrival rate must be a positive finite number, got {rate_qps!r}"
        )
    if not np.isfinite(start_s) or start_s < 0:
        raise ValueError(
            f"start time must be finite and non-negative, got {start_s!r}"
        )


def validate_arrivals(arrival_times_s: Sequence[float]) -> None:
    """Raise ``ValueError`` unless arrivals are finite, non-negative, sorted."""
    previous = 0.0
    for index, value in enumerate(arrival_times_s):
        if not np.isfinite(value) or value < 0:
            raise ValueError(
                f"arrival {index} is {value!r}; arrivals must be finite and "
                "non-negative"
            )
        if value < previous:
            raise ValueError(
                f"arrival {index} ({value}) precedes arrival {index - 1} "
                f"({previous}); arrivals must be sorted ascending"
            )
        previous = value


def poisson_arrivals(
    count: int,
    rate_qps: float,
    seed: int = 2025,
    start_s: float = 0.0,
) -> List[float]:
    """Arrival times of a Poisson process with ``rate_qps`` queries/second.

    Inter-arrival gaps are exponential with mean ``1 / rate_qps``; the result
    is deterministic under ``seed``, non-negative and sorted ascending.
    """
    _validate_arrival_args(count, rate_qps, start_s)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_qps, size=count)
    times = [float(t) for t in start_s + np.cumsum(gaps)]
    validate_arrivals(times)
    return times


def bursty_arrivals(
    count: int,
    rate_qps: float,
    burstiness: float = 4.0,
    seed: int = 2025,
    start_s: float = 0.0,
) -> List[float]:
    """Arrival times of a bursty (Gamma-renewal) process.

    Inter-arrival gaps follow a Gamma distribution with mean ``1 / rate_qps``
    and squared coefficient of variation ``burstiness``; ``burstiness=1``
    degenerates to the Poisson process, larger values cluster arrivals into
    bursts separated by long gaps.  Deterministic under ``seed``.
    """
    _validate_arrival_args(count, rate_qps, start_s)
    if not np.isfinite(burstiness) or burstiness <= 0:
        raise ValueError(
            f"burstiness must be a positive finite number, got {burstiness!r}"
        )
    rng = np.random.default_rng(seed)
    shape = 1.0 / burstiness
    scale = burstiness / rate_qps
    gaps = rng.gamma(shape=shape, scale=scale, size=count)
    times = [float(t) for t in start_s + np.cumsum(gaps)]
    validate_arrivals(times)
    return times


def with_arrivals(queries: Sequence[Query], arrival_times_s: Sequence[float]) -> List[Query]:
    """Attach arrival times to a trace, validating the arrival process.

    The i-th query receives the i-th arrival time; order is preserved.
    """
    queries = list(queries)
    arrival_times_s = list(arrival_times_s)
    if len(queries) != len(arrival_times_s):
        raise ValueError(
            f"{len(queries)} queries but {len(arrival_times_s)} arrival times"
        )
    validate_arrivals(arrival_times_s)
    return [dataclasses.replace(query, arrival_time_s=float(time))
            for query, time in zip(queries, arrival_times_s, strict=True)]
