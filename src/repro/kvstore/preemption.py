"""Victim selection and restore pricing for paged-KV preemption.

When the block pool runs dry the serving engine evicts one running request
at a time until the starved request's growth fits.  The policy here decides
*who* (deterministically — same trace, same victim sequence), and the
restore mode decides *what the eviction costs*:

* ``swap`` — the victim's KV bytes stream out to host memory over the CXL
  fabric and stream back on resume; :func:`kv_swap_time_s` prices both
  directions from :class:`~repro.cxl.link.CxlLinkParameters` (per-device x4
  links in parallel across pipeline stages, bounded by the host x16 link);
* ``recompute`` — the KV is dropped and the victim's context is
  re-prefilled on resume through the engine's normal chunked-prefill path,
  so the cost comes from :class:`~repro.core.iteration.IterationCostModel`
  and competes with genuine prefill work for the chunk budget.

Victim candidates are duck-typed (anything with ``request_id``,
``arrival_time_s``, ``last_token_time_s`` and ``admitted_time_s``) so this
module stays import-cycle-free of ``repro.serving``.
"""

from __future__ import annotations

from typing import Sequence

from repro.cxl.link import CxlLinkParameters

__all__ = [
    "RESTORE_MODES",
    "PreemptionPolicy",
    "kv_swap_time_s",
]

#: Supported restore paths for a preempted request's KV cache.
RESTORE_MODES = ("swap", "recompute")


def kv_swap_time_s(
    num_bytes: int,
    link: CxlLinkParameters,
    pp_stages: int = 1,
) -> float:
    """One-direction KV swap time over the CXL fabric, in seconds.

    A request's KV cache is sharded across its pipeline stages' devices, so
    up to ``pp_stages`` x4 device links stream concurrently; the shared x16
    host link bounds the aggregate.  One switch traversal of latency fronts
    the transfer (the per-block transactions behind it are pipelined).
    """
    if num_bytes < 0:
        raise ValueError(f"transfer size must be non-negative, got {num_bytes}")
    if num_bytes == 0:
        return 0.0
    shards = max(int(pp_stages), 1)
    device_ns = (num_bytes / shards) / link.device_bandwidth_gbps
    host_ns = num_bytes / link.host_bandwidth_gbps
    return (link.base_latency_ns + max(device_ns, host_ns)) * 1e-9


class PreemptionPolicy:
    """Deterministic LRU victim selection plus the configured restore path.

    The victim is the request that made progress least recently (its last
    emitted token, else its admission, else its arrival): the stalest
    request has the most to redo anyway.  Ties break toward the later
    arrival, then the larger ``request_id``, so a given trace yields one
    victim sequence.  Recency is vLLM's only victim order too.

    Eviction is all-or-nothing: a victim gives up its whole allocation and
    the restore path brings all of it back.
    """

    def __init__(self, restore: str = "swap") -> None:
        if restore not in RESTORE_MODES:
            raise ValueError(
                f"unknown restore mode {restore!r}; choose from {RESTORE_MODES}"
            )
        self.restore = restore

    @staticmethod
    def _last_use_s(request) -> float:
        for stamp in (request.last_token_time_s, request.admitted_time_s):
            if stamp is not None:
                return stamp
        return request.arrival_time_s

    def select_victim(self, candidates: Sequence):
        """The request to evict, or ``None`` when no candidate exists."""
        return min(candidates, default=None,
                   key=lambda r: (self._last_use_s(r), -r.arrival_time_s,
                                  -r.request_id))

    def select_eviction(self, candidates: Sequence, chains: Sequence):
        """Rank requests and idle shared-prefix chains jointly.

        ``chains`` is the pool's unreferenced (refcount-zero)
        :class:`~repro.kvstore.block_pool.PrefixChain` candidates — a chain
        some live request still reads is pinned and never offered, which is
        what makes a hot shared prefix naturally the last thing evicted.
        Returns ``("chain", chain)``, ``("request", victim)`` or
        ``(None, None)``; eviction bites the coldest blocks pool-wide, so a
        cached-but-idle prefix colder than every running request goes
        before any request is preempted.  With no chains resident this
        degrades to exactly :meth:`select_victim`.
        """
        victim = self.select_victim(candidates)
        coldest = None
        for chain in chains:
            if coldest is None or (chain.last_use_s, chain.seq) < \
                    (coldest.last_use_s, coldest.seq):
                coldest = chain
        if coldest is None:
            return ("request", victim) if victim is not None else (None, None)
        if victim is None or coldest.last_use_s <= self._last_use_s(victim):
            return ("chain", coldest)
        return ("request", victim)
