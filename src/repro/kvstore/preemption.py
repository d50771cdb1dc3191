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

The victim order has one definition here: the key ``(last use, -arrival,
-request_id)``, smallest first.  :meth:`PreemptionPolicy.select_victim`
ranks a list of candidates by it; :class:`VictimOrder` keeps the engine's
running requests in that order as their last use changes, so an eviction
reads the victim off the front instead of ranking every running request.

Victim candidates are duck-typed (anything with ``request_id``,
``arrival_time_s``, ``last_token_time_s``, ``admitted_time_s`` and
``restore_ready_s``) so this module stays import-cycle-free of
``repro.serving``.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.cxl.link import CxlLinkParameters

__all__ = [
    "RESTORE_MODES",
    "PreemptionPolicy",
    "VictimCandidates",
    "VictimOrder",
    "kv_swap_time_s",
    "last_use_s",
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


def last_use_s(request) -> float:
    """When ``request`` last made progress: its last emitted token, else
    its admission, else its arrival (the first field of its victim key)."""
    stamp = request.last_token_time_s
    if stamp is None:
        stamp = request.admitted_time_s
        if stamp is None:
            return request.arrival_time_s
    return stamp


def _tie_key(request) -> Tuple[float, int]:
    """The victim key's fixed fields: among equal last use, the later
    arrival goes first, then the larger ``request_id``."""
    return (-request.arrival_time_s, -request.request_id)


class VictimOrder:
    """The running requests in victim order, kept as their keys change.

    A request's victim key is ``(last_use_s(r),) + _tie_key(r)``, smallest
    first.  The tie key never changes, so the requests are sorted by it
    once, when they join.  The last use changes only when a request decodes
    or emits its first token, and one decode step stamps every request it
    decodes with the same clock: after a step over the whole batch all keys
    tie on their first field, and the victim is the first candidate in tie
    order.  A request whose last use may differ from that shared stamp
    (just admitted or resumed, or left out of a partial step) keeps its own
    stamp in a side table, and only those are ranked at an eviction.

    Every request outside the side table was decoded at the shared stamp,
    so its restore has landed; a side-table request is a candidate only
    once its ``restore_ready_s`` is reached.
    """

    __slots__ = ("_ties", "_tie_keys", "_shared_s", "_own")

    def __init__(self) -> None:
        #: Tracked requests, ascending tie key.
        self._ties: List = []
        self._tie_keys: Dict = {}
        #: Last use of every tracked request not in ``_own``.
        self._shared_s = 0.0
        self._own: Dict = {}

    def join(self, request, last_use: float) -> None:
        """Track ``request``, whose last use is ``last_use``."""
        self._tie_keys[request] = _tie_key(request)
        insort(self._ties, request, key=self._tie_keys.__getitem__)
        self._own[request] = last_use

    def leave(self, request) -> None:
        """Stop tracking ``request`` (no-op when it is not tracked)."""
        if self._tie_keys.pop(request, None) is not None:
            self._ties.remove(request)
            self._own.pop(request, None)

    def stamp(self, requests: Sequence, clock: float) -> None:
        """The tracked ``requests`` made progress at ``clock``."""
        own = self._own
        if len(requests) == len(self._ties):
            own.clear()
            self._shared_s = clock
            return
        stamped = set(requests)
        rejoining = [r for r in own if r in stamped]
        if len(stamped) - len(rejoining) == len(self._ties) - len(own):
            # Every shared-stamp request is in the step: the step's
            # requests form the new shared group.
            for request in rejoining:
                del own[request]
            self._shared_s = clock
        else:
            own.update(dict.fromkeys(requests, clock))

    def first(self, exclude, clock: float):
        """``(last_use, request)`` of the victim among the tracked requests
        other than ``exclude`` whose restore has landed by ``clock``, or
        ``None`` when there is none."""
        own, tie_keys = self._own, self._tie_keys
        best = None
        for request in self._ties:
            if request is not exclude and request not in own:
                best = (self._shared_s, tie_keys[request], request)
                break
        for request, stamp in own.items():
            if request is exclude or request.restore_ready_s > clock:
                continue
            key = (stamp, tie_keys[request], request)
            if best is None or key[:2] < best[:2]:
                best = key
        return None if best is None else (best[0], best[2])


class VictimCandidates(NamedTuple):
    """One eviction's request candidates: every request ``order`` tracks
    except ``exclude`` (the request growing) whose restore has landed by
    ``clock``."""

    order: VictimOrder
    exclude: object
    clock: float


class PreemptionPolicy:
    """Deterministic LRU victim selection plus the configured restore path.

    The victim is the request that made progress least recently
    (:func:`last_use_s`): the stalest request has the most to redo anyway.
    Ties break toward the later arrival, then the larger ``request_id``, so
    a given trace yields one victim sequence.  Recency is vLLM's only
    victim order too.

    Eviction is all-or-nothing: a victim gives up its whole allocation and
    the restore path brings all of it back.
    """

    def __init__(self, restore: str = "swap") -> None:
        if restore not in RESTORE_MODES:
            raise ValueError(
                f"unknown restore mode {restore!r}; choose from {RESTORE_MODES}"
            )
        self.restore = restore

    def select_victim(self, candidates: Sequence):
        """The request to evict among ``candidates``, or ``None`` when
        there is none: the smallest victim key, every candidate ranked."""
        return min(candidates, default=None,
                   key=lambda r: (last_use_s(r),) + _tie_key(r))

    def select_eviction(self, candidates: VictimCandidates, chains: Sequence):
        """Rank the request victim and idle shared-prefix chains jointly.

        ``candidates`` names the requests; their :class:`VictimOrder`
        yields the victim without ranking every one of them.  ``chains``
        is the pool's unreferenced (refcount-zero)
        :class:`~repro.kvstore.block_pool.PrefixChain` candidates — a chain
        some live request still reads is pinned and never offered, which
        is what makes a hot shared prefix naturally the last thing evicted.
        Returns ``("chain", chain)``, ``("request", victim)`` or
        ``(None, None)``; eviction bites the coldest blocks pool-wide, so a
        cached-but-idle prefix colder than every candidate request goes
        before any request is preempted.  With no chains resident this is
        the request victim alone.
        """
        picked = candidates.order.first(candidates.exclude, candidates.clock)
        coldest = None
        for chain in chains:
            if coldest is None or (chain.last_use_s, chain.seq) < \
                    (coldest.last_use_s, coldest.seq):
                coldest = chain
        if coldest is None:
            return ("request", picked[1]) if picked is not None else (None, None)
        if picked is None or coldest.last_use_s <= picked[0]:
            return ("chain", coldest)
        return ("request", picked[1])
