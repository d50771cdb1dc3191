"""Paged KV-cache management with preemption-aware restore pricing.

``repro.kvstore`` is the vLLM-style memory manager behind the serving
engine's ``admission="paged"`` mode:

* :class:`BlockPool` — carves the post-weight KV budget of a deployment
  into fixed-size token blocks (sized from
  :meth:`~repro.models.memory.ModelMemoryProfile.kv_cache_bytes_per_token`,
  at the same effective capacity the reserve path's
  ``kv_occupancy``-discounted reservations assume);
* :class:`KvAllocator` — grows each request's block allocation as its
  context advances through decode and releases it on completion or
  preemption;
* :class:`PrefixChain` — a hash-identified shared prefix resident in the
  pool with a refcount of its readers: requests with a matching prefix
  hash *attach* (booking only their suffix blocks plus a copy-on-write
  duplicate of a partial chain tail), a cache miss *promotes* its own
  prefix blocks into a new chain after prefill, and unreferenced chains
  stay cached — reclaimed coldest-first under pool pressure or by the
  joint (request, chain) eviction ranking
  (:meth:`PreemptionPolicy.select_eviction`);
* :class:`PreemptionPolicy` — deterministic least-recently-used victim
  selection when the pool runs dry, with two restore paths: ``swap`` (KV
  bytes staged out and back over the CXL links, priced by
  :func:`kv_swap_time_s`) and ``recompute`` (the victim's context is
  re-prefilled through the normal
  :class:`~repro.core.iteration.IterationCostModel` path).  Eviction is
  all-or-nothing, as in vLLM: a victim gives up its whole allocation.
  :class:`VictimOrder` keeps the running requests in that victim order
  as they decode, join and leave, so an eviction does not rank them all.

The serving engine (``repro.serving.engine``) owns the event loop; this
package owns the bookkeeping and the policy decisions, so they can be unit
tested without simulating a single transformer block.
"""

from repro.kvstore.block_pool import BlockPool, PrefixChain
from repro.kvstore.allocator import KvAllocator
from repro.kvstore.preemption import (
    RESTORE_MODES,
    PreemptionPolicy,
    VictimOrder,
    kv_swap_time_s,
)

__all__ = [
    "BlockPool",
    "PrefixChain",
    "KvAllocator",
    "PreemptionPolicy",
    "RESTORE_MODES",
    "VictimOrder",
    "kv_swap_time_s",
]
