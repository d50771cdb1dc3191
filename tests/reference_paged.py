"""Reference paged-KV decisions: the oracle of the engine's pressure path.

Two decisions of ``repro.serving.engine._PagedAdmission`` are stated here
the direct way:

* :func:`reference_cap_window` — how many fast-forward decode steps the
  block pool covers, by binary search over the batch's block demand
  (demand only grows with the step count);
* :func:`reference_grow_or_preempt` — the grow-or-preempt walk, which
  builds the candidate list at every eviction and ranks every candidate
  by the LRU key, stated here again (:func:`reference_victim`).

The engine computes the cap in closed form from each request's
block-boundary crossings and keeps the victim order incrementally
(:class:`~repro.kvstore.preemption.VictimOrder`); ``test_paged_oracle.py``
holds it to these references.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import List

import numpy as np


def block_demand(ctx0: np.ndarray, kv0: np.ndarray, held: np.ndarray,
                 block_tokens: int, steps: int) -> int:
    """Blocks the whole batch must acquire to decode ``steps`` iterations
    (growth targets are monotone, so only the final target matters)."""
    target = np.maximum(ctx0 + (steps - 1), kv0)
    need = -(-target // block_tokens) - held
    return int(np.maximum(need, 0).sum())


def reference_cap_window(ctx0: np.ndarray, kv0: np.ndarray, block_tokens: int,
                         free_blocks: int, steps: int) -> int:
    """The largest step count in ``[0, steps]`` whose block demand fits in
    ``free_blocks``; zero sends the iteration to the growth loop."""
    held = -(-kv0 // block_tokens)
    if block_demand(ctx0, kv0, held, block_tokens, steps) <= free_blocks:
        return steps
    low = 1 if block_demand(ctx0, kv0, held, block_tokens, 1) <= free_blocks else 0
    high = steps
    while low and high - low > 1:
        mid = (low + high) // 2
        if block_demand(ctx0, kv0, held, block_tokens, mid) <= free_blocks:
            low = mid
        else:
            high = mid
    return low


def reference_last_use_s(request) -> float:
    """Last emitted token, else admission, else arrival."""
    for stamp in (request.last_token_time_s, request.admitted_time_s):
        if stamp is not None:
            return stamp
    return request.arrival_time_s


def reference_victim(candidates):
    """The least recently used candidate; ties go to the later arrival,
    then the larger ``request_id``."""
    return min(candidates, default=None,
               key=lambda r: (reference_last_use_s(r), -r.arrival_time_s,
                              -r.request_id))


def reference_grow_or_preempt(admission, state, candidates: List) -> List:
    """Grow each decodable request's KV to its context, evicting on pool
    exhaustion; returns the requests that may decode now.

    A drop-in for ``_PagedAdmission._grow_or_preempt``: at every eviction
    the candidates are every running request except the one growing whose
    swap-in has landed, and all of them are ranked."""
    allocator = admission.allocator
    running, clock, cols = state.running, state.clock, state.columns
    rows = np.fromiter((r.row for r in candidates), dtype=np.intp,
                       count=len(candidates))
    targets = np.maximum(
        cols.prompt_tokens[rows] - cols.prefill_remaining[rows]
        + cols.tokens_generated[rows], cols.kv_tokens[rows]).tolist()
    batch: List = []
    evicted = set()
    for request, target in zip(candidates, targets, strict=True):
        if request in evicted:
            continue  # evicted by an earlier candidate's growth
        grown = allocator.grow(request.request_id, target)
        while not grown:
            victims = [r for r in running
                       if r is not request and r.restore_ready_s <= clock]
            victim = reference_victim(victims)
            coldest = None
            if admission.prefix_sharing:
                for chain in allocator.evictable_prefixes():
                    if coldest is None or (chain.last_use_s, chain.seq) < \
                            (coldest.last_use_s, coldest.seq):
                        coldest = chain
            if coldest is not None and (
                    victim is None
                    or coldest.last_use_s <= reference_last_use_s(victim)):
                allocator.evict_prefix(coldest.key)
            elif victim is not None:
                admission._preempt(state, victim)
                evicted.add(victim)
                if victim in batch:
                    batch.remove(victim)
            else:
                break
            grown = allocator.grow(request.request_id, target)
        if grown:
            request.kv_tokens = target
            batch.append(request)
    return batch
