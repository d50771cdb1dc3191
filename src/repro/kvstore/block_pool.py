"""Fixed-size KV-cache block pool over one deployment's memory budget.

The pool is pure bookkeeping: it never touches the performance model, it
only answers "how many blocks does a context need" and "are that many
free".  Block identities are not tracked — the simulator prices capacity
and transfer volume, not physical placement — so allocation is a counter,
which keeps the serving engine's per-iteration work O(running requests).
The invariant ``free_blocks + used_blocks == num_blocks`` holds through
every operation.

**Shared-prefix chains** are the one place the pool does track identity: a
:class:`PrefixChain` pins ``blocks_for(tokens)`` device blocks under a hash
key (tenant system prompts, few-shot preambles) with a reference count of
the allocations currently reading them.  A chain's blocks sit inside
``used_blocks`` exactly once however many requests share them; an
unreferenced chain stays cached — and evictable coldest-first — until pool
pressure reclaims it (:meth:`prefix_evict`).  ``idle_chains`` counts the
chains at refcount zero, so "could a shortage reclaim anything?" is one
integer test; every refcount change goes through the pool to keep it exact.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

__all__ = ["BlockPool", "PrefixChain"]


class PrefixChain:
    """One shared, hash-identified prefix resident in a :class:`BlockPool`.

    ``refcount`` counts the allocations currently attached (reading the
    chain's KV); it pins the chain — only a chain at refcount zero may be
    evicted, so a hot shared prefix naturally outlives every per-request
    eviction.  ``last_use_s`` is the engine-clock stamp of the most recent
    attach/detach and ``seq`` the registration order, together the
    deterministic coldest-first ranking key.
    """

    __slots__ = ("key", "tokens", "blocks", "refcount", "last_use_s", "seq")

    def __init__(self, key: Hashable, tokens: int, blocks: int,
                 last_use_s: float, seq: int) -> None:
        self.key = key
        self.tokens = tokens
        self.blocks = blocks
        self.refcount = 0
        self.last_use_s = last_use_s
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PrefixChain(key={self.key!r}, tokens={self.tokens}, "
                f"blocks={self.blocks}, refcount={self.refcount})")


class BlockPool:
    """Carves a KV byte budget into fixed-size token blocks.

    Parameters
    ----------
    budget_bytes:
        KV memory left after the model weights (and any replica copies)
        are resident.
    bytes_per_token:
        Full-model KV-cache bytes appended per token
        (:meth:`~repro.models.memory.ModelMemoryProfile.kv_cache_bytes_per_token`).
    block_tokens:
        Tokens per block (vLLM's ``block_size``; 16 by default).
    occupancy:
        Mirrors ``CentConfig.kv_occupancy`` — the fraction of the
        worst-case footprint the reserve path books per in-flight query.
        The pool is sized to ``budget / occupancy`` so paged admission
        sees the *same effective KV capacity* the occupancy-discounted
        reservations assume (the knob emulates on-demand allocation that
        paged mode performs physically); 1.0 leaves the budget unchanged.
    """

    def __init__(
        self,
        budget_bytes: int,
        bytes_per_token: int,
        block_tokens: int = 16,
        occupancy: float = 1.0,
    ) -> None:
        if budget_bytes < 0:
            raise ValueError(f"budget must be non-negative, got {budget_bytes}")
        if bytes_per_token <= 0:
            raise ValueError(f"bytes per token must be positive, got {bytes_per_token}")
        if block_tokens <= 0:
            raise ValueError(f"block_tokens must be positive, got {block_tokens}")
        if not 0 < occupancy <= 1:
            raise ValueError(f"occupancy must be in (0, 1], got {occupancy!r}")
        self.bytes_per_token = bytes_per_token
        self.block_tokens = block_tokens
        self.block_bytes = block_tokens * bytes_per_token
        self.num_blocks = int(budget_bytes / occupancy) // self.block_bytes
        self.free_blocks = self.num_blocks
        #: Resident shared-prefix chains, keyed by prefix hash.
        self.prefix_chains: Dict[Hashable, PrefixChain] = {}
        #: Resident chains at refcount zero (the evictable ones).
        self.idle_chains = 0
        self._prefix_seq = 0

    # ------------------------------------------------------------------ sizing

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` of KV cache (rounded up)."""
        if tokens < 0:
            raise ValueError(f"token count must be non-negative, got {tokens}")
        return -(-tokens // self.block_tokens)

    @property
    def used_blocks(self) -> int:
        return self.num_blocks - self.free_blocks

    @property
    def capacity_tokens(self) -> int:
        """Largest total context the pool can hold at once."""
        return self.num_blocks * self.block_tokens

    @property
    def allocated_bytes(self) -> int:
        return self.used_blocks * self.block_bytes

    @property
    def utilization(self) -> float:
        if self.num_blocks == 0:
            return 0.0
        return self.used_blocks / self.num_blocks

    # ------------------------------------------------------------------ allocation

    def allocate(self, num_blocks: int) -> bool:
        """Take ``num_blocks`` from the free list; False if they don't fit."""
        if num_blocks < 0:
            raise ValueError(f"block count must be non-negative, got {num_blocks}")
        if num_blocks > self.free_blocks:
            return False
        self.free_blocks -= num_blocks
        return True

    def release(self, num_blocks: int) -> None:
        if num_blocks < 0:
            raise ValueError(f"block count must be non-negative, got {num_blocks}")
        if num_blocks > self.used_blocks:
            raise ValueError(
                f"cannot release {num_blocks} blocks; only {self.used_blocks} in use"
            )
        self.free_blocks += num_blocks

    # ------------------------------------------------------------------ prefix chains

    @property
    def prefix_blocks(self) -> int:
        """Device blocks currently pinned under shared-prefix chains."""
        return sum(chain.blocks for chain in self.prefix_chains.values())

    def prefix_get(self, key: Hashable) -> Optional[PrefixChain]:
        return self.prefix_chains.get(key)

    def prefix_register(self, key: Hashable, tokens: int,
                        now_s: float = 0.0) -> Optional[PrefixChain]:
        """Cache ``tokens`` of prefix KV under ``key`` at refcount zero.

        Takes ``blocks_for(tokens)`` device blocks for the shared copy;
        returns None (side-effect free) if the pool cannot hold them or a
        chain for ``key`` already exists.
        """
        if tokens <= 0:
            raise ValueError(f"prefix tokens must be positive, got {tokens}")
        if key in self.prefix_chains:
            return None
        blocks = self.blocks_for(tokens)
        if not self.allocate(blocks):
            return None
        chain = PrefixChain(key, tokens, blocks, now_s, self._prefix_seq)
        self._prefix_seq += 1
        self.prefix_chains[key] = chain
        self.idle_chains += 1
        return chain

    def prefix_adopt(self, key: Hashable, tokens: int, blocks: int,
                     now_s: float = 0.0) -> PrefixChain:
        """Install a chain over ``blocks`` already-allocated device blocks.

        The promote path: the blocks stay inside ``used_blocks`` (ownership
        transfers from the promoting request's private allocation), so no
        free-list traffic happens here.
        """
        if tokens <= 0:
            raise ValueError(f"prefix tokens must be positive, got {tokens}")
        if key in self.prefix_chains:
            raise ValueError(f"prefix chain {key!r} already registered")
        if blocks > self.used_blocks:
            raise ValueError(
                f"cannot adopt {blocks} blocks; only {self.used_blocks} in use"
            )
        chain = PrefixChain(key, tokens, blocks, now_s, self._prefix_seq)
        self._prefix_seq += 1
        self.prefix_chains[key] = chain
        self.idle_chains += 1
        return chain

    def prefix_attach(self, key: Hashable, now_s: float = 0.0) -> PrefixChain:
        """Pin the chain for ``key`` on behalf of one more reader."""
        chain = self.prefix_chains[key]
        if chain.refcount == 0:
            self.idle_chains -= 1
        chain.refcount += 1
        chain.last_use_s = now_s
        return chain

    def prefix_detach(self, key: Hashable, now_s: float = 0.0) -> PrefixChain:
        """Drop one reader; the chain stays cached at refcount zero."""
        chain = self.prefix_chains[key]
        if chain.refcount <= 0:
            raise ValueError(f"prefix chain {key!r} has no readers to detach")
        chain.refcount -= 1
        if chain.refcount == 0:
            self.idle_chains += 1
        chain.last_use_s = now_s
        return chain

    def prefix_evict(self, key: Hashable) -> int:
        """Reclaim an unreferenced chain's blocks; returns the count freed."""
        chain = self.prefix_chains[key]
        if chain.refcount > 0:
            raise ValueError(
                f"prefix chain {key!r} still has {chain.refcount} readers"
            )
        del self.prefix_chains[key]
        self.idle_chains -= 1
        self.release(chain.blocks)
        return chain.blocks

    def evictable_prefixes(self) -> List[PrefixChain]:
        """Unreferenced chains, coldest first (deterministic tie-break)."""
        idle = [c for c in self.prefix_chains.values() if c.refcount == 0]
        idle.sort(key=lambda c: (c.last_use_s, c.seq))
        return idle
