"""Vectorized (numpy) trace replay for the direct-mapped caches.

:func:`replay_reads` and :func:`replay_tagged` are the program's only
trace-replay path: cache experiments, the I-cache soundness check and
cache fault injection all go through them.  They are drop-in
executors for :meth:`Cache.run_reads` / :meth:`Cache.run_tagged`: they
mutate the same :class:`~repro.cache.cache.Cache` instance -- counters
*and* tag/valid state -- and produce results identical to the scalar
loops, which remain the oracle in the equivalence tests.

The trick is that a direct-mapped cache's lines are independent, so the
trace can be regrouped line-major without changing any line's history:

1. decompose every address into (block index, sub-block) with vector
   shifts, then stable-argsort by line -- each line's subsequence keeps
   its original order.  With at most 65,536 lines the sort key is
   ``uint16``, for which numpy's stable sort is a linear radix sort;
2. split each line's subsequence into *epochs*: maximal runs of equal
   block index.  Distinct consecutive block indices on one line always
   differ in tag, so every epoch boundary is exactly one scalar-loop
   tag replacement (reset valid bits, install tag);
3. within an epoch, sub-block valid bits are only ever set, so every
   access after the first to the same (epoch, sub) is a guaranteed hit
   with no state or traffic effect.  One linear scan per sub-block
   value keeps each epoch's first access to it: the *first demands*;
4. a compact Python loop walks only the first demands, in
   chronological order, applying the scalar miss rules verbatim --
   including wrap-around read prefetch, its conditional second
   sub-block of traffic, and warm-start tag/valid state.

For looping programs the compressed stream is orders of magnitude
shorter than the trace, so the per-reference Python cost disappears
into a handful of numpy passes.  Both replays return the indices of
the first demands they walked: replaying just those references into a
cache with the same block and sub-block and a multiple of the lines
gives the same misses, traffic and final state as the whole stream
(see :func:`repro.cache.simulate_caches_grid`).
"""

from __future__ import annotations

import numpy as _np


def as_addresses(addresses):
    """Copy any address stream into an int64 ndarray.

    Accepts sized containers (lists, ``array('I')`` traces, ndarrays)
    and plain iterators/generators -- callers hand both in.
    """
    if hasattr(addresses, "__len__"):
        return _np.asarray(addresses, dtype=_np.int64)
    return _np.fromiter(addresses, dtype=_np.int64)


def changes(keys: _np.ndarray) -> _np.ndarray:
    """Boolean mask of the positions whose key differs from the last."""
    mask = _np.empty(keys.size, dtype=bool)
    mask[:1] = True
    _np.not_equal(keys[1:], keys[:-1], out=mask[1:])
    return mask


def dedup_words(a):
    """Word-align ``a`` and collapse runs of the same word into one.

    The fetch unit requests a word once and issues the instructions in
    it; the deduplicated stream produces identical miss counts (a
    repeated word always hits) at half the cost for 16-bit streams.
    """
    a = a & ~3
    return a[changes(a)]


def collapse(a: _np.ndarray, sub_block: int) -> _np.ndarray:
    """Drop references to the same ``sub_block``-byte sub-block as the
    reference before them.

    Such a reference hits, with no effect, in every cache whose
    sub-block is at least ``sub_block`` bytes.  Entries are kept as
    they are, so ``addr | 1`` write tags survive.
    """
    return a[changes(a >> (sub_block.bit_length() - 1))]


def _fields(cfg, addrs):
    """Split addresses into (block index, sub-block) under ``cfg``."""
    bi = addrs >> (cfg.block.bit_length() - 1)
    sub = (addrs >> (cfg.sub_block.bit_length() - 1)) & (
        cfg.subs_per_block - 1)
    return bi, sub


def _first_demands(cfg, addrs: _np.ndarray) -> _np.ndarray:
    """Chronological indices of each (epoch, sub-block)'s first access.

    These are the only references of a non-empty stream that can miss
    or change cache state; every other one is a guaranteed hit.
    """
    bi, sub = _fields(cfg, addrs)
    line = bi & (cfg.num_lines - 1)
    if cfg.num_lines <= 1 << 16:
        line = line.astype(_np.uint16)      # radix-sorted by numpy
    order = _np.argsort(line, kind="stable")
    # On one line an epoch ends exactly where the block index changes,
    # and a line change always changes the block index too.
    epoch = _np.cumsum(changes(bi[order]))
    sub = sub[order]
    first = _np.zeros(addrs.size, dtype=bool)
    for s in range(cfg.subs_per_block):
        at = _np.flatnonzero(sub == s)
        first[order[at[changes(epoch[at])]]] = True
    return _np.flatnonzero(first)


def replay_reads(cache, addresses, *,
                 dedup: bool = False) -> _np.ndarray:
    """Vectorized :meth:`Cache.run_reads` (optionally word-deduped).

    Returns the chronological indices into ``addresses`` of the first
    demands walked.
    """
    addrs = as_addresses(addresses)
    kept = None
    if dedup:
        addrs = addrs & ~3
        kept = _np.flatnonzero(changes(addrs))
        addrs = addrs[kept]
    cache.read_accesses += addrs.size
    if not addrs.size:
        return _np.empty(0, dtype=_np.intp)
    cfg = cache.config
    nsubs = cfg.subs_per_block
    words = cfg.sub_block // 4
    line_shift = cfg.num_lines.bit_length() - 1
    first = _first_demands(cfg, addrs)
    bi, sub = _fields(cfg, addrs[first])
    tags = cache.tags
    valid = cache.valid
    misses = traffic = 0
    for L, T, S in zip((bi & (cfg.num_lines - 1)).tolist(),
                       (bi >> line_shift).tolist(), sub.tolist()):
        if tags[L] != T:
            tags[L] = T
            valid[L] = 0
        bit = 1 << S
        v = valid[L]
        if v & bit:
            continue
        misses += 1
        next_bit = 1 << ((S + 1) % nsubs)
        traffic += words * (1 + ((v & next_bit) == 0))
        valid[L] = v | bit | next_bit
    cache.read_misses += misses
    cache.traffic_words += traffic
    return first if kept is None else kept[first]


def replay_tagged(cache, stream) -> _np.ndarray:
    """Vectorized :meth:`Cache.run_tagged` (``addr | 1`` marks writes).

    Returns the chronological indices into ``stream`` of the first
    demands walked.
    """
    entries = as_addresses(stream)
    if not entries.size:
        return _np.empty(0, dtype=_np.intp)
    nwrites = int((entries & 1).sum())
    cache.write_accesses += nwrites
    cache.read_accesses += entries.size - nwrites
    cfg = cache.config
    nsubs = cfg.subs_per_block
    words = cfg.sub_block // 4
    line_shift = cfg.num_lines.bit_length() - 1
    # The write tag sits below the sub-block bits, so it never moves
    # an entry's line, tag or sub-block.
    first = _first_demands(cfg, entries)
    demands = entries[first]
    bi, sub = _fields(cfg, demands)
    tags = cache.tags
    valid = cache.valid
    r_miss = w_miss = traffic = 0
    for L, T, S, W in zip((bi & (cfg.num_lines - 1)).tolist(),
                          (bi >> line_shift).tolist(), sub.tolist(),
                          (demands & 1).tolist()):
        if tags[L] != T:
            tags[L] = T
            valid[L] = 0
        bit = 1 << S
        v = valid[L]
        if v & bit:
            continue
        if W:
            w_miss += 1
            valid[L] = v | bit
            traffic += words
        else:
            r_miss += 1
            next_bit = 1 << ((S + 1) % nsubs)
            traffic += words * (1 + ((v & next_bit) == 0))
            valid[L] = v | bit | next_bit
    cache.read_misses += r_miss
    cache.write_misses += w_miss
    cache.traffic_words += traffic
    return first
