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

1. decompose every address into (line, tag, sub-block) with vector
   shifts, then stable-argsort by line -- each line's subsequence keeps
   its original order;
2. split each line's subsequence into *epochs*: maximal runs of equal
   block index.  Distinct consecutive block indices on one line always
   differ in tag, so every epoch boundary is exactly one scalar-loop
   tag replacement (reset valid bits, install tag);
3. within an epoch, sub-block valid bits are only ever set, so every
   access after the first to the same (epoch, sub) is a guaranteed hit
   with no state or traffic effect.  ``np.unique`` on the
   ``epoch * nsubs + sub`` key compresses the trace to first-demands;
4. a compact Python loop walks only the first-demands (chronological
   within each line) applying the scalar miss rules verbatim --
   including wrap-around read prefetch, its conditional second
   sub-block of traffic, and warm-start tag/valid state.

For looping programs the compressed stream is orders of magnitude
shorter than the trace, so the per-reference Python cost disappears
into a handful of numpy passes.
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


def dedup_words(a):
    """Word-align ``a`` and collapse runs of the same word into one.

    The fetch unit requests a word once and issues the instructions in
    it; the deduplicated stream produces identical miss counts (a
    repeated word always hits) at half the cost for 16-bit streams.
    """
    a = a & ~3
    if a.size == 0:
        return a
    keep = _np.empty(a.size, dtype=bool)
    keep[0] = True
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _first_demands(cfg, addrs):
    """Compress a trace to its per-(epoch, sub-block) first demands.

    Returns ``(order, line, tag, sub, first)``: ``order`` is the
    line-major stable sort permutation, ``line``/``tag``/``sub`` the
    line-sorted decomposition, and ``first`` the compressed indices
    into the sorted trace, in line-major chronological order.
    """
    block_shift = cfg.block.bit_length() - 1
    sub_shift = cfg.sub_block.bit_length() - 1
    num_lines = cfg.num_lines
    line_shift = num_lines.bit_length() - 1
    nsubs = cfg.subs_per_block

    bi = addrs >> block_shift
    line = bi & (num_lines - 1)
    tag = bi >> line_shift
    sub = (addrs >> sub_shift) & (nsubs - 1)

    order = _np.argsort(line, kind="stable")
    line = line[order]
    bi = bi[order]
    tag = tag[order]
    sub = sub[order]

    new_epoch = _np.empty(addrs.size, dtype=bool)
    new_epoch[0] = True
    new_epoch[1:] = (line[1:] != line[:-1]) | (bi[1:] != bi[:-1])
    epoch = _np.cumsum(new_epoch)
    _, first = _np.unique(epoch * nsubs + sub, return_index=True)
    first.sort()
    return order, line, tag, sub, first


def replay_reads(cache, addresses, *, dedup: bool = False) -> None:
    """Vectorized :meth:`Cache.run_reads` (optionally word-deduped)."""
    addrs = as_addresses(addresses)
    if dedup:
        addrs = dedup_words(addrs)
    cache.read_accesses += addrs.size
    if not addrs.size:
        return
    cfg = cache.config
    nsubs = cfg.subs_per_block
    words = cfg.sub_block // 4
    _, line, tag, sub, first = _first_demands(cfg, addrs)
    tags = cache.tags
    valid = cache.valid
    misses = traffic = 0
    for L, T, S in zip(line[first].tolist(), tag[first].tolist(),
                       sub[first].tolist()):
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


def replay_tagged(cache, stream) -> None:
    """Vectorized :meth:`Cache.run_tagged` (``addr | 1`` marks writes)."""
    entries = as_addresses(stream)
    if not entries.size:
        return
    write = entries & 1
    addrs = entries & ~1
    nwrites = int(write.sum())
    cache.write_accesses += nwrites
    cache.read_accesses += entries.size - nwrites
    cfg = cache.config
    nsubs = cfg.subs_per_block
    words = cfg.sub_block // 4
    order, line, tag, sub, first = _first_demands(cfg, addrs)
    write = write[order]
    tags = cache.tags
    valid = cache.valid
    r_miss = w_miss = traffic = 0
    for L, T, S, W in zip(line[first].tolist(), tag[first].tolist(),
                          sub[first].tolist(), write[first].tolist()):
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
