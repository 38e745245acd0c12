"""Direct-mapped, sub-blocked cache with wrap-around prefetch.

This mirrors the organization the paper measured with the dinero
simulator [Hil92]:

* direct-mapped, physically indexed;
* blocks divided into *sub-blocks* (sectors) with per-sub-block valid
  bits — a miss fetches only the demanded sub-block, not the whole block;
* on a demand **read** miss, the following sub-block is prefetched with
  wrap-around within the block ("the word following the missed word is
  always prefetched"); writes allocate but do not prefetch;
* write misses fetch the written sub-block (write-allocate).

Statistics distinguish read and write accesses and count the words of
memory traffic generated (each fetched sub-block moves
``sub_block // 4`` bus words).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache."""

    size: int              # total bytes
    block: int = 32        # block (line) size in bytes
    sub_block: int = 8     # sector size in bytes

    def __post_init__(self):
        if self.size % self.block:
            raise ValueError("cache size must be a multiple of block size")
        if self.block % self.sub_block:
            raise ValueError("block size must be a multiple of sub-block")
        for value, what in ((self.size, "size"), (self.block, "block"),
                            (self.sub_block, "sub-block")):
            if value & (value - 1):
                raise ValueError(f"cache {what} must be a power of two")
        if self.sub_block < 4:
            raise ValueError("sub-block must be at least one word")

    @property
    def num_lines(self) -> int:
        return self.size // self.block

    @property
    def subs_per_block(self) -> int:
        return self.block // self.sub_block


class Cache:
    """One direct-mapped sub-blocked cache."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.tags = [-1] * config.num_lines
        self.valid = [0] * config.num_lines   # per-line sub-block bitmask
        self.read_accesses = 0
        self.read_misses = 0
        self.write_accesses = 0
        self.write_misses = 0
        self.traffic_words = 0

    @property
    def accesses(self) -> int:
        return self.read_accesses + self.write_accesses

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    def corrupt_line(self, line: int, *, tag_bit: int | None = None,
                     sub_bit: int | None = None) -> None:
        """Flip one bit of a line's metadata (fault injection).

        ``tag_bit`` flips a bit of the stored tag — a subsequent access
        to the line either falsely misses (extra traffic) or falsely
        hits stale contents; ``sub_bit`` flips one sub-block valid bit.
        Exactly one of the two must be given.
        """
        if (tag_bit is None) == (sub_bit is None):
            raise ValueError("give exactly one of tag_bit/sub_bit")
        if not 0 <= line < self.config.num_lines:
            raise ValueError(f"line {line} out of range")
        if tag_bit is not None:
            self.tags[line] ^= 1 << tag_bit
        else:
            if not 0 <= sub_bit < self.config.subs_per_block:
                raise ValueError(f"sub-block bit {sub_bit} out of range")
            self.valid[line] ^= 1 << sub_bit

    def access(self, addr: int) -> bool:
        """Read one address; returns True on hit."""
        cfg = self.config
        block_index = addr // cfg.block
        line = block_index % cfg.num_lines
        tag = block_index // cfg.num_lines
        sub = (addr % cfg.block) // cfg.sub_block
        bit = 1 << sub
        self.read_accesses += 1
        if self.tags[line] == tag and self.valid[line] & bit:
            return True
        if self.tags[line] != tag:
            self.tags[line] = tag
            self.valid[line] = 0
        self.read_misses += 1
        next_bit = 1 << ((sub + 1) % cfg.subs_per_block)
        fetched = 1 + ((self.valid[line] & next_bit) == 0)
        self.valid[line] |= bit | next_bit
        self.traffic_words += cfg.sub_block // 4 * fetched
        return False

    def run_reads(self, addresses) -> None:
        """Feed a read-only address stream (fast path for I-streams)."""
        cfg = self.config
        block_size = cfg.block
        num_lines = cfg.num_lines
        sub_size = cfg.sub_block
        nsubs = cfg.subs_per_block
        words = sub_size // 4
        tags = self.tags
        valid = self.valid
        accesses = misses = traffic = 0
        for addr in addresses:
            accesses += 1
            block_index = addr // block_size
            line = block_index % num_lines
            tag = block_index // num_lines
            sub = (addr % block_size) // sub_size
            bit = 1 << sub
            if tags[line] == tag and valid[line] & bit:
                continue
            misses += 1
            if tags[line] != tag:
                tags[line] = tag
                valid[line] = 0
            next_bit = 1 << ((sub + 1) % nsubs)
            traffic += words * (1 + ((valid[line] & next_bit) == 0))
            valid[line] |= bit | next_bit
        self.read_accesses += accesses
        self.read_misses += misses
        self.traffic_words += traffic

    def run_tagged(self, stream) -> None:
        """Feed a mixed stream of ``addr | 1``-tagged writes and reads."""
        cfg = self.config
        block_size = cfg.block
        num_lines = cfg.num_lines
        sub_size = cfg.sub_block
        nsubs = cfg.subs_per_block
        words = sub_size // 4
        tags = self.tags
        valid = self.valid
        r_acc = r_miss = w_acc = w_miss = traffic = 0
        for entry in stream:
            write = entry & 1
            addr = entry & ~1
            if write:
                w_acc += 1
            else:
                r_acc += 1
            block_index = addr // block_size
            line = block_index % num_lines
            tag = block_index // num_lines
            sub = (addr % block_size) // sub_size
            bit = 1 << sub
            if tags[line] == tag and valid[line] & bit:
                continue
            if tags[line] != tag:
                tags[line] = tag
                valid[line] = 0
            if write:
                w_miss += 1
                valid[line] |= bit
                traffic += words
            else:
                r_miss += 1
                next_bit = 1 << ((sub + 1) % nsubs)
                traffic += words * (1 + ((valid[line] & next_bit) == 0))
                valid[line] |= bit | next_bit
        self.read_accesses += r_acc
        self.read_misses += r_miss
        self.write_accesses += w_acc
        self.write_misses += w_miss
        self.traffic_words += traffic
