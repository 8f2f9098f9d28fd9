"""Counter-based splittable random streams.

Every randomized routine in this package draws from an RngStream. A stream
is identified by a 64-bit master seed plus a path of labels; deriving child
streams by label (instead of sharing one sequential generator) means the
values a subroutine sees depend only on (seed, path), never on how much
randomness sibling routines consumed. That is what makes trial-level
parallelism and re-runs bit-reproducible.

The generator is SplitMix64 evaluated in counter mode: output i is a pure
function of (derived key, i). All arithmetic is masked 64-bit integer math,
so sequences are identical across platforms and Python builds.
``child_masks`` runs the same math on numpy ``uint64`` arrays, which wrap
mod 2^64 as the masked Python ints do: the parent's key XOR a block's cached
read-only label hashes, each child's hits read as little-endian 64-bit words.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: int) -> int:
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a(data: bytes, h: int = _FNV_OFFSET) -> int:
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


# Typed, so that True is not served the cached hash of 1 and still raises.
@lru_cache(maxsize=4096, typed=True)
def _label_hash(label: "int | str") -> int:
    if isinstance(label, bool):
        raise TypeError("bool labels are ambiguous; use int or str")
    if isinstance(label, int):
        return _fnv1a(b"i" + label.to_bytes(16, "little", signed=True))
    if isinstance(label, str):
        return _fnv1a(b"s" + label.encode("utf-8"))
    raise TypeError(f"stream labels must be int or str, got {type(label).__name__}")


@lru_cache(maxsize=64)
def _label_hashes(start: int, n: int) -> np.ndarray:
    hashes = np.fromiter(map(_label_hash, range(start, start + n)), np.uint64)
    hashes.flags.writeable = False
    return hashes


class RngStream:
    """Deterministic stream addressed by (master_seed, stream_path).

    Two streams with equal seed and path produce identical sequences.
    ``child(label)`` derives an independent stream; it never disturbs the
    parent's counter.
    """

    __slots__ = ("master_seed", "stream_path", "_key", "_counter")

    def __init__(self, master_seed: int, stream_path: Sequence["int | str"] = (),
                 _fold=None):
        self.master_seed = master_seed & _MASK64
        self.stream_path = tuple(stream_path)
        # A left fold over the path; child passes (its key, new labels).
        key, labels = _fold or (_mix64(self.master_seed ^ _GOLDEN),
                                self.stream_path)
        for label in labels:
            key = _mix64(key ^ _label_hash(label))
        self._key = key
        self._counter = 0

    def child(self, *labels: "int | str") -> "RngStream":
        return RngStream(self.master_seed, self.stream_path + labels,
                         (self._key, labels))

    def next_u64(self) -> int:
        self._counter += 1
        return _mix64((self._key + self._counter * _GOLDEN) & _MASK64)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection on masked draws."""
        if n <= 0:
            raise ValueError("randrange() requires n >= 1")
        if n == 1:
            return 0
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            value = self.next_u64() & mask
            if value < n:
                return value

    def child_masks(self, n: int, count: int, bits: int, start: int = 0) -> list:
        """For each child ``i`` in range(start, start + n), the mask with bit
        j set when the j-th of count draws of ``child(i).randrange(1 << bits)``
        is 0: each bit is kept with probability 2^-bits. The parent's
        counter does not move.
        """
        if bits < 1 or n < 0 or count < 0:
            raise ValueError("child_masks() requires bits >= 1, n, count >= 0")
        keys = _mix64(_label_hashes(start, n) ^ np.uint64(self._key))
        steps = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
        # randrange(2^bits) masks each draw to its low bits and never rejects.
        hits = np.zeros((n, 64 * max(1, -(-count // 64))), dtype=bool)
        hits[:, :count] = (_mix64(keys[:, None] + steps) & ((1 << bits) - 1)) == 0
        words = np.packbits(hits, axis=1, bitorder="little").view("<u8")
        return reduce(lambda high, low: [h << 64 | w for h, w in zip(high, low)],
                      words.T[::-1].tolist())

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        if hi < lo:
            raise ValueError("randint() requires lo <= hi")
        return lo + self.randrange(hi - lo + 1)

    def bernoulli(self, numer: int, denom: int) -> bool:
        """True with probability numer/denom."""
        if denom <= 0 or not 0 <= numer <= denom:
            raise ValueError("need 0 <= numer <= denom, denom >= 1")
        return self.randrange(denom) < numer

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list:
        perm = list(range(n))
        self.shuffle(perm)
        return perm

    def sample_distinct(self, n: int, k: int) -> list:
        """k distinct values from [0, n) in draw order."""
        if k > n:
            raise ValueError("sample_distinct() requires k <= n")
        seen: set = set()
        out = []
        while len(out) < k:
            v = self.randrange(n)
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out

    def __repr__(self) -> str:
        return f"RngStream(seed=0x{self.master_seed:016x}, path={self.stream_path!r})"
