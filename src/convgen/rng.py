"""Deterministic PRNG utilities shared by every component.

Fold shuffling and seed derivation use an explicit splitmix64 generator so
that results are reproducible bit-for-bit across platforms and language
runtimes, independent of any library's stream implementation.
"""

from __future__ import annotations

MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, (z ^ (z >> 31)) & MASK64


class SplitMix64:
    """Tiny 64-bit PRNG with a documented, fixed algorithm."""

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state, out = splitmix64(self._state)
        return out

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (unbiased)."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = (MASK64 + 1) - ((MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


def derive_seed(master: int, *parts) -> int:
    """Derive a child seed from a master seed and a tag path.

    Each part (stringified) is folded in via FNV-1a hashing and one
    splitmix64 scramble, so (master, parts) -> seed is stable across runs,
    platforms and process boundaries.
    """
    h = master & MASK64
    for part in parts:
        h ^= _fnv1a64(str(part))
        _, h = splitmix64(h)
    return h
