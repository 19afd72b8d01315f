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


def shuffle(items: list, seed: int) -> int:
    """In-place Fisher-Yates shuffle on the splitmix64 stream from `seed`, each
    index drawn by unbiased rejection; returns the stream's final state, which
    continues the stream when passed as the next seed."""
    state = seed & MASK64
    for i in range(len(items) - 1, 0, -1):
        u = limit = (MASK64 + 1) - ((MASK64 + 1) % (i + 1))
        while u >= limit:
            state, u = splitmix64(state)
        j = u % (i + 1)
        items[i], items[j] = items[j], items[i]
    return state


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
