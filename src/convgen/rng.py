"""Deterministic PRNG utilities shared by every component.

Fold shuffling and seed derivation use an explicit splitmix64 generator so
that results are reproducible bit-for-bit across platforms and language
runtimes, independent of any library's stream implementation.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """splitmix64's output function of a state: a Python int, or elementwise
    on a numpy uint64 array, whose products wrap like the masked ints."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, 64-bit output)."""
    state = (state + _GAMMA) & MASK64
    return state, _mix(state)


def shuffle(items: list, seed: int) -> int:
    """In-place Fisher-Yates shuffle on the splitmix64 stream from `seed`, each
    index drawn by unbiased rejection; returns the stream's final state, which
    continues the stream when passed as the next seed.

    Position i (from the end down) swaps with j = u mod (i+1) for the next
    output u; an output among the top 2**64 mod (i+1) values is rejected and
    the next one taken. The outputs are drawn as one array, and a rejection
    (fewer than len(items) in 2**64 draws) restarts it one state on.
    """
    state = seed & MASK64
    bound = np.arange(len(items), 1, -1, dtype=np.uint64)  # i + 1 for i = n-1, ..., 1
    highest_kept = MASK64 - (-bound) % bound  # -b wraps to 2**64 - b
    picks = []
    while len(picks) < len(bound):
        todo = len(bound) - len(picks)
        states = np.uint64(state) + np.uint64(_GAMMA) * np.arange(1, todo + 1, dtype=np.uint64)
        draws = _mix(states)
        rejected = np.flatnonzero(draws > highest_kept[len(picks):])
        kept = int(rejected[0]) if len(rejected) else todo
        picks += (draws[:kept] % bound[len(picks):len(picks) + kept]).tolist()
        state = int(states[min(kept, todo - 1)])  # a rejected draw spends its state
    for i, j in zip(range(len(items) - 1, 0, -1), picks):
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
