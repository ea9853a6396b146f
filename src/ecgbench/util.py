"""Shared helper: stable sub-seeding."""

import hashlib

import numpy as np


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed derived from arbitrary repr-able parts.

    Stable across processes and platforms (unlike ``hash``), so every piece of
    run randomness can be keyed by (seed, purpose) without hidden coupling.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def sub_rng(*parts) -> np.random.Generator:
    """A fresh generator keyed by the given parts."""
    return np.random.default_rng(stable_seed(*parts))

