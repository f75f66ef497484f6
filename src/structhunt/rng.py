"""Seeded, splittable randomness.

All randomized operations in the package draw from Python's Mersenne
Twister (random.Random), whose core generator is stable across platforms
and Python versions, so fixed seeds give byte-identical runs.  Substreams
are derived by hashing (seed, label) with SHA-256, which keeps independent
phases of a pipeline decoupled from each other's draw counts.
"""

from __future__ import annotations

import hashlib
import random


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def split_rng(seed: int, label: str) -> random.Random:
    """Independent substream for (seed, label), reproducibly."""
    digest = hashlib.sha256(("%d/%s" % (seed, label)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
