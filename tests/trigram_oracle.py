"""Dense trigram vectors, one Python step per trigram: the reference that
``sqlbench.selection``'s sparse rows and selections are checked against."""

from __future__ import annotations

import zlib

import numpy as np

from sqlbench.selection import EMBED_DIM


def _trigrams(text: str) -> list[str]:
    """The character trigrams of the normalized text (the text itself if shorter)."""
    normalized = " ".join(text.lower().split())
    if len(normalized) < 3:
        return [normalized] if normalized else []
    return [normalized[i : i + 3] for i in range(len(normalized) - 2)]


def trigram_vector(text: str, dim: int = EMBED_DIM) -> np.ndarray:
    """Hashed character-trigram frequency vector over the normalized text."""
    buckets = [zlib.crc32(gram.encode("utf-8")) % dim for gram in _trigrams(text)]
    return np.bincount(np.array(buckets, dtype=np.intp), minlength=dim).astype(np.float64)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    norm = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if norm == 0.0:
        return 0.0
    return float(np.dot(a, b)) / norm
