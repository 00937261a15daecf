"""A small deterministic hashing tokenizer.

Real LLMs use learned subword vocabularies; for the synthetic corpus a
hashing tokenizer is sufficient and keeps the package free of data files.
Tokens are whitespace-split words mapped to ids by a stable FNV-1a hash into
the vocabulary, with a handful of reserved special tokens compatible with the
sequence-pair format the models expect (``[CLS] sent1 [SEP] sent2 [SEP]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["HashingTokenizer"]


def _fnv1a(text: str) -> int:
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


@dataclass
class HashingTokenizer:
    """Hash words into a fixed vocabulary with reserved special tokens.

    Attributes
    ----------
    vocab_size:
        Total vocabulary size, including the special tokens.
    """

    vocab_size: int = 512

    PAD = 0
    CLS = 1
    SEP = 2
    UNK = 3
    NUM_SPECIAL = 4

    def __post_init__(self) -> None:
        if self.vocab_size <= self.NUM_SPECIAL + 1:
            raise ValueError(f"vocab_size must exceed {self.NUM_SPECIAL + 1}")

    # -- single text ------------------------------------------------------------------

    def token_id(self, word: str) -> int:
        """Map one word to its id (deterministic, process-independent)."""
        if not word:
            return self.UNK
        span = self.vocab_size - self.NUM_SPECIAL
        return self.NUM_SPECIAL + (_fnv1a(word.lower()) % span)

    def tokenize(self, text: str) -> List[int]:
        """Whitespace tokenize and hash every word."""
        return [self.token_id(w) for w in text.split()]

    # -- sentence pairs ------------------------------------------------------------------

    def encode_pair(
        self, sentence_a: str, sentence_b: str, max_length: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Encode ``[CLS] a [SEP] b [SEP]`` padded/truncated to ``max_length``.

        Returns ``(input_ids, attention_mask)`` as int64 / float64 arrays.
        """
        if max_length < 5:
            raise ValueError("max_length must be at least 5 to fit the special tokens")
        ids_a = self.tokenize(sentence_a)
        ids_b = self.tokenize(sentence_b)
        budget = max_length - 3  # CLS + 2x SEP
        half = budget // 2
        # Truncate the longer side first, as HuggingFace's pair encoding does.
        while len(ids_a) + len(ids_b) > budget:
            if len(ids_a) >= len(ids_b) and len(ids_a) > half:
                ids_a.pop()
            elif ids_b:
                ids_b.pop()
            else:
                ids_a.pop()
        tokens = [self.CLS] + ids_a + [self.SEP] + ids_b + [self.SEP]
        attention = [1.0] * len(tokens)
        while len(tokens) < max_length:
            tokens.append(self.PAD)
            attention.append(0.0)
        return np.asarray(tokens, dtype=np.int64), np.asarray(attention, dtype=np.float64)

    def encode_batch(
        self, pairs: Sequence[Tuple[str, str]], max_length: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`encode_pair` over a batch of sentence pairs."""
        ids = np.zeros((len(pairs), max_length), dtype=np.int64)
        mask = np.zeros((len(pairs), max_length), dtype=np.float64)
        for i, (a, b) in enumerate(pairs):
            ids[i], mask[i] = self.encode_pair(a, b, max_length)
        return ids, mask
