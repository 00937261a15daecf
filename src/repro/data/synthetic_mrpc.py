"""Synthetic MRPC-style paraphrase corpus.

Generates labelled sentence pairs over a small word list:

* **positive** (label 1): the second sentence is a light perturbation of the
  first (word dropout, local swaps, a few substitutions) — a "paraphrase";
* **negative** (label 0): the second sentence is drawn independently.

The classifier can solve the task from lexical overlap, which is exactly the
property needed for the Figure-6 experiment: the loss decreases smoothly over
a few epochs for every model family, and a NaN anywhere in the pipeline is
immediately visible against that smooth baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.tokenizer import HashingTokenizer
from repro.utils.rng import new_rng

__all__ = ["SentencePair", "SyntheticMRPC"]

# A compact, deterministic word list; enough variety that lexical overlap is a
# real signal rather than an accident of hashing collisions.
_WORDS: Tuple[str, ...] = (
    "market", "shares", "company", "percent", "quarter", "profit", "revenue", "bank",
    "stock", "prices", "growth", "report", "analyst", "billion", "million", "rose",
    "fell", "trading", "investors", "earnings", "federal", "officials", "policy",
    "economy", "industry", "software", "technology", "deal", "agreement", "court",
    "judge", "ruling", "government", "president", "minister", "election", "votes",
    "senate", "house", "bill", "law", "police", "city", "state", "country", "world",
    "people", "workers", "union", "strike", "health", "study", "research", "virus",
    "patients", "hospital", "doctors", "school", "students", "university", "science",
    "energy", "oil", "gas", "power", "climate", "weather", "storm", "water", "team",
    "game", "season", "players", "coach", "league", "championship", "points", "goal",
)


@dataclass(frozen=True)
class SentencePair:
    """One labelled example of the paraphrase-detection task."""

    sentence_a: str
    sentence_b: str
    label: int


class SyntheticMRPC:
    """Deterministic synthetic paraphrase corpus.

    Parameters
    ----------
    num_examples:
        Number of sentence pairs to generate.
    max_seq_len:
        Target encoded length (``[CLS] a [SEP] b [SEP]`` + padding).
    vocab_size:
        Vocabulary of the hashing tokenizer (must match the model config).
    seed:
        Seed controlling both sentence generation and the train/dev split.
    positive_fraction:
        Fraction of paraphrase (label 1) pairs, ~0.67 in the real MRPC.
    """

    def __init__(
        self,
        num_examples: int = 256,
        max_seq_len: int = 16,
        vocab_size: int = 512,
        seed: int = 1234,
        positive_fraction: float = 0.67,
    ) -> None:
        if num_examples <= 0:
            raise ValueError("num_examples must be positive")
        if not 0.0 < positive_fraction < 1.0:
            raise ValueError("positive_fraction must lie in (0, 1)")
        self.num_examples = num_examples
        self.max_seq_len = max_seq_len
        self.tokenizer = HashingTokenizer(vocab_size=vocab_size)
        self.seed = seed
        self.positive_fraction = positive_fraction
        self.examples: List[SentencePair] = self._generate(new_rng(seed))

    # -- generation ----------------------------------------------------------------------

    def _random_sentence(self, rng: np.random.Generator, length: int) -> List[str]:
        return [str(_WORDS[i]) for i in rng.integers(0, len(_WORDS), size=length)]

    def _perturb(self, words: Sequence[str], rng: np.random.Generator) -> List[str]:
        """Light perturbation: drop, swap and substitute a few words."""
        words = list(words)
        # substitution
        for i in range(len(words)):
            if rng.random() < 0.15:
                words[i] = str(_WORDS[rng.integers(0, len(_WORDS))])
        # local swap
        if len(words) > 2 and rng.random() < 0.5:
            i = int(rng.integers(0, len(words) - 1))
            words[i], words[i + 1] = words[i + 1], words[i]
        # dropout
        if len(words) > 3 and rng.random() < 0.3:
            del words[int(rng.integers(0, len(words)))]
        return words

    def _generate(self, rng: np.random.Generator) -> List[SentencePair]:
        examples: List[SentencePair] = []
        sentence_budget = max(3, (self.max_seq_len - 3) // 2)
        for _ in range(self.num_examples):
            length = int(rng.integers(max(3, sentence_budget - 2), sentence_budget + 1))
            first = self._random_sentence(rng, length)
            if rng.random() < self.positive_fraction:
                second = self._perturb(first, rng)
                label = 1
            else:
                second = self._random_sentence(rng, length)
                label = 0
            examples.append(
                SentencePair(sentence_a=" ".join(first), sentence_b=" ".join(second), label=label)
            )
        return examples

    # -- access ------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, index: int) -> SentencePair:
        return self.examples[index]

    def labels(self) -> np.ndarray:
        return np.asarray([e.label for e in self.examples], dtype=np.int64)

    def encode(self, indices: Optional[Sequence[int]] = None) -> Dict[str, np.ndarray]:
        """Encode (a subset of) the corpus into model-ready arrays."""
        if indices is None:
            indices = range(len(self.examples))
        pairs = [(self.examples[i].sentence_a, self.examples[i].sentence_b) for i in indices]
        labels = np.asarray([self.examples[i].label for i in indices], dtype=np.int64)
        input_ids, attention_mask = self.tokenizer.encode_batch(pairs, self.max_seq_len)
        return {"input_ids": input_ids, "attention_mask": attention_mask, "labels": labels}
