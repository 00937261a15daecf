"""Data substrate: synthetic MRPC-style corpus, tokenizer and batching.

The paper fine-tunes on MRPC (paraphrase detection, GLUE).  The corpus cannot
be redistributed here and is not needed for any of the claims, so this package
generates a synthetic paraphrase-pair classification task with the same shape:
pairs of short "sentences" over a small vocabulary, labelled 1 when the second
sentence is a perturbed copy of the first (paraphrase) and 0 when it is an
unrelated sentence.  The task is learnable (loss decreases over epochs, as in
Figure 6) yet cheap enough that a full epoch runs in seconds on CPU.
"""

from repro.data.tokenizer import HashingTokenizer
from repro.data.synthetic_mrpc import SyntheticMRPC, SentencePair
from repro.data.dataloader import DataLoader

__all__ = [
    "HashingTokenizer",
    "SyntheticMRPC",
    "SentencePair",
    "DataLoader",
]
