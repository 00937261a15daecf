"""Unit tests for the tokenizer, synthetic corpus and data loader."""

import numpy as np
import pytest

from repro.data import DataLoader, HashingTokenizer, SyntheticMRPC


class TestHashingTokenizer:
    def test_token_ids_deterministic(self):
        tok = HashingTokenizer(vocab_size=128)
        assert tok.token_id("market") == tok.token_id("market")
        assert tok.token_id("market") == HashingTokenizer(vocab_size=128).token_id("market")

    def test_token_ids_in_range(self):
        tok = HashingTokenizer(vocab_size=64)
        for word in ("alpha", "beta", "gamma", "market", "a" * 50):
            tid = tok.token_id(word)
            assert tok.NUM_SPECIAL <= tid < 64

    def test_case_insensitive(self):
        tok = HashingTokenizer()
        assert tok.token_id("Market") == tok.token_id("market")

    def test_tokenize_splits_on_whitespace(self):
        tok = HashingTokenizer(vocab_size=128)
        ids = tok.tokenize("  The market\tclosed\nHigher ")
        assert ids == [tok.token_id(w) for w in ("the", "market", "closed", "higher")]
        assert tok.tokenize("") == []

    def test_empty_word_is_unk(self):
        assert HashingTokenizer().token_id("") == HashingTokenizer.UNK

    def test_too_small_vocab_raises(self):
        with pytest.raises(ValueError):
            HashingTokenizer(vocab_size=4)

    def test_encode_pair_layout(self):
        tok = HashingTokenizer(vocab_size=128)
        ids, mask = tok.encode_pair("a b c", "d e", max_length=12)
        assert ids.shape == (12,) and mask.shape == (12,)
        assert ids[0] == tok.CLS
        assert (ids == tok.SEP).sum() == 2
        assert mask.sum() == 3 + 3 + 2  # CLS + 2 SEP + 5 words
        assert np.all(ids[int(mask.sum()):] == tok.PAD)

    def test_encode_pair_truncates_long_inputs(self):
        tok = HashingTokenizer(vocab_size=128)
        long = " ".join(["word"] * 50)
        ids, mask = tok.encode_pair(long, long, max_length=16)
        assert ids.shape == (16,)
        assert mask.sum() == 16

    def test_encode_pair_min_length_raises(self):
        with pytest.raises(ValueError):
            HashingTokenizer().encode_pair("a", "b", max_length=4)

    def test_encode_batch_shapes(self):
        tok = HashingTokenizer(vocab_size=128)
        ids, mask = tok.encode_batch([("a b", "c"), ("d", "e f g")], max_length=10)
        assert ids.shape == (2, 10) and mask.shape == (2, 10)


class TestSyntheticMRPC:
    def test_deterministic_for_seed(self):
        a = SyntheticMRPC(num_examples=20, seed=3)
        b = SyntheticMRPC(num_examples=20, seed=3)
        assert [e.sentence_a for e in a.examples] == [e.sentence_a for e in b.examples]
        assert np.array_equal(a.labels(), b.labels())

    def test_different_seed_differs(self):
        a = SyntheticMRPC(num_examples=20, seed=3)
        b = SyntheticMRPC(num_examples=20, seed=4)
        assert [e.sentence_a for e in a.examples] != [e.sentence_a for e in b.examples]

    def test_positive_fraction_respected(self):
        data = SyntheticMRPC(num_examples=400, positive_fraction=0.67, seed=0)
        assert 0.55 < data.labels().mean() < 0.8

    def test_paraphrases_overlap_more_than_negatives(self):
        data = SyntheticMRPC(num_examples=300, seed=1)
        overlaps = {0: [], 1: []}
        for ex in data.examples:
            a, b = set(ex.sentence_a.split()), set(ex.sentence_b.split())
            overlaps[ex.label].append(len(a & b) / max(1, len(a | b)))
        assert np.mean(overlaps[1]) > np.mean(overlaps[0]) + 0.2

    def test_encode_shapes_and_dtypes(self):
        data = SyntheticMRPC(num_examples=16, max_seq_len=16, vocab_size=256)
        encoded = data.encode()
        assert encoded["input_ids"].shape == (16, 16)
        assert encoded["input_ids"].dtype == np.int64
        assert encoded["attention_mask"].shape == (16, 16)
        assert encoded["labels"].shape == (16,)
        assert encoded["input_ids"].max() < 256

    def test_encode_subset(self):
        data = SyntheticMRPC(num_examples=16, max_seq_len=16)
        encoded = data.encode([0, 5, 7])
        assert len(encoded["labels"]) == 3

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            SyntheticMRPC(num_examples=0)
        with pytest.raises(ValueError):
            SyntheticMRPC(num_examples=4, positive_fraction=1.5)


class TestDataLoader:
    def test_loader_len_and_iteration(self):
        data = SyntheticMRPC(num_examples=33, max_seq_len=16)
        loader = DataLoader(data, batch_size=8)
        assert len(loader) == 4
        batches = list(loader)
        assert len(batches) == 4
        assert all(len(b["labels"]) == 8 for b in batches)

    def test_loader_without_drop_last(self):
        data = SyntheticMRPC(num_examples=33, max_seq_len=16)
        loader = DataLoader(data, batch_size=8, drop_last=False, shuffle=False)
        assert len(loader) == 5

    def test_loader_respects_indices(self):
        data = SyntheticMRPC(num_examples=40, max_seq_len=16)
        loader = DataLoader(data, batch_size=4, indices=list(range(8)), shuffle=False)
        assert len(loader) == 2

    def test_shuffle_changes_order_but_not_content(self):
        data = SyntheticMRPC(num_examples=16, max_seq_len=16)
        unshuffled = DataLoader(data, batch_size=16, shuffle=False).batches()[0]
        shuffled = DataLoader(data, batch_size=16, shuffle=True, seed=11).batches()[0]
        assert not np.array_equal(unshuffled["labels"], shuffled["labels"]) or not np.array_equal(
            unshuffled["input_ids"], shuffled["input_ids"]
        )
        assert sorted(unshuffled["labels"].tolist()) == sorted(shuffled["labels"].tolist())

    def test_unshuffled_batches_follow_corpus_order_with_short_tail(self):
        data = SyntheticMRPC(num_examples=10, max_seq_len=16)
        batches = DataLoader(data, batch_size=4, shuffle=False, drop_last=False).batches()
        assert [len(b["labels"]) for b in batches] == [4, 4, 2]
        full = data.encode()
        for key in ("input_ids", "attention_mask", "labels"):
            assert np.array_equal(np.concatenate([b[key] for b in batches]), full[key])

    def test_drop_last_discards_the_short_tail(self):
        data = SyntheticMRPC(num_examples=10, max_seq_len=16)
        batches = DataLoader(data, batch_size=4, shuffle=False).batches()
        assert [len(b["labels"]) for b in batches] == [4, 4]
        assert np.array_equal(batches[1]["labels"], data.encode(range(4, 8))["labels"])

    def test_each_epoch_reshuffles_reproducibly(self):
        data = SyntheticMRPC(num_examples=24, max_seq_len=16)

        def epochs(loader):
            return [np.concatenate([b["input_ids"] for b in loader.batches()]) for _ in range(2)]

        first, second = epochs(DataLoader(data, batch_size=8, seed=3))
        again_first, again_second = epochs(DataLoader(data, batch_size=8, seed=3))
        assert np.array_equal(first, again_first) and np.array_equal(second, again_second)
        assert not np.array_equal(first, second)

    def test_invalid_batch_size_raises(self):
        data = SyntheticMRPC(num_examples=8, max_seq_len=16)
        with pytest.raises(ValueError):
            DataLoader(data, batch_size=0)
