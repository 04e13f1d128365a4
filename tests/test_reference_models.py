import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import make_cfg
from ragcap import reference_models
from ragcap.archive import (ArchiveFormatError, ManifestRow, load_manifest,
                            write_archive, write_manifest)
from ragcap.data import load_dataset
from ragcap.autodiff import Tensor
from ragcap.errors import NumericError
from ragcap.layers import Adam
from ragcap.reference_models import (BOS, EOS, PAD, SEP, SPECIAL_TOKENS, UNK,
                                     SyntheticDatasetSpec,
                                     TinyAudioExtractor, TinyCausalLm,
                                     TinyTokenizer,
                                     generate_synthetic_dataset)
from ragcap.similarity import bertscore


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

def test_tokenizer_roundtrip():
    tok = TinyTokenizer(["a dog barks", "the dog howls"])
    ids = tok.encode("the dog barks")
    assert tok.decode(ids) == "the dog barks"


def test_tokenizer_unknown_word_maps_to_unk():
    tok = TinyTokenizer(["a dog"])
    assert tok.encode("a cat") == [tok.stoi["a"], UNK]


def test_tokenizer_min_len_is_the_shortest_text_and_at_least_one():
    assert TinyTokenizer(["a dog barks", "Rain, falls!", "a b c d"]).min_len \
        == 2
    assert TinyTokenizer(["a dog", "..."]).min_len == 1
    assert TinyTokenizer([]).min_len == 1


def test_tokenizer_vocabulary_is_sorted_and_stable():
    tok1 = TinyTokenizer(["b a", "c a"])
    tok2 = TinyTokenizer(["c a", "b a"])
    assert tok1.itos == tok2.itos
    words = tok1.itos[len(SPECIAL_TOKENS):]
    assert words == sorted(words)


# ---------------------------------------------------------------------------
# tiny causal LM
# ---------------------------------------------------------------------------

def test_same_seed_bitwise_identical_weights():
    a = TinyCausalLm(20, make_cfg(lm_seed=7))
    b = TinyCausalLm(20, make_cfg(lm_seed=7))
    assert a.weight_hash() == b.weight_hash()
    assert a.weight_hash() != TinyCausalLm(
        20, make_cfg(lm_seed=8)).weight_hash()


def test_features_shape_and_determinism():
    lm = TinyCausalLm(20, make_cfg(model_d_l=16, lm_seed=7))
    f = lm.features(np.array([BOS, 5, 6]))
    assert f.shape == (3, 16)
    np.testing.assert_array_equal(f, lm.features(np.array([BOS, 5, 6])))


def test_features_batch_matches_single_sequences():
    lm = TinyCausalLm(20, make_cfg(model_d_l=16, lm_seed=7))
    batch = lm.features([[BOS, 5, 6, 7], [BOS, 8, PAD, PAD]])
    assert batch.shape == (2, 4, 16)
    np.testing.assert_allclose(batch[0], lm.features(np.array([BOS, 5, 6, 7])),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(batch[1, :2], lm.features(np.array([BOS, 8])),
                               rtol=0, atol=1e-12)


def test_features_of_ragged_rows_are_their_own_length_encodings():
    """Rows of three lengths, shuffled: each row's features are bit for bit
    those of the row encoded alone, and zero past its length."""
    lm = TinyCausalLm(20, make_cfg(lm_seed=7))
    rng = np.random.default_rng(0)
    rows = [rng.integers(0, 20, size=n).tolist()
            for n in (9, 42, 17) for _ in range(5)]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    feats = lm.features(rows)
    assert feats.shape == (len(rows), 42, lm.d_model)
    for f, row in zip(feats, rows):
        assert f[:len(row)].tobytes() == lm.features(np.array(row)).tobytes()
        assert not f[len(row):].any()


def test_features_encode_a_length_group_in_bounded_chunks(monkeypatch):
    """With FEATURES_CHUNK at 2, groups of 5 and 3 rows of one length take
    3 and 2 forwards of at most 2 rows, and give the same bytes."""
    lm = TinyCausalLm(20, make_cfg(lm_seed=7))
    rng = np.random.default_rng(1)
    rows = [rng.integers(0, 20, size=n).tolist() for n in (6,) * 5 + (11,) * 3]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    whole = lm.features(rows)
    monkeypatch.setattr(reference_models, "FEATURES_CHUNK", 2)
    sizes = []
    forward = lm._forward
    monkeypatch.setattr(lm, "_forward",
                        lambda ids: sizes.append(len(ids)) or forward(ids))
    assert lm.features(rows).tobytes() == whole.tobytes()
    assert sorted(sizes) == [1, 1, 2, 2, 2]


def test_causal_prefix_property():
    lm = TinyCausalLm(20, make_cfg(lm_seed=7))
    short = lm.features(np.array([BOS, 5, 6]))
    long = lm.features(np.array([BOS, 5, 6, 7, 8]))
    np.testing.assert_allclose(long[:3], short, atol=1e-12)


def test_lm_rejects_bad_tokens():
    lm = TinyCausalLm(20, make_cfg(lm_seed=7))
    with pytest.raises(ValueError, match="out of vocabulary"):
        lm.features(np.array([BOS, 25]))
    with pytest.raises(ValueError, match="nonempty"):
        lm.features(np.array([], dtype=np.int64))


def test_head_matrix_tied_to_embedding():
    lm = TinyCausalLm(20, make_cfg(model_d_l=16, lm_seed=7))
    np.testing.assert_array_equal(lm.head_matrix(), lm.emb.data.T)
    assert lm.head_matrix().shape == (16, 20)


def _frozen(lm) -> bool:
    return all(not p.requires_grad and p.grad is None
               for _, p in lm.named_params())


def _pretrained(seqs, epochs):
    lm = TinyCausalLm(20, make_cfg(lm_seed=7))
    lm.pretrain(seqs, epochs=epochs)
    return lm


def test_pretraining_changes_weights_then_freezes():
    seqs = [[5, 6, 7], [6, 7, 8], [5, 8]]
    plain = TinyCausalLm(20, make_cfg(lm_seed=7))
    assert _frozen(plain)  # built frozen
    trained = _pretrained(seqs, 3)
    assert plain.weight_hash() != trained.weight_hash()
    assert _frozen(trained)  # and frozen again after pretraining
    # pretraining is deterministic
    assert trained.weight_hash() == _pretrained(seqs, 3).weight_hash()
    # zero epochs keep the built weights
    assert _pretrained(seqs, 0).weight_hash() == plain.weight_hash()


def test_pretraining_raises_on_nonfinite_loss_before_stepping():
    seqs = [[5, 6, 7], [6, 7, 8], [5, 8]]
    lm = TinyCausalLm(20, make_cfg())
    lm.emb.data[5, 0] = np.inf
    before = {name: p.data.copy() for name, p in lm.named_params()}
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match="non-finite LM pretraining loss at epoch 0"):
        lm.pretrain(seqs, epochs=3)
    for name, p in lm.named_params():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)
    assert _frozen(lm)


def _pretrain_peak_bytes(seqs, vocab_size, epochs):
    lm = TinyCausalLm(vocab_size, make_cfg())
    tracemalloc.start()
    try:
        lm.pretrain(seqs, epochs=epochs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pretraining_frees_each_epoch_graph(tmp_path):
    """Epoch e's autodiff graph is freed before epoch e + 1 builds its
    own, so the traced peak does not grow with the epoch count. Keeping the
    previous graph alive makes 4 epochs peak at about 1.75x one epoch on
    these captions."""
    rows = generate_synthetic_dataset(SyntheticDatasetSpec(), 4, 4,
                                      str(tmp_path))
    texts = [c for r in rows if r.split == "train" for c in r.captions]
    tok = TinyTokenizer(texts)
    seqs = [tok.encode(t) for t in texts]
    one = _pretrain_peak_bytes(seqs, tok.vocab_size, 1)
    four = _pretrain_peak_bytes(seqs, tok.vocab_size, 4)
    assert four <= 1.2 * one, (four, one)


def _summed_pretrain(lm, token_seqs, epochs):
    """The pretraining before it went part by part: every bucket's
    cross-entropy summed left to right in ascending length, times
    1 / positions, in one graph and one backward per epoch."""
    opt = Adam(lm)
    buckets = {}
    for seq in token_seqs:
        wrapped = [BOS] + list(seq) + [EOS]
        buckets.setdefault(len(wrapped), []).append(wrapped)

    def epoch_loss():
        total = None
        n_pos = 0
        for length in sorted(buckets):
            batch = np.asarray(buckets[length], dtype=np.int64)
            h = lm._forward(batch[:, :-1])
            logits = h @ lm.emb.swapaxes(0, 1)
            logp = logits.log_softmax()
            targets = batch[:, 1:]
            onehot = np.zeros(logp.shape)
            b_idx = np.arange(batch.shape[0])[:, None]
            t_idx = np.arange(length - 1)[None, :]
            onehot[b_idx, t_idx, targets] = 1.0
            ce = -(logp * Tensor(onehot)).sum()
            n_pos += targets.size
            total = ce if total is None else total + ce
        return total * (1.0 / n_pos)

    for epoch in range(epochs):
        opt.minimize([epoch_loss], f"epoch {epoch}",
                     reference_models.PRETRAIN_LR)


@pytest.mark.parametrize("lengths", [(3, 1, 5), (2, 7, 4, 1, 9, 3)])
def test_pretraining_by_bucket_matches_the_summed_loss_bitwise(lengths):
    """Part-by-part pretraining gives every lm.* tensor bit for bit as one
    backward on the summed loss, on 3 and on 6 length buckets."""
    rng = np.random.default_rng(len(lengths))
    seqs = [rng.integers(5, 20, size=n).tolist()
            for n in lengths for _ in range(1 + n % 3)]
    seqs = [seqs[k] for k in rng.permutation(len(seqs))]
    got, want = (TinyCausalLm(20, make_cfg(lm_seed=7)) for _ in range(2))
    got.pretrain(seqs, epochs=3)
    _summed_pretrain(want, seqs, 3)
    want = want.snapshot()
    assert len(want) == len(got.named_params())
    for name, p in got.named_params():
        assert p.data.tobytes() == want[name].tobytes(), name


def test_pretraining_peak_follows_the_largest_bucket():
    """One step on 4 buckets of equal size (16 sequences each, lengths
    20-23) peaks below 1.5x a step on the longest bucket alone: each
    bucket's graph is freed before the next is built (1.02x). With all
    four graphs alive at once it peaks at 3.2x."""
    rng = np.random.default_rng(0)
    buckets = [[rng.integers(5, 20, size=n).tolist() for _ in range(16)]
               for n in (20, 21, 22, 23)]
    one = _pretrain_peak_bytes(buckets[-1], 20, 1)
    four = _pretrain_peak_bytes([s for b in buckets for s in b], 20, 1)
    assert four < 1.5 * one, (four, one)


def test_max_len_enforced(monkeypatch):
    monkeypatch.setattr(reference_models, "LM_MAX_LEN", 4)
    lm = TinyCausalLm(10, make_cfg())
    with pytest.raises(ValueError, match="max_len"):
        lm.features(np.array([1, 2, 3, 4, 5]))


# ---------------------------------------------------------------------------
# audio extractor and synthetic dataset
# ---------------------------------------------------------------------------

def test_extractor_deterministic_and_clustered():
    ex = TinyAudioExtractor(8, 16, 2, noise_level=0.1, seed=3)
    a = ex.extract(0, 0)
    np.testing.assert_array_equal(a, ex.extract(0, 0))
    same = np.linalg.norm(ex.extract(0, 1) - a)
    other = np.linalg.norm(ex.extract(1, 0) - a)
    assert same < other


def test_generate_dataset_rows_and_splits(tmp_path):
    spec = SyntheticDatasetSpec(clusters=2, items_per_cluster=10, seed=1)
    rows = generate_synthetic_dataset(spec, 8, 16, str(tmp_path))
    assert len(rows) == 20
    splits = [r.split for r in rows]
    assert splits.count("valid") == 2 and splits.count("test") == 2
    loaded = load_manifest(str(tmp_path / "manifest.jsonl"))
    assert [r.id for r in loaded] == [r.id for r in rows]


def test_generate_dataset_bitwise_reproducible(tmp_path):
    spec = SyntheticDatasetSpec(clusters=2, items_per_cluster=4, seed=5)
    generate_synthetic_dataset(spec, 8, 16, str(tmp_path / "a"))
    generate_synthetic_dataset(spec, 8, 16, str(tmp_path / "b"))
    for name in ("manifest.jsonl", "features/c00i000.ract",
                 "features/c01i003.ract"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_same_cluster_captions_more_similar(tmp_path):
    spec = SyntheticDatasetSpec(clusters=2, items_per_cluster=6, seed=0)
    rows = generate_synthetic_dataset(spec, 8, 16, str(tmp_path))
    texts = [r.captions[0] for r in rows]
    tok = TinyTokenizer(texts)
    lm = TinyCausalLm(tok.vocab_size, make_cfg(lm_seed=7))
    lm.pretrain([tok.encode(t) for t in texts], epochs=10)
    embs = [lm.features(np.array(tok.encode(t))).T.copy() for t in texts]
    same, cross = [], []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            _, _, f1 = bertscore(embs[i], embs[j])
            (same if rows[i].id[:3] == rows[j].id[:3] else cross).append(f1)
    assert np.mean(same) > np.mean(cross)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticDatasetSpec(clusters=1)
    with pytest.raises(ValueError):
        SyntheticDatasetSpec(clusters=99)
    with pytest.raises(ValueError):
        SyntheticDatasetSpec(templates_per_cluster=0)


def test_spec_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"clusters": 3, "items_per_cluster": 5, "seed": 2}')
    spec = SyntheticDatasetSpec.from_file(str(path))
    assert spec.clusters == 3 and spec.seed == 2
    path.write_text('{"clusters": 3, "extra": 1}')
    with pytest.raises(ValueError, match="unknown"):
        SyntheticDatasetSpec.from_file(str(path))


# ---------------------------------------------------------------------------
# precomputed-feature ingestion: an external feature archive listed in a
# manifest is read by load_dataset
# ---------------------------------------------------------------------------

def ingest(tmp_path, name: str, d_a: int, t: int):
    manifest = str(tmp_path / "manifest.jsonl")
    write_manifest(manifest, [ManifestRow("x", "train", name, ["a cap"])])
    return load_dataset(manifest, d_a, t)[0].features


def test_ingest_valid_audio_features(tmp_path, rng):
    write_archive(str(tmp_path / "vggish.ract"),
                  {"features": rng.normal(size=(128, 10))}, {})
    feats = ingest(tmp_path, "vggish.ract", 128, 10)
    assert feats.shape == (128, 10)


def test_ingest_dim_mismatch(tmp_path, rng):
    write_archive(str(tmp_path / "f.ract"),
                  {"features": rng.normal(size=(64, 10))}, {})
    with pytest.raises(ArchiveFormatError, match="128"):
        ingest(tmp_path, "f.ract", 128, 10)


def test_ingest_truncated_file_names_offset(tmp_path, rng):
    path = str(tmp_path / "f.ract")
    write_archive(path, {"features": rng.normal(size=(4, 3))}, {})
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[:-16])
    with pytest.raises(ArchiveFormatError, match=r"byte \d+"):
        ingest(tmp_path, "f.ract", 4, 3)


def test_ingest_rejects_nonfinite(tmp_path):
    for bad_value in (np.nan, np.inf, -np.inf):
        bad = np.ones((4, 3))
        bad[0, 0] = bad_value
        write_archive(str(tmp_path / "f.ract"), {"features": bad}, {})
        with pytest.raises(ArchiveFormatError, match=r"f\.ract.*non-finite"):
            ingest(tmp_path, "f.ract", 4, 3)


def test_sep_bos_eos_distinct():
    assert len({BOS, EOS, SEP, UNK}) == 4
