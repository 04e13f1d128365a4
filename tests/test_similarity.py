import numpy as np
import pytest

from conftest import make_cfg
from ragcap import pipeline
from ragcap.data import DatasetItem
from ragcap.reference_models import TinyCausalLm, TinyTokenizer
from ragcap.similarity import (DegenerateSimilarityError, bertscore,
                               label_similar, normalize_minmax,
                               pairwise_similarity, train_pools)


def stub_embed(token_ids, dim=8):
    """Token ids -> fixed one-hot-ish (dim, L) embedding columns."""
    out = np.zeros((dim, len(token_ids)))
    for col, tok in enumerate(token_ids):
        out[tok % dim, col] = 1.0
    return out


# ---------------------------------------------------------------------------
# bertscore
# ---------------------------------------------------------------------------

def test_identical_matrices_score_one(rng):
    m = rng.normal(size=(6, 4))
    p, r, f1 = bertscore(m, m)
    assert p == pytest.approx(1.0, abs=1e-9)
    assert r == pytest.approx(1.0, abs=1e-9)
    assert f1 == pytest.approx(1.0, abs=1e-9)


def test_hand_example_partial_recall():
    cand = np.array([[1.0], [0.0]])
    ref = np.array([[1.0, 0.0], [0.0, 1.0]])
    p, r, f1 = bertscore(cand, ref)
    assert p == pytest.approx(1.0, abs=1e-9)
    assert r == pytest.approx(0.5, abs=1e-9)
    assert f1 == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_orthogonal_singletons_score_zero():
    p, r, f1 = bertscore(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    assert (p, r, f1) == (0.0, 0.0, 0.0)


def test_zero_norm_column_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        bertscore(np.zeros((3, 2)), np.ones((3, 2)))


def test_bertscore_symmetry(rng):
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 6))
    _, _, f_ab = bertscore(a, b)
    _, _, f_ba = bertscore(b, a)
    assert f_ab == pytest.approx(f_ba, abs=1e-12)


def test_bertscore_rejects_bad_shapes():
    with pytest.raises(ValueError):
        bertscore(np.ones((3, 0)), np.ones((3, 1)))
    with pytest.raises(ValueError):
        bertscore(np.ones(3), np.ones((3, 1)))


def test_bertscore_broadcast_matches_per_slice_calls(rng):
    cand = rng.normal(size=(6, 4))
    stack = rng.normal(size=(5, 6, 7))
    p, r, f1 = bertscore(cand, stack)
    assert p.shape == r.shape == f1.shape == (5,)
    for k in range(5):
        assert bertscore(cand, stack[k].copy()) == (p[k], r[k], f1[k])
    # leading axes broadcast on both sides
    cands = rng.normal(size=(3, 1, 6, 2))
    p, r, f1 = bertscore(cands, stack)
    assert f1.shape == (3, 5)
    for a in range(3):
        for k in range(5):
            assert (bertscore(cands[a, 0].copy(), stack[k].copy())
                    == (p[a, k], r[a, k], f1[a, k]))


# ---------------------------------------------------------------------------
# pairwise similarity
# ---------------------------------------------------------------------------

def test_pairwise_symmetric_unit_diagonal():
    embs = [stub_embed(ids) for ids in ([0, 1], [0, 2], [3], [1, 2, 3])]
    m = pairwise_similarity(embs)
    assert m.shape == (4, 4)
    np.testing.assert_array_equal(np.diag(m), np.ones(4))
    np.testing.assert_array_equal(m, m.T)


def test_identical_captions_full_offdiagonal_score():
    m = pairwise_similarity([stub_embed([1, 2]), stub_embed([1, 2])])
    assert m[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_pairwise_matches_per_pair_oracle(rng):
    # C-contiguous (D_t, L) matrices of mixed lengths, as the pipeline
    # passes; the scalar bertscore on each pair is the oracle
    embs = [rng.normal(size=(16, int(rng.integers(1, 6))))
            for _ in range(12)]
    m = pairwise_similarity(embs)
    want = np.eye(12)
    for i in range(12):
        for j in range(i + 1, 12):
            want[i, j] = want[j, i] = bertscore(embs[i], embs[j])[2]
    np.testing.assert_array_equal(m, want)


def test_pairwise_needs_two_captions():
    with pytest.raises(ValueError):
        pairwise_similarity([stub_embed([1])])


# ---------------------------------------------------------------------------
# normalization and thresholding
# ---------------------------------------------------------------------------

def _sym(values):
    """2x2 blocks are too small for three off-diagonal values; build 3x3."""
    m = np.eye(3)
    m[0, 1] = m[1, 0] = values[0]
    m[0, 2] = m[2, 0] = values[1]
    m[1, 2] = m[2, 1] = values[2]
    return m


def test_minmax_hand_example():
    out = normalize_minmax(_sym([0.2, 0.5, 0.8]))
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert out[0, 2] == pytest.approx(0.5, abs=1e-12)
    assert out[1, 2] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(np.diag(out), np.ones(3))


def test_minmax_idempotent():
    once = normalize_minmax(_sym([0.2, 0.5, 0.8]))
    twice = normalize_minmax(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_minmax_preserves_order(rng):
    vals = rng.uniform(size=3)
    raw = _sym(list(vals))
    out = normalize_minmax(raw)
    off = ~np.eye(3, dtype=bool)
    assert np.all(np.argsort(raw[off]) == np.argsort(out[off]))
    assert out[off].min() == 0.0
    assert out[off].max() == 1.0


def test_minmax_degenerate_rejected():
    with pytest.raises(DegenerateSimilarityError):
        normalize_minmax(_sym([0.5, 0.5, 0.5]))


def test_threshold_strictly_greater():
    m = np.array([[1.0, 0.7], [0.7, 1.0]])
    labels = label_similar(m, 0.7)
    assert not labels[0, 1]  # exactly 0.70 is not similar
    m2 = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert label_similar(m2, 0.7)[0, 1]


def test_threshold_diagonal_never_similar():
    m = np.ones((3, 3))
    labels = label_similar(m, 0.0)
    assert not labels.diagonal().any()
    off = ~np.eye(3, dtype=bool)
    assert labels[off].all()


def test_labels_symmetric_for_symmetric_scores(rng):
    vals = rng.uniform(size=3)
    labels = label_similar(normalize_minmax(_sym(list(vals))), 0.5)
    np.testing.assert_array_equal(labels, labels.T)


def test_train_pools_split_training_partners(rng):
    labels = rng.random((7, 7)) > 0.5
    train = np.array([0, 2, 3, 5])
    for i in range(7):
        similar, dissimilar = train_pools(labels, i, train)
        want_sim = [k for k, j in enumerate(train) if j != i and labels[i, j]]
        want_dis = [k for k, j in enumerate(train)
                    if j != i and not labels[i, j]]
        assert similar.tolist() == want_sim
        assert dissimilar.tolist() == want_dis


def test_compute_similarity_matches_per_caption_loop():
    """One frozen-LM call for all captions gives the scores of encoding
    each caption alone, bit for bit."""
    words = "the dog barks at a cat that meows in the yard all night".split()
    rng = np.random.default_rng(0)
    texts = [" ".join(rng.choice(words, size=n))
             for n in (3, 40, 17, 40, 9, 3, 17, 28)]
    tok = TinyTokenizer(texts)
    lm = TinyCausalLm(tok.vocab_size, make_cfg(lm_seed=3))
    items = [DatasetItem(f"i{i}", "train", np.zeros((1, 1)), [t])
             for i, t in enumerate(texts)]
    cfg = make_cfg(similarity_threshold=0.5)
    raw, labels = pipeline.compute_similarity(items, tok, lm, cfg)
    want = pairwise_similarity([lm.features(tok.encode(t)).T.copy()
                                for t in texts])
    assert raw.tobytes() == want.tobytes()
    np.testing.assert_array_equal(
        labels, label_similar(normalize_minmax(want), 0.5))
