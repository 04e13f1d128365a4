import re

import numpy as np
import pytest

from conftest import finite_diff_check, trainable
from ragcap import decoder, pipeline, retrieval
from ragcap.archive import (ArchiveFormatError, ManifestError,
                            write_archive)
from ragcap.autodiff import ShapeError, Tensor
from ragcap.config import PipelineConfig
from ragcap.data import DatasetItem
from ragcap.errors import NumericError, SamplingError, TrainingError
from ragcap.retrieval import (EmbedderParams, RetrievalIndex, build_index,
                              embed_batch, retrieve_topk,
                              select_semi_hard_negative, sq_l2,
                              train_retrieval, triplet_loss)

D_A, T = 4, 5


def make_cfg(**overrides):
    return PipelineConfig(model_d_a=D_A, model_t=T, embed_heads=2, embed_ff=8,
                          **overrides)


def make_params(rng, dropout=0.0):
    return EmbedderParams(make_cfg(embed_dropout=dropout), rng)


def make_items(rng, n_clusters=2, per_cluster=8, noise=0.3):
    """Clustered items with cluster-consistent labels."""
    items, cluster_of = [], []
    centers = rng.normal(size=(n_clusters, D_A, T))
    for c in range(n_clusters):
        for i in range(per_cluster):
            feats = centers[c] + noise * rng.normal(size=(D_A, T))
            split = "valid" if i == per_cluster - 1 else "train"
            items.append(DatasetItem(f"c{c}i{i}", split, feats, ["cap"]))
            cluster_of.append(c)
    n = len(items)
    labels = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            labels[i, j] = i != j and cluster_of[i] == cluster_of[j]
    return items, labels, cluster_of


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def embed(params, phi):
    """Evaluation-mode embedding of one (D_a, T) matrix, as a stack of one."""
    return embed_batch(params, phi[None]).data[0]


def test_embed_unit_norm_and_dim(rng):
    params = make_params(rng)
    e = embed(params, rng.normal(size=(D_A, T)))
    assert e.shape == (D_A * T,)
    assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-9)


def test_embed_scaling_changes_direction(rng):
    params = make_params(rng)
    phi = rng.normal(size=(D_A, T))
    e1 = embed(params, phi)
    e2 = embed(params, 2.0 * phi)
    assert np.linalg.norm(e2) == pytest.approx(1.0, abs=1e-9)
    assert not np.allclose(e1, e2)


def test_embed_batch_matches_single(rng):
    params = make_params(rng)
    phis = rng.normal(size=(3, D_A, T))
    batch = embed_batch(params, phis).data
    for b in range(3):
        assert batch[b].tobytes() == embed(params, phis[b]).tobytes()


def test_embed_shape_validation(rng):
    params = make_params(rng)
    with pytest.raises(ShapeError):
        embed_batch(params, np.ones((D_A, T)))
    with pytest.raises(ShapeError):
        embed_batch(params, np.ones((1, D_A + 1, T)))
    with pytest.raises(ShapeError):
        embed_batch(params, np.ones((2, D_A, T + 1)))


# ---------------------------------------------------------------------------
# distance and loss
# ---------------------------------------------------------------------------

def test_sq_l2_examples():
    assert sq_l2([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert sq_l2([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ShapeError):
        sq_l2([1.0], [1.0, 2.0])


def scalar_sq_l2(a, b):
    """The per-pair definition the row-wise sq_l2 replaces."""
    d = a - b
    return float(d @ d)


@pytest.mark.parametrize("dim", [1, 3, 20, 160])
def test_sq_l2_rows_match_scalar_oracle(rng, dim):
    b = rng.normal(size=(2, 25, dim))
    a = rng.normal(size=dim)
    got = sq_l2(a, b)
    assert got.shape == (2, 25)
    for idx in np.ndindex(2, 25):
        assert got[idx] == scalar_sq_l2(a, b[idx])  # bit for bit
    assert sq_l2(a, b[0, 3]) == scalar_sq_l2(a, b[0, 3])


def test_sq_l2_unit_vector_cosine_identity(rng):
    a = rng.normal(size=6)
    b = rng.normal(size=6)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    assert sq_l2(a, b) == pytest.approx(2.0 - 2.0 * a @ b, abs=1e-12)


def test_triplet_loss_hand_example():
    e_a = np.array([0.0])
    e_p = np.array([np.sqrt(0.2)])   # d_ap = 0.2
    e_n = np.array([-np.sqrt(0.4)])  # d_an = 0.4
    loss = triplet_loss(e_a, e_p, e_n, 0.3)
    assert loss.item() == pytest.approx(0.1, abs=1e-9)


def test_triplet_loss_equal_pos_neg_is_margin(rng):
    e = rng.normal(size=4)
    e_a = rng.normal(size=4)
    assert triplet_loss(e_a, e, e, 0.3).item() == pytest.approx(0.3, abs=1e-12)


def test_triplet_loss_inactive_region_zero_grads():
    e_a = trainable(np.array([0.0]))
    e_p = trainable(np.array([0.1]))
    e_n = trainable(np.array([2.0]))
    loss = triplet_loss(e_a, e_p, e_n, 0.3)
    assert loss.item() == 0.0
    loss.backward()
    for e in (e_a, e_p, e_n):
        np.testing.assert_array_equal(e.grad, np.zeros(1))


def test_triplet_gradcheck_through_embedder(rng):
    params = make_params(rng)
    params.freeze(False)  # parts are built frozen
    phis = rng.normal(size=(3, D_A, T))

    def loss_fn():
        e = embed_batch(params, phis)
        # keep away from the hinge kink by a large margin
        return triplet_loss(e[0:1], e[1:2], e[2:3], 3.0).sum()

    finite_diff_check(loss_fn, [p for _, p in params.named_params()])


# ---------------------------------------------------------------------------
# semi-hard mining
# ---------------------------------------------------------------------------

def select(d_ap, dists, alpha, rng):
    """select_semi_hard_negative over ids 0..n-1 for the given distances."""
    return select_semi_hard_negative(d_ap, np.arange(len(dists)),
                                     np.array(dists, dtype=float), alpha, rng)


def test_semi_hard_hand_example(rng):
    assert select(0.5, [0.4, 0.6, 0.9], 0.3, rng) == (1, 0.6, "none")


def test_semi_hard_interval_is_half_open(rng):
    assert select(0.5, [0.5], 0.3, rng) == (0, 0.5, "none")  # closed low
    assert select(0.5, [0.8], 0.3, rng)[2] != "none"          # open high


def test_fallback_nearest_geq(rng):
    nid, d, fallback = select(0.5, [0.2, 1.5, 2.0], 0.3, rng)
    assert (nid, d, fallback) == (1, 1.5, "nearest_geq")


def test_fallback_nearest_geq_tie_takes_lowest_id(rng):
    ids = np.array([7, 3, 5, 9])
    got = select_semi_hard_negative(0.5, ids, np.array([2.0, 1.5, 0.1, 1.5]),
                                    0.3, rng)
    assert got == (3, 1.5, "nearest_geq")


def test_fallback_farthest(rng):
    nid, d, fallback = select(0.5, [0.1, 0.3], 0.1, rng)
    assert (nid, d, fallback) == (1, 0.3, "farthest")


def test_fallback_farthest_tie_takes_highest_id(rng):
    ids = np.array([7, 3, 9, 5])
    got = select_semi_hard_negative(0.5, ids, np.array([0.3, 0.1, 0.3, 0.3]),
                                    0.1, rng)
    assert got == (9, 0.3, "farthest")


def test_fallbacks_draw_no_random_numbers():
    rng = np.random.default_rng(5)
    select(0.5, [0.2, 1.5], 0.3, rng)  # nearest_geq
    select(0.5, [0.1, 0.3], 0.1, rng)  # farthest
    assert rng.random() == np.random.default_rng(5).random()


def list_oracle(d_ap, negatives, alpha, rng):
    """The per-pair list definition of the selection rule."""
    pool = [(nid, d) for nid, d in negatives if d_ap <= d < d_ap + alpha]
    if pool:
        nid, d = pool[int(rng.integers(0, len(pool)))]
        return nid, d, "none"
    geq = [(d, nid) for nid, d in negatives if d >= d_ap]
    if geq:
        d, nid = min(geq)
        return nid, d, "nearest_geq"
    d, nid = max((d, nid) for nid, d in negatives)
    return nid, d, "farthest"


def test_select_matches_list_oracle(rng):
    kinds = set()
    for seed in range(300):
        n = int(rng.integers(1, 12))
        ids = rng.choice(50, size=n, replace=False)
        dists = np.round(rng.uniform(0.0, 2.0, size=n), 1)  # frequent ties
        d_ap = float(np.round(rng.uniform(0.0, 2.0), 1))
        alpha = float(rng.choice([0.1, 0.3, 1.0]))
        r_got = np.random.default_rng(seed)
        r_want = np.random.default_rng(seed)
        got = select_semi_hard_negative(d_ap, ids, dists, alpha, r_got)
        want = list_oracle(d_ap, list(zip(ids.tolist(), dists.tolist())),
                           alpha, r_want)
        assert got == want
        assert r_got.random() == r_want.random()  # same draws consumed
        kinds.add(got[2])
    assert kinds == {"none", "nearest_geq", "farthest"}


def test_empty_negative_pool_raises(rng):
    with pytest.raises(SamplingError):
        select(0.5, [], 0.3, rng)


def test_semi_hard_uniform_choice_is_seeded():
    dists = [0.5 + 0.01 * i for i in range(10)]
    picks_a = [select(0.5, dists, 0.3, np.random.default_rng(s))[0]
               for s in range(5)]
    picks_b = [select(0.5, dists, 0.3, np.random.default_rng(s))[0]
               for s in range(5)]
    assert picks_a == picks_b
    assert len(set(picks_a)) > 1  # actually random over the pool
    # one integers(0, len(pool)) draw picks the position in the pool
    rng = np.random.default_rng(8)
    nid, _, _ = select(0.5, [0.1] + dists, 0.3, rng)
    assert nid == 1 + int(np.random.default_rng(8).integers(0, 10))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_training_separates_clusters(rng):
    items, labels, cluster_of = make_items(rng)
    cfg = make_cfg(triplet_batch=16, triplet_epochs=30, triplet_lr=3e-3,
                   embed_dropout=0.0)
    result = train_retrieval(items, labels, cfg, seed=0)
    embs = np.stack([embed(result.params, it.features) for it in items])
    intra, inter = [], []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            d = sq_l2(embs[i], embs[j])
            (intra if cluster_of[i] == cluster_of[j] else inter).append(d)
    assert np.mean(intra) < np.mean(inter)


def test_training_loss_decreases(rng):
    items, labels, _ = make_items(rng, noise=2.5)
    cfg = make_cfg(triplet_batch=16, triplet_epochs=10, triplet_lr=3e-3,
                   embed_dropout=0.0)
    result = train_retrieval(items, labels, cfg, seed=0)
    first = result.history[0]["train_loss"]
    last = result.history[-1]["train_loss"]
    assert last < first


def test_training_is_deterministic(rng):
    items, labels, _ = make_items(rng)
    cfg = make_cfg(triplet_batch=16, triplet_epochs=3, triplet_lr=1e-3,
                   embed_dropout=0.3)
    r1 = train_retrieval(items, labels, cfg, seed=4)
    r2 = train_retrieval(items, labels, cfg, seed=4)
    assert r1.history == r2.history
    for (n1, p1), (n2, p2) in zip(r1.params.named_params(),
                                  r2.params.named_params()):
        assert n1 == n2
        assert p1.data.tobytes() == p2.data.tobytes()


def test_logged_negatives_respect_semi_hard_rule(rng):
    items, labels, _ = make_items(rng)
    cfg = make_cfg(triplet_batch=16, triplet_epochs=3, triplet_lr=1e-3,
                   embed_dropout=0.0)
    result = train_retrieval(items, labels, cfg, seed=0)
    assert result.negative_log
    for sel in result.negative_log:
        if sel.fallback == "none":
            assert sel.d_ap <= sel.d_an < sel.d_ap + cfg.triplet_margin


def test_only_training_forwards_record_tape(rng, monkeypatch):
    """Mining, validation and the index embed frozen parameters."""
    items, labels, _ = make_items(rng)
    calls = []
    embed = retrieval.embed_batch

    def recording(params, phis, rng=None, training=False):
        out = embed(params, phis, rng, training)
        calls.append((training, out.requires_grad))
        return out

    monkeypatch.setattr(retrieval, "embed_batch", recording)
    result = train_retrieval(items, labels, make_cfg(
        triplet_batch=8, triplet_epochs=2, triplet_lr=1e-3), seed=0)
    build_index(result.params, items)
    assert {c for c, _ in calls} == {True, False}
    assert all(training == taped for training, taped in calls)


def test_anchor_without_positives_is_skipped(rng):
    items, labels, _ = make_items(rng, per_cluster=4)
    lab = labels.copy()
    lab[0, :] = False  # item 0 has no similar partners
    lab[:, 0] = False
    result = train_retrieval(items, lab,
                             make_cfg(triplet_batch=8, triplet_epochs=2,
                                      triplet_lr=1e-3, embed_dropout=0.0),
                             seed=0)
    assert result.skipped_anchors >= 2  # once per epoch


def test_all_anchors_skipped_raises(rng):
    items, labels, _ = make_items(rng, per_cluster=3)
    empty = np.zeros_like(labels)
    with pytest.raises(TrainingError):
        train_retrieval(items, empty,
                        make_cfg(triplet_batch=8, triplet_epochs=1), seed=0)


def test_nonfinite_triplet_loss_raises(rng):
    """A NaN learning rate makes every weight NaN after the first step; the
    next step's loss is NaN and training stops there. The config rejects a
    NaN rate, so it is set after the config is built."""
    items, labels, _ = make_items(rng)
    cfg = make_cfg(triplet_batch=4, triplet_epochs=2, embed_dropout=0.0)
    cfg.triplet_lr = float("nan")
    with pytest.raises(NumericError,
                       match="non-finite triplet loss at epoch 0"):
        train_retrieval(items, labels, cfg, seed=0)


def test_label_matrix_size_mismatch(rng):
    items, labels, _ = make_items(rng, per_cluster=3)
    small = labels[:-1, :-1]
    with pytest.raises(ShapeError):
        train_retrieval(items, small, make_cfg(), seed=0)


# ---------------------------------------------------------------------------
# index and top-K
# ---------------------------------------------------------------------------

def test_index_size_norms_and_reembedding(rng):
    items, _, _ = make_items(rng, per_cluster=4)
    params = make_params(rng)
    index = build_index(params, items)
    train_items = [it for it in items if it.split == "train"]
    assert len(index.ids) == len(train_items)
    np.testing.assert_allclose(np.linalg.norm(index.embeddings, axis=1), 1.0,
                               atol=1e-9)
    for row, it in zip(index.embeddings, train_items):
        assert row.tobytes() == embed(params, it.features).tobytes()


def test_index_roundtrip(tmp_path, rng):
    items, _, _ = make_items(rng, per_cluster=4)
    index = build_index(make_params(rng), items)
    path = str(tmp_path / "index.ract")
    pipeline.save_index(path, index)
    back = pipeline.load_index(make_cfg(), path)
    assert back.ids == index.ids
    assert back.captions == index.captions
    assert back.embeddings.tobytes() == index.embeddings.tobytes()


@pytest.mark.parametrize("ids, captions", [
    (["a", "b", "c", "extra"], [["x"], ["y"], ["z"], ["w"]]),
    (["a", "b"], [["x"], ["y"]]),
    (["a", "b", "c"], [["x"], ["y"]]),
])
def test_index_load_checks_metadata_against_rows(tmp_path, ids, captions):
    path = str(tmp_path / "index.ract")
    write_archive(path, {"embeddings": np.eye(3, D_A * T)},
                  {"ids": ids, "captions": captions})
    with pytest.raises(ArchiveFormatError, match=re.escape(
            f"{path}: {len(ids)} ids, {len(captions)} captions for 3 "
            "embedding rows; rerun train-retrieval")):
        pipeline.load_index(make_cfg(), path)


def test_topk_exact_query_and_full_size(rng):
    items, _, _ = make_items(rng, per_cluster=4)
    params = make_params(rng)
    index = build_index(params, items)
    query = index.embeddings[2]
    [top] = retrieve_topk(index, query[None], k=1, excludes=[None])
    assert top[0][0] == index.ids[2]
    assert top[0][1] == pytest.approx(0.0, abs=1e-15)
    [everything] = retrieve_topk(index, query[None], k=len(index.ids),
                                 excludes=[None])
    dists = [d for _, d, _ in everything]
    assert dists == sorted(dists)


def test_topk_matches_bruteforce_oracle(rng):
    n = 50
    embs = rng.normal(size=(n, 6))
    embs /= np.linalg.norm(embs, axis=1, keepdims=True)
    index = RetrievalIndex([f"i{k:02d}" for k in range(n)], embs,
                           [[f"cap{k}"] for k in range(n)])
    for _ in range(20):
        q = rng.normal(size=6)
        [got] = retrieve_topk(index, q[None], k=5, excludes=[None])
        ranked = sorted(range(n), key=lambda i: (scalar_sq_l2(embs[i], q),
                                                 index.ids[i]))
        assert got == [(index.ids[i], scalar_sq_l2(embs[i], q), f"cap{i}")
                       for i in ranked[:5]]


def test_topk_exclusion_and_bounds(rng):
    items, _, _ = make_items(rng, per_cluster=4)
    index = build_index(make_params(rng), items)
    query = index.embeddings[0]
    [top] = retrieve_topk(index, query[None], k=len(index.ids) - 1,
                          excludes=[index.ids[0]])
    assert index.ids[0] not in [t[0] for t in top]
    with pytest.raises(ValueError):
        retrieve_topk(index, query[None], k=len(index.ids) + 1,
                      excludes=[None])
    with pytest.raises(ValueError):
        retrieve_topk(index, query[None], k=0, excludes=[None])


def test_topk_insertion_order_invariant(rng):
    n = 10
    embs = rng.normal(size=(n, 4))
    ids = [f"i{k}" for k in range(n)]
    caps = [[f"c{k}"] for k in range(n)]
    fwd = RetrievalIndex(ids, embs, caps)
    perm = list(reversed(range(n)))
    rev = RetrievalIndex([ids[i] for i in perm], embs[perm],
                         [caps[i] for i in perm])
    q = rng.normal(size=4)
    assert (retrieve_topk(fwd, q[None], k=4, excludes=[None])
            == retrieve_topk(rev, q[None], k=4, excludes=[None]))


@pytest.mark.parametrize("exclude", [None, "i03", "absent"])
def test_topk_ties_and_exclusion_match_bruteforce(rng, exclude):
    half = rng.normal(size=(6, 5))
    embs = np.vstack([half, half])  # rows k and k + 6 tie for every query
    ids = [f"i{k:02d}" for k in rng.permutation(12)]  # id order != row order
    index = RetrievalIndex(ids, embs, [[f"cap {i}"] for i in ids])
    for q in [*half[:3], *rng.normal(size=(3, 5))]:
        [got] = retrieve_topk(index, q[None], k=11 if exclude == "i03" else 12,
                              excludes=[exclude])
        ranked = sorted((i for i in range(12) if ids[i] != exclude),
                        key=lambda i: (scalar_sq_l2(embs[i], q), ids[i]))
        assert got == [(ids[i], scalar_sq_l2(embs[i], q), f"cap {ids[i]}")
                       for i in ranked]


# ---------------------------------------------------------------------------
# guidance for many items at once
# ---------------------------------------------------------------------------

def tied_index(params, items):
    """The index of the train items with every row stored twice, first under
    the id + "x" and then under the id, so each query meets distance ties
    that only the id breaks."""
    index = build_index(params, items)
    ids = [i + "x" for i in index.ids] + index.ids
    return RetrievalIndex(ids, np.vstack([index.embeddings] * 2),
                          [[f"cap {i}"] for i in ids])


def test_batched_guidance_equals_single_item_calls(rng):
    items, _, _ = make_items(rng, per_cluster=4)
    params = make_params(rng)
    index = tied_index(params, items)
    phis = np.stack([it.features for it in items])
    # own id (present), None, and ids absent from the index, in turn
    excludes = [[it.id, None, "absent", it.id + "y"][n % 4]
                for n, it in enumerate(items)]
    batched = pipeline.retrieved_guidance(params, index, phis, 3, excludes)
    assert len(batched) == len(items)
    for phi, x, got in zip(phis, excludes, batched):
        assert got == pipeline.retrieved_guidance(params, index, phi[None], 3,
                                                  [x])[0]
    rows = embed_batch(params, phis).data
    for row, phi in zip(rows, phis):
        assert row.tobytes() == embed(params, phi).tobytes()
    # a train item's own two rows are nearest, tied at distance 0, and the
    # exclusion drops only the exact id
    first = items[0]
    assert first.split == "train" and excludes[0] == first.id
    assert batched[0][0] == f"cap {first.id}x"
    assert batched[1][:2] == [f"cap {items[1].id}", f"cap {items[1].id}x"]


def test_query_batch_rows_equal_single_queries_and_bruteforce(rng):
    items, _, _ = make_items(rng, per_cluster=4)
    params = make_params(rng)
    index = tied_index(params, items)
    queries = embed_batch(params, np.stack([it.features
                                            for it in items])).data
    # own id (present), None, and ids absent from the index, in turn
    excludes = [[it.id, None, "absent", it.id + "y"][n % 4]
                for n, it in enumerate(items)]
    k = len(index.ids) - 1
    batched = retrieve_topk(index, queries, k, excludes)
    assert len(batched) == len(items)
    for q, x, got in zip(queries, excludes, batched):
        assert got == retrieve_topk(index, q[None], k, [x])[0]
        ranked = sorted((i for i in range(len(index.ids))
                         if index.ids[i] != x),
                        key=lambda i: (scalar_sq_l2(index.embeddings[i], q),
                                       index.ids[i]))
        assert got == [(index.ids[i], scalar_sq_l2(index.embeddings[i], q),
                        index.captions[i][0]) for i in ranked[:k]]


def test_query_batch_k_bound_counts_each_querys_exclusion(rng):
    embs = rng.normal(size=(5, 3))
    ids = [f"i{k}" for k in range(5)]
    index = RetrievalIndex(ids, embs, [[f"c{k}"] for k in range(5)])
    queries = rng.normal(size=(3, 3))
    hits = retrieve_topk(index, queries, 5, [None, "absent", None])
    assert [len(h) for h in hits] == [5] * 3
    # the second query's own row leaves it 4 usable rows
    with pytest.raises(ValueError, match="k=5 out of range for index of "
                                         "4 usable items"):
        retrieve_topk(index, queries, 5, [None, "i2", None])
    hits = retrieve_topk(index, queries, 4, [None, "i2", None])
    assert [len(h) for h in hits] == [4] * 3


def sorted_oracle(scores, items, query_pos, k):
    """Oracle guidance for one item by one sort, as it was computed before
    every query was ranked in one rank_topk call."""
    train_pos = [i for i, it in enumerate(items)
                 if it.split == "train" and i != query_pos]
    ranked = sorted(train_pos,
                    key=lambda i: (-scores[query_pos, i], items[i].id))
    return [items[i].caption for i in ranked[:k]]


def test_oracle_guidance_matches_per_item_sort(rng):
    n, n_train = 15, 8
    splits = rng.permutation(["train"] * n_train + ["valid"] * 3
                             + ["test"] * 4)
    ids = [f"i{j:02d}" for j in rng.permutation(n)]  # id order != position
    items = [DatasetItem(i, str(sp), np.zeros((D_A, T)), [f"cap {i}"])
             for i, sp in zip(ids, splits)]
    train_ids = [it.id for it in items if it.split == "train"]
    others = [i for i in ids if i not in train_ids]
    for _ in range(5):
        # scores drawn from three levels, so most rankings meet ties
        scores = rng.integers(0, 3, size=(n, n)) / 2.0
        queries = [str(q) for q in rng.permutation(ids)]
        # a train query skips itself, leaving n_train - 1 usable items
        for k in range(1, n_train):
            assert pipeline.oracle_guidance(scores, items, queries, k) == [
                sorted_oracle(scores, items, ids.index(q), k)
                for q in queries]
        assert pipeline.oracle_guidance(scores, items, others, n_train) == [
            sorted_oracle(scores, items, ids.index(q), n_train)
            for q in others]
    # k out of range raises what retrieve_topk raises for the same queries
    index = RetrievalIndex(train_ids, rng.normal(size=(n_train, 3)),
                           [[f"cap {i}"] for i in train_ids])
    for queries, k, usable in ((ids, n_train, n_train - 1),
                               (others, n_train + 1, n_train),
                               (train_ids, 0, n_train - 1)):
        with pytest.raises(ValueError) as want:
            retrieve_topk(index, rng.normal(size=(len(queries), 3)), k,
                          queries)
        with pytest.raises(ValueError) as got:
            pipeline.oracle_guidance(scores, items, queries, k)
        assert str(got.value) == str(want.value) == (
            f"k={k} out of range for index of {usable} usable items")
    with pytest.raises(ManifestError, match="unknown query id 'absent'"):
        pipeline.oracle_guidance(scores, items, [ids[0], "absent"], 1)


@pytest.mark.parametrize("scope", ["i", "ii"])
def test_evaluate_scope_one_embed_batch_call(rng, monkeypatch, scope):
    items, _, _ = make_items(rng, per_cluster=4)
    params = make_params(rng)
    index = build_index(params, items)
    batches = []
    real = retrieval.embed_batch

    def recording(p, phis, *args, **kwargs):
        batches.append(len(phis))
        return real(p, phis, *args, **kwargs)

    def fake_generate(lm, tokenizer, dec_params, phis, guidance, beam,
                      max_len):
        assert len(phis) == len(guidance) == len(items)
        return [g[0] for g in guidance]

    monkeypatch.setattr(retrieval, "embed_batch", recording)
    monkeypatch.setattr(decoder, "generate_captions", fake_generate)
    pipeline.evaluate_scope(scope, make_cfg(retrieval_k=2), items, "all",
                            params, index, None, None, None, None)
    assert batches == [len(items)]
