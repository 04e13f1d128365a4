import math

import numpy as np
import pytest

from conftest import (encoded, exhaustive, full_forward_step, fusion_logits,
                      make_cfg, random_head, trainable)
from ragcap import decoder, layers
from ragcap.autodiff import Tensor
from ragcap.data import DatasetItem
from ragcap.decoder import (DecoderParams, beam_search, fusion_step,
                            generate_captions, guidance_ids, pad_ids,
                            posterior, position_logits,
                            smoothed_cross_entropy, train_decoder)
from ragcap.errors import NumericError
from ragcap.reference_models import (BOS, EOS, PAD, SEP, TinyCausalLm,
                                     TinyTokenizer)
from ragcap.similarity import training_pools

D_A, T = 3, 4


@pytest.fixture(scope="module")
def lm():
    return TinyCausalLm(12, make_cfg(model_d_l=16, lm_seed=3))


def make_dec(lm, rng, d_r=6, drop=0.0):
    return DecoderParams(make_cfg(model_d_a=D_A, model_d_l=lm.d_model,
                                  decoder_d_r=d_r, decoder_heads=2,
                                  decoder_dropout=drop), lm, rng)


# ---------------------------------------------------------------------------
# guidance
# ---------------------------------------------------------------------------

def test_guidance_sep_joined():
    assert guidance_ids([[5, 6], [7], [8, 9]]) == [5, 6, SEP, 7, SEP, 8, 9]


def test_guidance_single_caption_no_sep():
    assert guidance_ids([[5, 6]]) == [5, 6]


def test_guidance_rejects_empty():
    with pytest.raises(ValueError):
        guidance_ids([])
    with pytest.raises(ValueError):
        guidance_ids([[5], []])


def test_pad_ids_right_pads():
    np.testing.assert_array_equal(pad_ids([[5, 6], [7], [8, 9, 10]]),
                                  [[5, 6, PAD], [7, PAD, PAD], [8, 9, 10]])


def test_guidance_features_width(lm):
    feats = lm.features(np.array(guidance_ids([[5, 6], [7]])))
    assert feats.shape == (4, lm.d_model)


# ---------------------------------------------------------------------------
# fusion blocks
# ---------------------------------------------------------------------------

def test_fuse_shape(lm, rng):
    params = make_dec(lm, rng)
    out = params.fuse_mha(rng.normal(size=(2, 5, lm.d_model)),
                          rng.normal(size=(2, 7, lm.d_model)))
    assert out.shape == (2, 5, lm.d_model)


def test_fuse_single_key_gives_equal_columns(lm, rng):
    params = make_dec(lm, rng)
    out = params.fuse_mha(rng.normal(size=(4, lm.d_model)),
                          rng.normal(size=(1, lm.d_model))).data
    for row in range(1, 4):
        np.testing.assert_allclose(out[row], out[0], atol=1e-12)


def test_fuse_query_columns_independent(lm, rng):
    params = make_dec(lm, rng)
    hyps = rng.normal(size=(3, lm.d_model))
    refs = rng.normal(size=(4, lm.d_model))
    base = params.fuse_mha(hyps, refs).data
    mutated = hyps.copy()
    mutated[2] += 5.0
    out = params.fuse_mha(mutated, refs).data
    np.testing.assert_allclose(out[:2], base[:2], atol=1e-12)
    assert not np.allclose(out[2], base[2])


def test_fuse_audio_shape_and_t1(lm, rng):
    params = make_dec(lm, rng)
    prefix = [[BOS, 5, 6, 7, 8], [BOS, 9, PAD, PAD, PAD]]
    for t in (T, 1):
        out = fusion_logits(lm, params, rng.normal(size=(2, D_A, t)),
                            [[5, 6], [7, PAD]], prefix)
        assert out.shape == (2, 5, lm.vocab_size)


def test_fuse_audio_gradients_reach_all_blocks(lm, rng):
    params = make_dec(lm, rng)
    params.freeze(False)  # parts are built frozen
    psi = trainable(rng.normal(size=(2, 3, lm.d_model)))
    guidance = [[5, 6], [7, PAD]]
    out = position_logits(params, rng.normal(size=(2, D_A, T)), guidance,
                          encoded(lm, guidance), [[BOS, 5, 6], [BOS, 7, PAD]],
                          psi)
    out.sum().backward()
    for name, p in params.named_params():
        assert p.grad is not None and np.any(p.grad != 0.0), name
    assert psi.grad is not None and np.any(psi.grad != 0.0)


def test_fusion_rejects_bad_shapes(lm, rng):
    params = make_dec(lm, rng)
    g, prefix = [5, 6], [BOS, 5, 6]
    with pytest.raises(Exception):
        position_logits(params, rng.normal(size=(D_A, T)), g, encoded(lm, g),
                        prefix, rng.normal(size=(3, lm.d_model + 1)))
    with pytest.raises(Exception):
        fusion_logits(lm, params, rng.normal(size=(D_A + 1, T)), g, prefix)


# ---------------------------------------------------------------------------
# posterior and the batched path
# ---------------------------------------------------------------------------

def test_posterior_is_distribution(lm, rng):
    params = make_dec(lm, rng)
    phi = rng.normal(size=(D_A, T))
    p = posterior(lm, params, phi, [5, 6], [[BOS, 7, 8]],
                  encoded(lm, [5, 6]))
    assert p.shape == (1, lm.vocab_size)
    assert np.all(p >= 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_posterior_is_softmax_of_last_position_row(lm, rng):
    params = make_dec(lm, rng)
    phi = rng.normal(size=(D_A, T))
    g = guidance_ids([[5, 6], [7]])
    prefixes = [[BOS, 7, 8, 9], [BOS, 5, 5, 10], [BOS, 11, PAD, 4]]
    got = posterior(lm, params, phi, g, prefixes, encoded(lm, g))
    for b, prefix in enumerate(prefixes):
        want = fusion_logits(lm, params, phi, g, prefix)[-1].softmax().data
        np.testing.assert_allclose(got[b], want, rtol=0, atol=1e-12)


def test_mixed_length_batch_matches_single_items(lm, rng):
    params = make_dec(lm, rng)
    prefixes = [[BOS, 5, 6, 7, 8], [BOS, 9], [BOS, 10, 11, 5]]
    guidance = [guidance_ids([[5, 6], [7]]), [8], guidance_ids([[9, 10, 11]])]
    phis = rng.normal(size=(3, D_A, T))
    batched = fusion_logits(lm, params, phis, pad_ids(guidance),
                            pad_ids(prefixes)).data
    for b in range(3):
        single = fusion_logits(lm, params, phis[b], guidance[b],
                               prefixes[b]).data
        n = len(prefixes[b])
        np.testing.assert_allclose(batched[b, :n], single, rtol=0,
                                   atol=1e-12)


def test_padded_guidance_keys_change_nothing(lm, rng):
    params = make_dec(lm, rng)
    phi = rng.normal(size=(D_A, T))
    prefix, psi = [BOS, 7, 8], encoded(lm, [BOS, 7, 8])
    g = [5, 6, SEP, 7]
    base = position_logits(params, phi, g, encoded(lm, g), prefix, psi).data
    # the masked keys carry features too: those of the PAD-padded row
    padded_g = g + [PAD, PAD]
    padded = position_logits(params, phi, padded_g, encoded(lm, padded_g),
                             prefix, psi).data
    np.testing.assert_allclose(padded, base, rtol=0, atol=1e-12)


def test_dropout_masks_do_not_depend_on_padding(lm, rng):
    params = make_dec(lm, rng, drop=0.3)
    prefixes = [[BOS, 5, 6, 7], [BOS, 8]]
    phi = rng.normal(size=(D_A, T))
    short = layers.dropout_keep(pad_ids(prefixes) != PAD, (4, 2), 0.3,
                                np.random.default_rng(9))
    long = layers.dropout_keep(
        pad_ids([p + [PAD] * 3 for p in prefixes]) != PAD, (4, 2), 0.3,
        np.random.default_rng(9))
    for s, lg in zip(short, long):
        np.testing.assert_array_equal(lg[:, :4], s)
        assert not np.any(lg[:, 4:]) and not np.any(s[1, 2:])
    # the same draws reach the logits of an item's real rows
    out = [fusion_logits(lm, params, phi, [5, 6],
                         [BOS, 5, 6, 7] + [PAD] * pad,
                         np.random.default_rng(9), training=True).data
           for pad in (0, 3)]
    np.testing.assert_allclose(out[1][:4], out[0], rtol=0, atol=1e-12)


def test_position_logits_are_causal(lm, rng):
    params = make_dec(lm, rng)
    phi = rng.normal(size=(D_A, T))
    g = [5, 6]
    a = fusion_logits(lm, params, phi, g, [BOS, 7, 8, 9]).data
    b = fusion_logits(lm, params, phi, g, [BOS, 7, 8, 10]).data
    np.testing.assert_allclose(a[:3], b[:3], atol=1e-12)
    assert not np.allclose(a[3], b[3])


def test_prefix_must_start_with_bos(lm, rng):
    params = make_dec(lm, rng)
    phi = np.zeros((D_A, T))
    g = [5]
    psi = encoded(lm, g)
    # the check comes first: the prefix features are never read
    with pytest.raises(ValueError, match="BOS"):
        position_logits(params, phi, g, psi, [7, 8], None)
    with pytest.raises(ValueError, match="BOS"):
        position_logits(params, phi, g, psi, [], None)
    with pytest.raises(ValueError, match="BOS"):
        position_logits(params, phi, g, psi, [[BOS, 7], [7, 8]], None)


def test_zero_head_gives_uniform_posterior(lm, rng):
    params = make_dec(lm, rng)
    params.lmhead.W.data[:] = 0.0
    params.lmhead.b.data[:] = 0.0
    p = posterior(lm, params, rng.normal(size=(D_A, T)), [5], [[BOS, 6]],
                  encoded(lm, [5]))
    np.testing.assert_allclose(p, np.full((1, lm.vocab_size),
                                          1 / lm.vocab_size), atol=1e-12)


def test_head_init_copies_frozen_lm_head(lm, rng):
    params = make_dec(lm, rng)
    np.testing.assert_array_equal(params.lmhead.W.data, lm.head_matrix())
    np.testing.assert_array_equal(params.lmhead.b.data,
                                  np.zeros(lm.vocab_size))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_smoothed_ce_lambda_zero_is_standard_ce(rng):
    logits = Tensor(rng.normal(size=(3, 5)))
    targets = [1, 4, 3]  # target 0 is PAD, a padded position
    got = smoothed_cross_entropy(logits, targets, 0.0).item()
    logp = logits.log_softmax().data
    want = -np.mean(logp[np.arange(3), targets])
    assert got == pytest.approx(want, abs=1e-12)


def test_smoothed_ce_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((4, 7)))
    for lam in (0.0, 0.1, 0.5):
        got = smoothed_cross_entropy(logits, [0, 1, 2, 3], lam).item()
        assert got == pytest.approx(math.log(7), abs=1e-12)


def test_smoothed_ce_penalizes_overconfidence():
    confident = Tensor(np.array([[-30.0, 30.0]]))
    assert smoothed_cross_entropy(confident, [1], 0.1).item() > \
        smoothed_cross_entropy(confident, [1], 0.0).item()


def test_smoothed_ce_is_mean_of_item_means(rng):
    logits = Tensor(rng.normal(size=(2, 4, 6)))
    targets = np.array([[1, 2, 3, 4], [5, 2, PAD, PAD]])
    got = smoothed_cross_entropy(logits, targets, 0.1).item()
    want = np.mean([
        smoothed_cross_entropy(logits[0], targets[0], 0.1).item(),
        smoothed_cross_entropy(logits[1][:2], targets[1][:2], 0.1).item()])
    assert got == pytest.approx(want, abs=1e-12)


def test_smoothed_ce_target_count_checked(rng):
    with pytest.raises(Exception):
        smoothed_cross_entropy(Tensor(rng.normal(size=(3, 5))), [1, 2], 0.1)


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------

def decode(lm, params, phis, guidances, beam, max_len, min_len):
    """The fusion decoder's beam search, as generate_captions runs it."""
    return beam_search(fusion_step(lm, params, phis, guidances),
                       len(guidances), beam, max_len, min_len)


def counting(step, calls):
    """step, appending the row count of each of its calls to calls."""
    def counted(owner, prefixes):
        calls.append(len(prefixes))
        return step(owner, prefixes)
    return counted


def table_step(seeds, weights, vocab):
    """A beam step that reads item i's row for a prefix from a fixed table
    keyed by (seeds[i], prefix): the logs of seeded draws from weights over
    their sum. Repeated weights tie tokens within a row, and equal sums of
    rows tie cumulative scores across beams."""
    weights = np.asarray(weights, dtype=float)

    def step(owner, prefixes):
        w = np.array([weights[np.random.default_rng([seeds[i], *prefix])
                              .integers(0, len(weights), size=vocab)]
                      for i, prefix in zip(owner, prefixes)])
        return np.log(w / w.sum(axis=1, keepdims=True))
    return step


def test_beam_matches_exhaustive_small_instances(monkeypatch):
    lm = TinyCausalLm(6, make_cfg(model_d_l=8, lm_seed=9))
    monkeypatch.setattr(layers, "INIT_STD", 0.5)
    g = [5]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        params = make_dec(lm, rng, d_r=4)
        random_head(params, rng)
        phi = rng.normal(size=(D_A, T))
        min_len = 1 + seed % 2
        assert decode(lm, params, [phi], [g], beam=36, max_len=3,
                      min_len=min_len) == \
            [exhaustive(full_forward_step(lm, params, phi, g),
                        lm.vocab_size, max_len=3, min_len=min_len)]


def test_beam_one_equals_greedy(lm, rng):
    params = make_dec(lm, rng)
    phi = rng.normal(size=(D_A, T))
    g = [5, 6]
    toks = []
    for _ in range(5):
        p = posterior(lm, params, phi, g, [[BOS] + toks], encoded(lm, g))[0]
        if len(toks) < 2:  # the minimum length
            p[EOS] = 0.0
        nxt = int(np.argmax(p))
        toks.append(nxt)
        if nxt == EOS:
            break
    assert decode(lm, params, [phi], [g], beam=1, max_len=5,
                  min_len=2) == [toks]


def test_beam_search_encodes_guidance_once(lm, rng, monkeypatch):
    params = make_dec(lm, rng)
    g = guidance_ids([[5, 6], [7]])
    encoded = []
    features = lm.features

    def recording(ids):
        encoded.append([np.asarray(row).tolist() for row in ids])
        return features(ids)

    monkeypatch.setattr(lm, "features", recording)
    step = fusion_step(lm, params, [rng.normal(size=(D_A, T))], [g])
    assert encoded == [[g]]
    beam_search(step, 1, beam=3, max_len=6, min_len=1)
    assert len(encoded) > 2
    assert encoded.count([g]) == 1


def test_beam_is_deterministic(lm, rng):
    params = make_dec(lm, rng)
    phi = rng.normal(size=(D_A, T))
    g = guidance_ids([[5, 6], [7]])
    assert decode(lm, params, [phi], [g], beam=3, max_len=6, min_len=2) == \
        decode(lm, params, [phi], [g], beam=3, max_len=6, min_len=2)


def test_beam_respects_max_len(lm, rng):
    params = make_dec(lm, rng)
    [out] = decode(lm, params, [rng.normal(size=(D_A, T))], [[5]], beam=2,
                   max_len=4, min_len=1)
    assert 1 <= len(out) <= 4


def test_fusion_step_rows_are_log_posteriors_of_their_items(lm, rng):
    params = make_dec(lm, rng)
    guidances = [guidance_ids([[5, 6], [7]]), [8], [9, 10]]
    phis = rng.normal(size=(3, D_A, T))
    owner = [2, 0, 2, 1]
    prefixes = [(BOS, 5, 6), (BOS, 7, 7), (BOS, 9, 5), (BOS, 6, 8)]
    rows = fusion_step(lm, params, phis, guidances)(owner, prefixes)
    assert rows.shape == (len(owner), lm.vocab_size)
    for row, i, prefix in zip(rows, owner, prefixes):
        p = posterior(lm, params, phis[i], guidances[i], [prefix],
                      encoded(lm, guidances[i]))[0]
        np.testing.assert_allclose(row, np.log(p), rtol=0, atol=1e-12)


def full_length_beam(step, beam, max_len, min_len):
    """Item 0's beam search under step without the early stop: it runs all
    max_len steps, extends every beam by every token (by EOS once it holds
    min_len tokens) and force-finishes the live beams."""
    live, finished = [((), 0.0)], []
    for _ in range(max_len):
        rows = step([0] * len(live), [(BOS,) + toks for toks, _ in live])
        next_live = []
        for (toks, lp), row in zip(live, rows):
            for v in range(len(row)):
                if v != EOS:
                    next_live.append((toks + (v,), lp + row[v]))
                elif len(toks) >= min_len:
                    finished.append((toks + (v,), lp + row[v]))
        next_live.sort(key=lambda e: (-e[1], e[0]))
        live = next_live[:beam]
    best = max(finished + live, key=lambda e: (e[1] / len(e[0]),
                                               tuple(-t for t in e[0])))
    return list(best[0])


def random_decoder(seed):
    lm = TinyCausalLm(8, make_cfg(model_d_l=8, lm_seed=seed))
    rng = np.random.default_rng([23, seed])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "INIT_STD", 0.5)
        params = make_dec(lm, rng, d_r=4)
        random_head(params, rng)
    # EOS at varied odds, so searches end at varied lengths
    params.lmhead.b.data[EOS] += rng.uniform(-1.0, 2.0)
    return lm, params, rng


def test_lockstep_beam_equals_single_item_searches():
    for seed in range(4):
        lm, params, rng = random_decoder(seed)
        guidances = [guidance_ids([[5, 6], [7]]), [6],
                     guidance_ids([[7, 5, 5], [6]]), [5, 7]]
        phis = rng.normal(size=(len(guidances), D_A, T))
        together = decode(lm, params, phis, guidances, beam=3, max_len=8,
                          min_len=2)
        assert together == [
            decode(lm, params, [phi], [g], beam=3, max_len=8, min_len=2)[0]
            for phi, g in zip(phis, guidances)]


def early_stops_match_full_length(min_len):
    """How many of 40 random small searches stop early, asserting that each
    returns what the full-length search returns."""
    stopped = 0
    for seed in range(40):
        lm, params, rng = random_decoder(seed)
        phi = rng.normal(size=(D_A, T))
        g = [int(t) for t in rng.integers(5, 8, size=3)]
        step, calls = fusion_step(lm, params, [phi], [g]), []
        assert beam_search(counting(step, calls), 1, beam=2, max_len=8,
                           min_len=min_len) == \
            [full_length_beam(step, beam=2, max_len=8, min_len=min_len)]
        stopped += len(calls) < 8
    return stopped


def test_beam_early_stop_matches_full_length_search():
    assert early_stops_match_full_length(min_len=1) > 0


def test_beam_early_stop_matches_full_length_search_above_min_len():
    assert early_stops_match_full_length(min_len=3) > 0


def test_beam_outputs_hold_at_least_min_len_tokens():
    """Under a strong EOS bias a search without a minimum length often
    returns a bare EOS; with one, no output ends before min_len tokens."""
    bare = 0
    for seed in range(6):
        lm, params, rng = random_decoder(seed)
        params.lmhead.b.data[EOS] += 4.0
        phis = rng.normal(size=(3, D_A, T))
        guidances = [[5, 6], [7], guidance_ids([[6], [5, 7]])]
        bare += decode(lm, params, phis, guidances, beam=3, max_len=6,
                       min_len=0).count([EOS])
        for min_len in (1, 3, 5):
            for out in decode(lm, params, phis, guidances, beam=3, max_len=6,
                              min_len=min_len):
                assert len(out) - (out[-1] == EOS) >= min_len
    assert bare > 0


def test_beam_step_matches_full_expansion_on_tied_scores():
    """Each beam offers only its own best extensions; on rows full of tied
    scores the search still keeps what expanding every token keeps."""
    for seed in range(20):
        step = table_step([seed], (1, 2, 3), vocab=8)
        for beam in (1, 2, 3, 9):
            assert beam_search(step, 1, beam, max_len=6, min_len=2) == \
                [full_length_beam(step, beam, max_len=6, min_len=2)]


def test_beam_matches_exhaustive_search_on_toy_tables():
    """Vocab 4, max_len 4, rows with ties and one token often far ahead, so
    searches stop early. At beams 1, 2 and 5 the search keeps what full
    expansion without the early stop keeps; a beam that holds all 27 live
    prefixes finds the exhaustive best; three items in lockstep get what
    each gets alone."""
    weights, stopped = (1, 1, 2, 40), 0
    for seed in range(200):
        step, m = table_step([seed], weights, vocab=4), 1 + seed % 2
        for beam in (1, 2, 5):
            calls = []
            assert beam_search(counting(step, calls), 1, beam, max_len=4,
                               min_len=m) == \
                [full_length_beam(step, beam, max_len=4, min_len=m)]
            stopped += len(calls) < 4
        assert beam_search(step, 1, beam=27, max_len=4, min_len=m) == \
            [exhaustive(step, vocab=4, max_len=4, min_len=m)]
        seeds = [seed, seed + 200, seed + 400]
        assert beam_search(table_step(seeds, weights, 4), 3, beam=2,
                           max_len=4, min_len=m) == \
            [beam_search(table_step([s], weights, 4), 1, beam=2,
                         max_len=4, min_len=m)[0] for s in seeds]
    assert stopped > 0


def test_beam_search_one_features_call_per_step(lm, rng, monkeypatch):
    params = make_dec(lm, rng)
    guidances = [guidance_ids([[5, 6], [7]]), [8], [9, 10]]
    encoded = []
    features = lm.features

    def recording(ids):
        encoded.append([np.asarray(row).tolist() for row in ids])
        return features(ids)

    monkeypatch.setattr(lm, "features", recording)
    calls = []
    step = fusion_step(lm, params, rng.normal(size=(3, D_A, T)), guidances)
    beam_search(counting(step, calls), 3, beam=3, max_len=6, min_len=1)
    assert encoded[0] == guidances  # all guidances in one call, unpadded
    assert calls and len(encoded) == 1 + len(calls)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

TEXTS = ["a dog barks", "a dog howls", "a cat purrs", "a cat meows",
         "a dog growls", "a cat hisses"]
# captions of 3 to 6 words, so batches pad prefixes and guidance
MIXED_TEXTS = ["a dog barks", "a dog howls loudly", "a cat purrs",
               "the cat meows at night", "a dog growls", "a cat hisses",
               "the dog barks at the cat"]


def make_training_setup(texts=TEXTS):
    tok = TinyTokenizer(texts)
    lm = TinyCausalLm(tok.vocab_size, make_cfg(model_d_l=16, lm_seed=3))
    lm.pretrain([tok.encode(t) for t in texts], epochs=5)
    rng = np.random.default_rng(0)
    items = []
    for i, t in enumerate(texts):
        split = "valid" if i >= 5 else "train"
        items.append(DatasetItem(f"i{i}", split,
                                 rng.normal(size=(D_A, T)), [t]))
    n = len(texts)
    lab = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            lab[i, j] = i != j and texts[i].split()[1] == texts[j].split()[1]
    return lm, tok, items, lab


def test_train_decoder_runs_and_freezes_lm():
    lm, tok, items, labels = make_training_setup()
    before = lm.weight_hash()
    cfg = make_cfg(model_d_a=D_A, decoder_batch=4, decoder_epochs=4,
                   decoder_lr_max=3e-3, decoder_lr_min=1e-5,
                   decoder_lr_period=4, decoder_dropout=0.0, decoder_d_r=4,
                   decoder_heads=2, retrieval_k=2)
    result = train_decoder(lm, tok, items, labels, cfg, seed=0)
    assert lm.weight_hash() == before
    assert len(result.history) == 4
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]
    assert result.best_val_loss == min(h["val_loss"] for h in result.history)
    assert result.best_epoch == min(
        e for e, h in enumerate(result.history)
        if h["val_loss"] == result.best_val_loss)


def test_train_decoder_validation_records_no_tape(monkeypatch):
    lm, tok, items, labels = make_training_setup()
    calls = []
    logits = decoder.position_logits

    def recording(*args):
        out = logits(*args)
        calls.append((args[7], out.requires_grad))  # (training, taped)
        return out

    monkeypatch.setattr(decoder, "position_logits", recording)
    cfg = make_cfg(model_d_a=D_A, decoder_batch=4, decoder_epochs=2,
                   decoder_d_r=4, decoder_heads=2, retrieval_k=2)
    train_decoder(lm, tok, items, labels, cfg, seed=0)
    assert {c for c, _ in calls} == {True, False}
    assert all(training == taped for training, taped in calls)


def test_train_decoder_deterministic():
    lm, tok, items, labels = make_training_setup()
    cfg = make_cfg(model_d_a=D_A, decoder_batch=4, decoder_epochs=2,
                   decoder_lr_max=1e-3, decoder_lr_min=1e-5,
                   decoder_lr_period=2, decoder_dropout=0.3, decoder_d_r=4,
                   decoder_heads=2, retrieval_k=2)
    r1 = train_decoder(lm, tok, items, labels, cfg, seed=5)
    r2 = train_decoder(lm, tok, items, labels, cfg, seed=5)
    assert r1.history == r2.history
    for (n1, p1), (_, p2) in zip(r1.params.named_params(),
                                 r2.params.named_params()):
        assert p1.data.tobytes() == p2.data.tobytes(), n1


def per_step_guidance(tok, items, labels, cfg, seed):
    """(items, PAD-padded guidance) of every training step, drawn as the
    per-step loop did: each epoch permutes the usable items, then each
    step draws the guidance of its items in turn."""
    train, _, pools = training_pools(items, labels)
    sim_of = {i: train[similar] for i, (similar, _) in pools.items()}
    usable = [i for i in train.tolist() if len(sim_of[i])]
    caps = [tok.encode(it.caption) for it in items]
    rng = np.random.default_rng([seed, 12])
    steps = []
    for _ in range(cfg.decoder_epochs):
        order = rng.permutation(len(usable))
        for start in range(0, len(usable), cfg.decoder_batch):
            chunk = [usable[k] for k in order[start:start + cfg.decoder_batch]]
            refs = []
            for i in chunk:
                pool = sim_of[i]
                chosen = rng.choice(pool, size=cfg.retrieval_k,
                                    replace=len(pool) < cfg.retrieval_k)
                refs.append(guidance_ids([caps[j] for j in chosen]))
            steps.append((chunk, pad_ids(refs)))
    return steps


def test_epoch_guidance_matches_per_step_draws(monkeypatch):
    """Each epoch's guidance, drawn and encoded up front, is the per-step
    loop's, step for step; each row is encoded at its own length."""
    lm, tok, items, labels = make_training_setup(MIXED_TEXTS)
    cfg = make_cfg(model_d_a=D_A, decoder_batch=2, decoder_epochs=2,
                   decoder_d_r=4, decoder_heads=2, retrieval_k=2)
    steps = []
    logits = decoder.position_logits

    def recording(*args):
        if args[7]:  # training
            steps.append(args[1:4])  # (phis, guidance, psi_guidance)
        return logits(*args)

    monkeypatch.setattr(decoder, "position_logits", recording)
    train_decoder(lm, tok, items, labels, cfg, seed=3)
    want = per_step_guidance(tok, items, labels, cfg, seed=3)
    assert len(steps) == len(want) > 2
    for (phis, guidance, psi), (chunk, want_guidance) in zip(steps, want):
        np.testing.assert_array_equal(
            phis, np.stack([items[i].features for i in chunk]))
        assert guidance.tobytes() == want_guidance.tobytes()
        assert guidance.shape == want_guidance.shape
        for row, f in zip(guidance, psi):
            n = (row != PAD).sum()
            assert f[:n].tobytes() == lm.features(row[:n]).tobytes()
            assert not f[n:].any()


def per_item_history(lm, tok, items, labels, cfg, seed):
    """(train_loss, val_loss) per epoch of the per-item training loop that
    the batched path replaced: one unpadded forward per item, each step's
    loss the mean of its items' losses, each validation loss the mean of
    the validation items' losses. Guidance and dropout masks are drawn as
    train_decoder draws them."""
    train, valid, pools = training_pools(items, labels)
    sim_of = {i: train[similar] for i, (similar, _) in pools.items()}
    params = DecoderParams(cfg, lm, np.random.default_rng([seed, 11]))
    opt = layers.Adam(params)
    rng_drop = np.random.default_rng([seed, 13])
    caps = [tok.encode(it.caption) for it in items]

    def item_loss(i, guidance, training):
        guidance = np.asarray(guidance)
        guidance = guidance[guidance != PAD]
        prefix = np.array([BOS] + caps[i])
        logits = position_logits(params, items[i].features, guidance,
                                 lm.features(guidance), prefix,
                                 lm.features(prefix), rng_drop, training)
        return smoothed_cross_entropy(logits, caps[i] + [EOS],
                                      cfg.decoder_lambda)

    val_items = [i for i in valid if len(sim_of[i])]
    rng_val = np.random.default_rng([seed, 14])
    val_refs = [guidance_ids([caps[j] for j in rng_val.choice(
        sim_of[i], size=cfg.retrieval_k,
        replace=len(sim_of[i]) < cfg.retrieval_k)]) for i in val_items]

    steps = per_step_guidance(tok, items, labels, cfg, seed)
    per_epoch = len(steps) // cfg.decoder_epochs
    history = []
    for epoch in range(cfg.decoder_epochs):
        lr = layers.cosine_lr(epoch, cfg.decoder_lr_period,
                              cfg.decoder_lr_max, cfg.decoder_lr_min)
        losses = []
        for chunk, guidance in steps[epoch * per_epoch:
                                     (epoch + 1) * per_epoch]:
            def loss():
                total = item_loss(chunk[0], guidance[0], True)
                for i, g in zip(chunk[1:], guidance[1:]):
                    total = total + item_loss(i, g, True)
                return total * (1.0 / len(chunk))
            losses.append(opt.minimize([loss], "per-item loss", lr))
        val = [item_loss(i, g, False).item()
               for i, g in zip(val_items, val_refs)]
        history.append((float(np.mean(losses)), float(np.mean(val))))
    return history


@pytest.mark.parametrize("texts", ["TEXTS", "MIXED_TEXTS"])
def test_train_decoder_history_matches_per_item_loop(texts):
    lm, tok, items, labels = make_training_setup(globals()[texts])
    cfg = make_cfg(model_d_a=D_A, decoder_batch=4, decoder_epochs=3,
                   decoder_lr_max=3e-3, decoder_lr_min=1e-5,
                   decoder_lr_period=3, decoder_dropout=0.3, decoder_d_r=4,
                   decoder_heads=2, retrieval_k=2)
    result = train_decoder(lm, tok, items, labels, cfg, seed=5)
    got = [(h["train_loss"], h["val_loss"]) for h in result.history]
    np.testing.assert_allclose(
        got, per_item_history(lm, tok, items, labels, cfg, seed=5), rtol=0,
        atol=1e-12)
    assert result.best_epoch == 2


def test_train_decoder_nonfinite_loss_raises():
    """A NaN learning rate makes every weight NaN after the first step; the
    next step's loss is NaN and training stops there. The config rejects a
    NaN rate, so it is set after the config is built."""
    lm, tok, items, labels = make_training_setup()
    cfg = make_cfg(model_d_a=D_A, decoder_batch=2, decoder_epochs=2,
                   decoder_d_r=4, decoder_heads=2, retrieval_k=2,
                   decoder_dropout=0.0)
    cfg.decoder_lr_max = float("nan")
    with pytest.raises(NumericError,
                       match="non-finite decoder loss at epoch 0"):
        train_decoder(lm, tok, items, labels, cfg, seed=0)


def test_train_decoder_skips_isolated_items():
    lm, tok, items, labels = make_training_setup()
    lab = labels.copy()
    lab[0, :] = False
    lab[:, 0] = False
    cfg = make_cfg(model_d_a=D_A, decoder_batch=4, decoder_epochs=1,
                   decoder_lr_max=1e-3, decoder_d_r=4, decoder_heads=2,
                   retrieval_k=2, decoder_dropout=0.0)
    result = train_decoder(lm, tok, items, lab, cfg, seed=0)
    assert result.skipped_items == 1


def test_generate_caption_decodes(lm, rng):
    tok = TinyTokenizer(["a dog barks", "a cat purrs"])
    small_lm = TinyCausalLm(tok.vocab_size, make_cfg(model_d_l=8, lm_seed=3))
    params = make_dec(small_lm, rng, d_r=4)
    phi = rng.normal(size=(D_A, T))
    texts = generate_captions(small_lm, tok, params, [phi],
                              [["a dog barks", "a cat"]], beam=2, max_len=5)
    g = guidance_ids([tok.encode("a dog barks"), tok.encode("a cat")])
    [toks] = decode(small_lm, params, [phi], [g], beam=2, max_len=5,
                    min_len=tok.min_len)
    assert texts == [tok.decode(toks)]
