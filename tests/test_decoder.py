import math
from itertools import product

import numpy as np
import pytest

from ragcap.autodiff import Tensor
from ragcap.config import PipelineConfig
from ragcap.data import DatasetItem
from ragcap.decoder import (DecoderParams, GuidanceCaptions, beam_search,
                            fuse, fuse_audio, generate_caption, make_guidance, posterior, position_logits,
                            smoothed_cross_entropy, train_decoder)
from ragcap.reference_models import (BOS, EOS, SEP, TinyTokenizer,
                                     build_tiny_lm)
from ragcap.similarity import SimilarLabelMatrix

D_A, T = 3, 4


@pytest.fixture(scope="module")
def lm():
    return build_tiny_lm(3, vocab_size=12, d_model=16)


def make_dec(lm, rng, d_r=6, drop=0.0, head_init=None):
    return DecoderParams(lm.d_model, D_A, d_r, lm.vocab_size, heads=2,
                         drop_p=drop, rng=rng, head_init=head_init)


# ---------------------------------------------------------------------------
# guidance
# ---------------------------------------------------------------------------

def test_guidance_sep_joined():
    g = GuidanceCaptions([[5, 6], [7], [8, 9]])
    assert g.tokens == [5, 6, SEP, 7, SEP, 8, 9]


def test_guidance_single_caption_no_sep():
    assert GuidanceCaptions([[5, 6]]).tokens == [5, 6]


def test_guidance_rejects_empty():
    with pytest.raises(ValueError):
        GuidanceCaptions([])
    with pytest.raises(ValueError):
        GuidanceCaptions([[5], []])


def test_make_guidance_encodes():
    tok = TinyTokenizer(["a dog", "a cat"])
    g = make_guidance(tok, ["a dog", "a cat"])
    assert g.captions == [tok.encode("a dog"), tok.encode("a cat")]


def test_guidance_features_width(lm):
    g = GuidanceCaptions([[5, 6], [7]])
    feats = lm.features(g.tokens)
    assert feats.shape == (lm.d_model, 4)


# ---------------------------------------------------------------------------
# fusion blocks
# ---------------------------------------------------------------------------

def test_fuse_shape(lm, rng):
    params = make_dec(lm, rng)
    out = fuse(params, rng.normal(size=(lm.d_model, 5)),
               rng.normal(size=(lm.d_model, 7)))
    assert out.shape == (lm.d_model, 5)


def test_fuse_single_key_gives_equal_columns(lm, rng):
    params = make_dec(lm, rng)
    out = fuse(params, rng.normal(size=(lm.d_model, 4)),
               rng.normal(size=(lm.d_model, 1))).data
    for col in range(1, 4):
        np.testing.assert_allclose(out[:, col], out[:, 0], atol=1e-12)


def test_fuse_query_columns_independent(lm, rng):
    params = make_dec(lm, rng)
    hyps = rng.normal(size=(lm.d_model, 3))
    refs = rng.normal(size=(lm.d_model, 4))
    base = fuse(params, hyps, refs).data
    mutated = hyps.copy()
    mutated[:, 2] += 5.0
    out = fuse(params, mutated, refs).data
    np.testing.assert_allclose(out[:, :2], base[:, :2], atol=1e-12)
    assert not np.allclose(out[:, 2], base[:, 2])


def test_fuse_audio_shape_and_t1(lm, rng):
    params = make_dec(lm, rng)
    psi = rng.normal(size=(lm.d_model, 5))
    out = fuse_audio(params, psi, rng.normal(size=(D_A, T)))
    assert out.shape == (lm.d_model, 5)
    assert fuse_audio(params, psi, rng.normal(size=(D_A, 1))).shape == \
        (lm.d_model, 5)


def test_fuse_audio_gradients_reach_all_blocks(lm, rng):
    params = make_dec(lm, rng)
    psi = Tensor(rng.normal(size=(lm.d_model, 3)), requires_grad=True)
    out = fuse_audio(params, psi, rng.normal(size=(D_A, T)))
    out.sum().backward()
    for name, p in params.named_params():
        if any(part in name for part in
               ("reduce_hyp", "reduce_audio", "audio_mha", "expand")):
            assert p.grad is not None and np.any(p.grad != 0.0), name
    assert psi.grad is not None and np.any(psi.grad != 0.0)


def test_fusion_rejects_bad_shapes(lm, rng):
    params = make_dec(lm, rng)
    with pytest.raises(Exception):
        fuse(params, rng.normal(size=(lm.d_model + 1, 3)),
             rng.normal(size=(lm.d_model, 3)))
    with pytest.raises(Exception):
        fuse_audio(params, rng.normal(size=(lm.d_model, 3)),
                   rng.normal(size=(D_A + 1, T)))


# ---------------------------------------------------------------------------
# posterior
# ---------------------------------------------------------------------------

def test_posterior_is_distribution(lm, rng):
    params = make_dec(lm, rng)
    phi = rng.normal(size=(D_A, T))
    p = posterior(lm, params, phi, GuidanceCaptions([[5, 6]]), [BOS, 7, 8])
    assert p.shape == (lm.vocab_size,)
    assert np.all(p >= 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_position_logits_are_causal(lm, rng):
    params = make_dec(lm, rng)
    phi = rng.normal(size=(D_A, T))
    g = GuidanceCaptions([[5, 6]])
    a = position_logits(lm, params, phi, g, [BOS, 7, 8, 9]).data
    b = position_logits(lm, params, phi, g, [BOS, 7, 8, 10]).data
    np.testing.assert_allclose(a[:3], b[:3], atol=1e-12)
    assert not np.allclose(a[3], b[3])


def test_prefix_must_start_with_bos(lm, rng):
    params = make_dec(lm, rng)
    phi = np.zeros((D_A, T))
    g = GuidanceCaptions([[5]])
    with pytest.raises(ValueError, match="BOS"):
        position_logits(lm, params, phi, g, [7, 8])
    with pytest.raises(ValueError, match="BOS"):
        position_logits(lm, params, phi, g, [])


def test_zero_head_gives_uniform_posterior(lm, rng):
    params = make_dec(lm, rng)
    params.lmhead.W.data[:] = 0.0
    params.lmhead.b.data[:] = 0.0
    p = posterior(lm, params, rng.normal(size=(D_A, T)),
                  GuidanceCaptions([[5]]), [BOS, 6])
    np.testing.assert_allclose(p, np.full(lm.vocab_size, 1 / lm.vocab_size),
                               atol=1e-12)


def test_head_init_copies_frozen_lm_head(lm, rng):
    params = make_dec(lm, rng, head_init=lm.head_matrix())
    np.testing.assert_array_equal(params.lmhead.W.data, lm.head_matrix())
    np.testing.assert_array_equal(params.lmhead.b.data,
                                  np.zeros(lm.vocab_size))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_smoothed_ce_lambda_zero_is_standard_ce(rng):
    logits = Tensor(rng.normal(size=(3, 5)))
    targets = [1, 4, 0]
    got = smoothed_cross_entropy(logits, targets, 0.0).item()
    logp = logits.log_softmax(axis=-1).data
    want = -np.mean(logp[np.arange(3), targets])
    assert got == pytest.approx(want, abs=1e-12)


def test_smoothed_ce_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((4, 7)))
    for lam in (0.0, 0.1, 0.5):
        got = smoothed_cross_entropy(logits, [0, 1, 2, 3], lam).item()
        assert got == pytest.approx(math.log(7), abs=1e-12)


def test_smoothed_ce_penalizes_overconfidence():
    confident = Tensor(np.array([[30.0, -30.0]]))
    assert smoothed_cross_entropy(confident, [0], 0.1).item() > \
        smoothed_cross_entropy(confident, [0], 0.0).item()


def test_smoothed_ce_target_count_checked(rng):
    with pytest.raises(Exception):
        smoothed_cross_entropy(Tensor(rng.normal(size=(3, 5))), [1, 2], 0.1)


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------

def exhaustive_best(lm, params, phi, guidance, max_len):
    """Enumerate every legal emission sequence and pick the best by the same
    ranking rule the beam uses."""
    psi_refs = lm.features(guidance.tokens)
    cache = {}

    def logp_row(prefix):
        if prefix not in cache:
            p = posterior(lm, params, phi, guidance, [BOS] + list(prefix),
                          psi_refs=psi_refs)
            cache[prefix] = np.log(np.maximum(p, 1e-300))
        return cache[prefix]

    candidates = []
    for length in range(1, max_len + 1):
        for toks in product(range(lm.vocab_size), repeat=length):
            if EOS in toks[:-1]:
                continue
            if toks[-1] != EOS and length < max_len:
                continue
            lp = 0.0
            for pos, tok in enumerate(toks):
                lp += logp_row(toks[:pos])[tok]
            candidates.append((toks, lp))
    best = max(candidates, key=lambda e: (e[1] / len(e[0]),
                                          tuple(-t for t in e[0])))
    return list(best[0])


def test_beam_matches_exhaustive_small_instances():
    lm = build_tiny_lm(9, vocab_size=6, d_model=8)
    g = GuidanceCaptions([[5]])
    for seed in range(3):
        rng = np.random.default_rng(seed)
        params = DecoderParams(lm.d_model, D_A, 4, lm.vocab_size, heads=2,
                               drop_p=0.0, rng=rng, std=0.5)
        phi = rng.normal(size=(D_A, T))
        assert beam_search(lm, params, phi, g, beam=36, max_len=3) == \
            exhaustive_best(lm, params, phi, g, max_len=3)


def test_beam_one_equals_greedy(lm, rng):
    params = make_dec(lm, rng)
    phi = rng.normal(size=(D_A, T))
    g = GuidanceCaptions([[5, 6]])
    psi_refs = lm.features(g.tokens)
    toks = []
    for _ in range(5):
        p = posterior(lm, params, phi, g, [BOS] + toks, psi_refs=psi_refs)
        nxt = int(np.argmax(p))
        toks.append(nxt)
        if nxt == EOS:
            break
    assert beam_search(lm, params, phi, g, beam=1, max_len=5) == toks


def test_beam_is_deterministic(lm, rng):
    params = make_dec(lm, rng)
    phi = rng.normal(size=(D_A, T))
    g = GuidanceCaptions([[5, 6], [7]])
    assert beam_search(lm, params, phi, g, beam=3, max_len=6) == \
        beam_search(lm, params, phi, g, beam=3, max_len=6)


def test_beam_respects_max_len(lm, rng):
    params = make_dec(lm, rng)
    out = beam_search(lm, params, rng.normal(size=(D_A, T)),
                      GuidanceCaptions([[5]]), beam=2, max_len=4)
    assert 1 <= len(out) <= 4


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def make_training_setup():
    texts = ["a dog barks", "a dog howls", "a cat purrs", "a cat meows",
             "a dog growls", "a cat hisses"]
    tok = TinyTokenizer(texts)
    lm = build_tiny_lm(3, tok.vocab_size, d_model=16,
                       pretrain_seqs=[tok.encode(t) for t in texts],
                       pretrain_epochs=5)
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
    return lm, tok, items, SimilarLabelMatrix(lab, 0.7)


def test_train_decoder_runs_and_freezes_lm():
    lm, tok, items, labels = make_training_setup()
    before = lm.weight_hash()
    cfg = PipelineConfig(decoder_batch=4, decoder_epochs=4,
                         decoder_lr_max=3e-3, decoder_lr_min=1e-5,
                         decoder_lr_period=4, decoder_dropout=0.0,
                         decoder_d_r=4, decoder_heads=2, retrieval_k=2)
    result = train_decoder(lm, tok, items, labels, cfg, seed=0)
    assert lm.weight_hash() == before
    assert len(result.history) == 4
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]
    assert result.best_val_loss == min(h["val_loss"] for h in result.history)
    assert result.best_epoch == min(
        e for e, h in enumerate(result.history)
        if h["val_loss"] == result.best_val_loss)
    # pool sizes are 2 similar captions, below k=2 only after excluding self
    assert result.replacement_items > 0


def test_train_decoder_deterministic():
    lm, tok, items, labels = make_training_setup()
    cfg = PipelineConfig(decoder_batch=4, decoder_epochs=2,
                         decoder_lr_max=1e-3, decoder_lr_min=1e-5,
                         decoder_lr_period=2, decoder_dropout=0.3,
                         decoder_d_r=4, decoder_heads=2, retrieval_k=2)
    r1 = train_decoder(lm, tok, items, labels, cfg, seed=5)
    r2 = train_decoder(lm, tok, items, labels, cfg, seed=5)
    assert r1.history == r2.history
    for (n1, p1), (_, p2) in zip(r1.params.named_params(),
                                 r2.params.named_params()):
        assert p1.data.tobytes() == p2.data.tobytes(), n1


def test_train_decoder_skips_isolated_items():
    lm, tok, items, labels = make_training_setup()
    lab = labels.labels.copy()
    lab[0, :] = False
    lab[:, 0] = False
    cfg = PipelineConfig(decoder_batch=4, decoder_epochs=1,
                         decoder_lr_max=1e-3, decoder_d_r=4, decoder_heads=2,
                         retrieval_k=2, decoder_dropout=0.0)
    result = train_decoder(lm, tok, items, SimilarLabelMatrix(lab, 0.7),
                           cfg, seed=0)
    assert result.skipped_items == 1


def test_generate_caption_decodes(lm, rng):
    tok = TinyTokenizer(["a dog barks", "a cat purrs"])
    small_lm = build_tiny_lm(3, tok.vocab_size, d_model=8)
    params = DecoderParams(small_lm.d_model, D_A, 4, small_lm.vocab_size,
                           heads=2, drop_p=0.0, rng=rng)
    text = generate_caption(small_lm, tok, params, rng.normal(size=(D_A, T)),
                            ["a dog barks"], beam=2, max_len=5)
    assert isinstance(text, str)
