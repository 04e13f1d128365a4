"""End-to-end acceptance suite.

One test per acceptance criterion, in order; `pytest -v` prints one pass/fail
line per criterion. Heavy shared work (the shipped 4x25 synthetic dataset,
similarity labels, trained retrieval and decoder models) lives in
module-scoped fixtures and is timed so the runtime bounds can be asserted.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from conftest import (encoded, exhaustive, finite_diff_check,
                      full_forward_step, fusion_logits, make_cfg, random_head)
from test_metrics import _CORPUS_CANDS, _CORPUS_REFS, _cider_oracle

from ragcap import decoder, layers, pipeline
from ragcap.autodiff import Tensor
from ragcap.cli import main as cli_main
from ragcap.config import PipelineConfig, load_config
from ragcap.data import DatasetItem, load_dataset
from ragcap.decoder import (DecoderParams, beam_search, fusion_step,
                            guidance_ids, pad_ids, posterior,
                            smoothed_cross_entropy, train_decoder)
from ragcap.layers import (EncoderLayer, LayerNorm, Linear, MultiHeadAttention,
                           causal_mask)
from ragcap.metrics import evaluate_corpus
from ragcap.reference_models import (BOS, SyntheticDatasetSpec, TinyCausalLm,
                                     generate_synthetic_dataset)
from ragcap.retrieval import (EmbedderParams, RetrievalIndex, embed_batch,
                              retrieve_topk, select_semi_hard_negative,
                              triplet_loss)
from ragcap.similarity import bertscore, label_similar, normalize_minmax

HERE = os.path.dirname(__file__)
DESK_CFG = os.path.join(HERE, "..", "configs", "desk.cfg")


# ---------------------------------------------------------------------------
# shared heavy fixtures: shipped synthetic set, trained models
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    cfg = load_config(DESK_CFG)
    root = tmp_path_factory.mktemp("desk")
    data = str(root / "data")
    generate_synthetic_dataset(SyntheticDatasetSpec(), cfg.model_d_a,
                               cfg.model_t, data)
    items = load_dataset(os.path.join(data, "manifest.jsonl"),
                         cfg.model_d_a, cfg.model_t)
    captions = pipeline.train_captions(items)
    tokenizer, lm = pipeline.build_frozen_models(captions, cfg)
    lm.pretrain([tokenizer.encode(c) for caps in captions for c in caps],
                cfg.lm_pretrain_epochs)
    raw, labels = pipeline.compute_similarity(items, tokenizer, lm, cfg)

    t0 = time.monotonic()
    trained, trained_index = pipeline.run_train_retrieval(
        cfg, items, labels, 0, str(root / "ret"))
    cfg0 = dataclasses.replace(cfg, triplet_epochs=0)
    untrained, untrained_index = pipeline.run_train_retrieval(
        cfg0, items, labels, 0, str(root / "ret0"))
    bleu1 = {}
    for name, params, index in (("trained", trained.params, trained_index),
                                ("untrained", untrained.params,
                                 untrained_index)):
        _, _, report = pipeline.evaluate_scope(
            "ii", cfg, items, "test", params, index, None, None, None, None)
        bleu1[name] = report.bleu[0]
    retrieval_seconds = time.monotonic() - t0

    dec_result = pipeline.run_train_decoder(cfg, items, labels, lm,
                                            tokenizer, 0, str(root / "dec"))
    return {"cfg": cfg, "items": items, "raw": raw, "labels": labels,
            "lm": lm, "tokenizer": tokenizer,
            "trained": trained, "trained_index": trained_index,
            "scope_ii_bleu1": bleu1, "retrieval_seconds": retrieval_seconds,
            "decoder": dec_result}


# ---------------------------------------------------------------------------
# criterion 1: gradients match finite differences
# ---------------------------------------------------------------------------

def sq_sum(t):
    return (t * t).sum()


def test_criterion_01_gradient_suite(rng, monkeypatch):
    start = time.monotonic()
    monkeypatch.setattr(layers, "INIT_STD", 0.5)

    for _ in range(5):  # Linear
        b, din, dout = rng.integers(1, 4), rng.integers(1, 6), \
            rng.integers(1, 6)
        lin = Linear(int(din), int(dout), rng)
        lin.freeze(False)  # parts are built frozen
        x = rng.normal(size=(int(b), int(din)))
        finite_diff_check(lambda: sq_sum(lin(Tensor(x))),
                          [p for _, p in lin.named_params()], rel_tol=1e-4)

    for _ in range(5):  # LayerNorm
        b, d = rng.integers(1, 4), rng.integers(2, 6)
        ln = LayerNorm(int(d))
        ln.freeze(False)
        x = rng.normal(size=(int(b), int(d)))
        finite_diff_check(lambda: sq_sum(ln(Tensor(x))),
                          [ln.gamma, ln.beta], rel_tol=1e-4)

    for trial in range(5):  # multi-head attention, causal and not
        heads = int(rng.choice([1, 2]))
        dq = heads * int(rng.integers(1, 3))
        lq = int(rng.integers(1, 4))
        mha = MultiHeadAttention(heads, dq, dq, dq, rng)
        mha.freeze(False)
        q = rng.normal(size=(lq, dq))
        mask = causal_mask(lq) if trial % 2 else None
        finite_diff_check(
            lambda: sq_sum(mha(Tensor(q), Tensor(q), mask)),
            [p for _, p in mha.named_params()], rel_tol=1e-4)

    for _ in range(5):  # encoder layer
        heads = int(rng.choice([1, 2]))
        d = heads * 2
        enc = EncoderLayer(d, heads, int(rng.integers(2, 5)), rng)
        enc.freeze(False)
        x = rng.normal(size=(int(rng.integers(1, 4)), d))
        finite_diff_check(lambda: sq_sum(enc(Tensor(x))),
                          [p for _, p in enc.named_params()], rel_tol=1e-4)

    monkeypatch.undo()  # the embedder at the shipped INIT_STD
    for _ in range(5):  # retrieval embedder through the triplet loss
        d_a, t = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        params = EmbedderParams(
            PipelineConfig(model_d_a=d_a, model_t=t, embed_heads=1,
                           embed_ff=4, embed_dropout=0.0), rng)
        params.freeze(False)
        phis = rng.normal(size=(3, d_a, t))
        finite_diff_check(
            lambda: triplet_loss(*np.split(embed_batch(params, phis), 3),
                                 3.0).sum(),
            [p for _, p in params.named_params()], rel_tol=1e-4)

    lm = TinyCausalLm(8, make_cfg(model_d_l=8, lm_seed=5))
    monkeypatch.setattr(layers, "INIT_STD", 0.5)
    dec_cfg = make_cfg(model_d_a=3, model_d_l=8, decoder_d_r=4,
                       decoder_heads=2, decoder_dropout=0.0)
    for _ in range(5):  # decoder fusion path through smoothed cross-entropy
        dec = DecoderParams(dec_cfg, lm, rng)
        dec.freeze(False)
        n = int(rng.integers(1, 4))
        prefix = [BOS] + [int(v) for v in rng.integers(0, 8, size=n)]
        phi = rng.normal(size=(3, int(rng.integers(1, 4))))
        targets = rng.integers(1, 8, size=len(prefix))
        finite_diff_check(
            lambda: smoothed_cross_entropy(
                fusion_logits(lm, dec, phi, [5, 6], prefix), targets, 0.1),
            [p for _, p in dec.named_params()], rel_tol=1e-4)

    for _ in range(5):  # the same path on a padded two-item batch
        dec = DecoderParams(dec_cfg, lm, rng)
        dec.freeze(False)
        lengths = rng.integers(1, 5, size=2)
        prefixes = pad_ids([[BOS] + [int(v) for v in rng.integers(1, 8, n)]
                            for n in lengths])
        targets = pad_ids([[int(v) for v in rng.integers(1, 8, n + 1)]
                           for n in lengths])
        guidance = pad_ids([[5, 6, 7], [6]])
        phis = rng.normal(size=(2, 3, int(rng.integers(1, 4))))
        finite_diff_check(
            lambda: smoothed_cross_entropy(
                fusion_logits(lm, dec, phis, guidance, prefixes), targets,
                0.1),
            [p for _, p in dec.named_params()], rel_tol=1e-4)

    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 2: search oracles
# ---------------------------------------------------------------------------

def test_criterion_02_search_oracles(rng):
    # top-K against a brute-force sort, 50 items x 100 queries
    n, d = 50, 6
    embs = rng.normal(size=(n, d))
    embs /= np.linalg.norm(embs, axis=1, keepdims=True)
    ids = [f"i{k:02d}" for k in range(n)]
    index = RetrievalIndex(ids, embs, [[f"c{k}"] for k in range(n)])
    for _ in range(100):
        q = rng.normal(size=d)
        k = int(rng.integers(1, n + 1))
        got = retrieve_topk(index, q, k=k, exclude=None)
        want = sorted(((float((embs[i] - q) @ (embs[i] - q)), ids[i])
                       for i in range(n)))[:k]
        assert [(g[0], g[1]) for g in got] == [(i, dd) for dd, i in want]

    # beam search against exhaustive enumeration: vocab 3, length 3; each
    # candidate is scored from the full position_logits rows of its prefixes
    g = [1]
    for seed in range(20):
        model_rng = np.random.default_rng([71, seed])
        cfg = make_cfg(model_d_a=3, model_d_l=8, lm_seed=seed, decoder_d_r=4,
                       decoder_heads=2, decoder_dropout=0.0)
        lm = TinyCausalLm(3, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layers, "INIT_STD", 0.5)
            params = DecoderParams(cfg, lm, model_rng)
            random_head(params, model_rng)
        phi = model_rng.normal(size=(3, 4))
        assert beam_search(fusion_step(lm, params, [phi], [g]), 1, beam=9,
                           max_len=3) == \
            [exhaustive(full_forward_step(lm, params, phi, g), lm.vocab_size,
                        max_len=3)]


# ---------------------------------------------------------------------------
# criterion 3: hand-computed equation-level examples, tolerance 1e-9
# ---------------------------------------------------------------------------

def test_criterion_03_equation_hand_examples(rng):
    tol = 1e-9

    # triplet loss: d_ap 0.2, d_an 0.4, margin 0.3 -> 0.1
    loss = triplet_loss(np.array([0.0]), np.array([np.sqrt(0.2)]),
                        np.array([-np.sqrt(0.4)]), 0.3)
    assert abs(loss.item() - 0.1) < tol
    # identical positive and negative embeddings -> loss equals the margin
    e = rng.normal(size=3)
    assert abs(triplet_loss(rng.normal(size=3), e, e, 0.3).item() - 0.3) < tol

    # semi-hard selection: d_ap 0.5, margin 0.3, pool {0.4, 0.6, 0.9} -> 0.6
    nid, d, fb = select_semi_hard_negative(
        0.5, np.arange(3), np.array([0.4, 0.6, 0.9]), 0.3,
        np.random.default_rng(0))
    assert (nid, fb) == (1, "none") and abs(d - 0.6) < tol
    # half-open interval boundaries: 0.5 is semi-hard, 0.8 is not
    for d_an, kind in ((0.5, "none"), (0.8, "nearest_geq")):
        assert select_semi_hard_negative(
            0.5, np.arange(1), np.array([d_an]), 0.3,
            np.random.default_rng(0)) == (0, d_an, kind)

    # min-max normalization: off-diagonal {0.2, 0.5, 0.8} -> {0, 0.5, 1}
    m = np.eye(3)
    m[0, 1] = m[1, 0] = 0.2
    m[0, 2] = m[2, 0] = 0.5
    m[1, 2] = m[2, 1] = 0.8
    out = normalize_minmax(m)
    assert abs(out[0, 1] - 0.0) < tol
    assert abs(out[0, 2] - 0.5) < tol
    assert abs(out[1, 2] - 1.0) < tol

    # thresholding is strictly greater than 0.7
    pair = np.array([[1.0, 0.7], [0.7, 1.0]])
    assert not label_similar(pair, 0.7)[0, 1]

    # label smoothing 0 reduces to standard cross-entropy
    logits = Tensor(rng.normal(size=(3, 5)))
    targets = [1, 4, 3]  # target 0 is PAD, a padded position
    logp = logits.log_softmax().data
    want = -np.mean(logp[np.arange(3), targets])
    assert abs(smoothed_cross_entropy(logits, targets, 0.0).item()
               - want) < tol
    # uniform logits cost ln V at any smoothing
    assert abs(smoothed_cross_entropy(Tensor(np.zeros((2, 7))), [0, 1],
                                      0.1).item() - math.log(7)) < tol

    # BERTScore: one matched token of two references -> P 1, R 0.5, F1 2/3
    p, r, f1 = bertscore(np.array([[1.0], [0.0]]),
                         np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert abs(p - 1.0) < tol and abs(r - 0.5) < tol
    assert abs(f1 - 2.0 / 3.0) < tol


# ---------------------------------------------------------------------------
# criterion 4: metric hand/oracle values, tolerance 1e-6
# ---------------------------------------------------------------------------

def test_criterion_04_metric_values():
    tol = 1e-6
    # per-item BLEU-1 and ROUGE-L of item 0 of hand-computed corpora
    hand = evaluate_corpus(["a b c", "a a a", "a b c d"],
                           [["a b d"], ["a b"], ["a c b d"]]).per_item
    assert abs(hand[0]["bleu1"] - 2 / 3) < tol
    assert abs(hand[1]["bleu1"] - 1 / 3) < tol
    assert abs(hand[2]["rouge_l"] - 0.75) < tol

    report = evaluate_corpus(_CORPUS_CANDS, _CORPUS_REFS)
    oracle_mean, oracle_items = _cider_oracle(_CORPUS_CANDS, _CORPUS_REFS)
    assert abs(report.cider - oracle_mean) < tol
    for item, want in zip(report.per_item, oracle_items):
        assert abs(item["cider"] - want) < tol

    # identity corpora score exactly 1.0
    report = evaluate_corpus(_CORPUS_CANDS, [[c] for c in _CORPUS_CANDS])
    for b in report.bleu:
        assert b == pytest.approx(1.0, abs=1e-12)
    assert report.rouge_l == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# criteria 5, 6, 9: shipped synthetic dataset reproductions
# ---------------------------------------------------------------------------

def test_criterion_05_trained_retrieval_beats_untrained(desk):
    bleu1 = desk["scope_ii_bleu1"]
    assert bleu1["trained"] > bleu1["untrained"]
    assert desk["retrieval_seconds"] < 300.0


def test_criterion_06_oracle_guidance_at_least_retrieved(desk):
    cfg, items = desk["cfg"], desk["items"]
    reports = {}
    for scope in ("i", "iii"):
        _, _, reports[scope] = pipeline.evaluate_scope(
            scope, cfg, items, "test", desk["trained"].params,
            desk["trained_index"], desk["lm"], desk["tokenizer"],
            desk["decoder"].params, scores=desk["raw"])
    assert reports["iii"].bleu[0] >= reports["i"].bleu[0]


def test_criterion_09_semi_hard_contract(desk):
    log = desk["trained"].negative_log
    margin = desk["cfg"].triplet_margin
    assert log, "training produced no negative selections"
    fallbacks = {"none": 0, "nearest_geq": 0, "farthest": 0}
    for sel in log:
        fallbacks[sel.fallback] += 1
        if sel.fallback == "none":
            assert sel.d_ap <= sel.d_an < sel.d_ap + margin
        else:
            assert sel.fallback in ("nearest_geq", "farthest")
    print(f"negative selections: {len(log)}, fallback counts: {fallbacks}")


# ---------------------------------------------------------------------------
# criterion 7: decoder overfit
# ---------------------------------------------------------------------------

def test_criterion_07_decoder_overfit(tmp_path):
    start = time.monotonic()
    cfg = load_config(None)
    spec = SyntheticDatasetSpec(clusters=2, items_per_cluster=4, seed=3)
    generate_synthetic_dataset(spec, cfg.model_d_a, cfg.model_t,
                               str(tmp_path))
    items = load_dataset(str(tmp_path / "manifest.jsonl"), cfg.model_d_a,
                         cfg.model_t)
    items = [DatasetItem(it.id, "train", it.features, it.captions)
             for it in items]
    captions = pipeline.train_captions(items)
    tokenizer, lm = pipeline.build_frozen_models(captions, cfg)
    lm.pretrain([tokenizer.encode(c) for caps in captions for c in caps],
                cfg.lm_pretrain_epochs)
    labels = ~np.eye(len(items), dtype=bool)

    dcfg = dataclasses.replace(
        cfg, decoder_lambda=0.0, decoder_batch=8, decoder_epochs=200,
        decoder_lr_max=1e-2, decoder_lr_min=1e-5, decoder_lr_period=200,
        decoder_dropout=0.0, decoder_d_r=8, decoder_heads=4, retrieval_k=5)
    result = train_decoder(lm, tokenizer, items, labels, dcfg, seed=0)
    final_loss = result.history[-1]["train_loss"]
    assert final_loss < 0.5, f"teacher-forcing loss {final_loss}"

    exact = 0
    for i, it in enumerate(items):
        pool = sorted(j for j in range(len(items))
                      if j != i and labels[i, j])
        guidance = [items[j].caption for j in pool[:dcfg.retrieval_k]]
        [out] = decoder.generate_captions(lm, tokenizer, result.params,
                                          [it.features], [guidance], beam=4,
                                          max_len=cfg.decoder_max_len)
        exact += out == it.caption
    assert exact >= 6, f"{exact}/8 exact reproductions"
    assert time.monotonic() - start < 180.0


# ---------------------------------------------------------------------------
# criterion 8: bitwise CLI determinism
# ---------------------------------------------------------------------------

_CLI_CFG = """\
model.D_a = 4
model.T = 6
lm.pretrain_epochs = 2
triplet.epochs = 2
triplet.batch = 8
triplet.lr = 1e-3
embed.heads = 2
embed.ff = 8
retrieval.K = 2
decoder.epochs = 2
decoder.batch = 8
decoder.lr_max = 1e-3
decoder.lr_period = 2
decoder.D_r = 4
decoder.heads = 2
decoder.max_len = 8
"""


def test_criterion_08_cli_determinism(tmp_path, capsys):
    (tmp_path / "tiny.cfg").write_text(_CLI_CFG)
    (tmp_path / "spec.json").write_text(
        '{"clusters": 2, "items_per_cluster": 10, "seed": 1}')
    cfg = str(tmp_path / "tiny.cfg")

    def run_all(tag):
        """Run every subcommand; return {artifact: bytes} plus stdout."""
        base = tmp_path / tag
        data, sim = str(base / "data"), str(base / "sim")
        ret, dec, ev = str(base / "ret"), str(base / "dec"), str(base / "ev")
        out = {}
        assert cli_main(["make-dataset", "--config", cfg, "--spec",
                         str(tmp_path / "spec.json"), "--out", data]) == 0
        manifest = os.path.join(data, "manifest.jsonl")
        assert cli_main(["prepare-similarity", "--config", cfg,
                         "--manifest", manifest, "--out", sim]) == 0
        labels = os.path.join(sim, "similarity.ract")
        assert cli_main(["train-retrieval", "--config", cfg, "--manifest",
                         manifest, "--labels", labels, "--seed", "0",
                         "--out", ret]) == 0
        assert cli_main(["train-decoder", "--config", cfg, "--manifest",
                         manifest, "--labels", labels, "--seed", "0",
                         "--out", dec]) == 0
        capsys.readouterr()
        feats = os.path.join(data, "features", "c00i000.ract")
        assert cli_main(["retrieve", "--config", cfg, "--checkpoint",
                         os.path.join(ret, "retrieval.ckpt"), "--index",
                         os.path.join(ret, "index.ract"),
                         "--query-features", feats]) == 0
        out["retrieve.stdout"] = capsys.readouterr().out
        assert cli_main(["generate", "--config", cfg, "--checkpoint",
                         os.path.join(dec, "decoder.ckpt"), "--index",
                         os.path.join(ret, "index.ract"), "--features",
                         feats, "--retrieval-checkpoint",
                         os.path.join(ret, "retrieval.ckpt")]) == 0
        out["generate.stdout"] = capsys.readouterr().out
        assert cli_main(["evaluate", "--config", cfg, "--scope", "ii",
                         "--manifest", manifest, "--labels", labels,
                         "--retrieval-checkpoint",
                         os.path.join(ret, "retrieval.ckpt"), "--index",
                         os.path.join(ret, "index.ract"), "--split", "test",
                         "--out", ev]) == 0
        out["evaluate.stdout"] = capsys.readouterr().out
        for rel in ("data/manifest.jsonl", "data/features/c00i000.ract",
                    "sim/similarity.ract", "sim/similarity.ract.json",
                    "sim/frozen_lm.ckpt",
                    "ret/retrieval.ckpt", "ret/retrieval_curve.tsv",
                    "ret/negatives.tsv", "ret/index.ract",
                    "dec/decoder.ckpt", "dec/decoder_curve.tsv",
                    "ev/scope_ii_candidates.jsonl", "ev/scope_ii_report.json",
                    "ev/scope_ii_table.tsv"):
            out[rel] = (base / rel).read_bytes()
        return out

    first = run_all("a")
    second = run_all("b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"


# ---------------------------------------------------------------------------
# criterion 10: posterior contract
# ---------------------------------------------------------------------------

def test_criterion_10_posterior_contract(monkeypatch):
    cfg = make_cfg(model_d_a=3, model_d_l=8, lm_seed=4, decoder_d_r=4,
                   decoder_heads=2, decoder_dropout=0.0)
    lm = TinyCausalLm(8, cfg)
    g = guidance_ids([[5, 6], [7]])
    rows_checked = 0
    for model_seed in range(100):
        rng = np.random.default_rng([10, model_seed])
        monkeypatch.setattr(layers, "INIT_STD", float(rng.uniform(0.05, 1.0)))
        params = DecoderParams(cfg, lm, rng)
        random_head(params, rng)
        phi = rng.normal(size=(3, 4))
        for _ in range(10):
            prefix = [BOS] + [int(v) for v in rng.integers(0, 8, size=9)]
            logits = fusion_logits(lm, params, phi, g, prefix)
            probs = logits.softmax().data
            sums = probs.sum(axis=-1)
            assert np.all(np.abs(sums - 1.0) <= 1e-9)
            rows_checked += probs.shape[0]
        # the beam's last-row posterior is the last row of the full logits
        np.testing.assert_allclose(
            posterior(lm, params, phi, g, [prefix], encoded(lm, g))[0],
            probs[-1], rtol=0, atol=1e-12)
        # causality: mutating the last prefix token leaves earlier rows alone
        mutated = list(prefix)
        mutated[-1] = (mutated[-1] + 1) % 8
        a = fusion_logits(lm, params, phi, g, prefix).data
        b = fusion_logits(lm, params, phi, g, mutated).data
        np.testing.assert_allclose(a[:-1], b[:-1], atol=1e-12)
        assert not np.allclose(a[-1], b[-1])
    assert rows_checked >= 10_000
