"""End-to-end orchestration shared by the CLI commands.

Every function here is a pure function of (config, inputs, seed); artifacts
carry no timestamps, so reruns are bitwise identical. Retrieved and oracle
guidance rank through one rule with one K bound, retrieval.rank_topk.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os

import numpy as np

from . import archive, decoder, retrieval
from .config import PipelineConfig, config_hash
from .data import DatasetItem
from .errors import TrainingError
from .metrics import EvalReport, evaluate_corpus
from .reference_models import TinyCausalLm, TinyTokenizer
from .similarity import label_similar, normalize_minmax, pairwise_similarity

log = logging.getLogger("ragcap.pipeline")


# ---------------------------------------------------------------------------
# the frozen stand-ins: pretrained once, then stored and reloaded
# ---------------------------------------------------------------------------

FROZEN_LM_FILE = "frozen_lm.ckpt"
# metadata that ties a stored frozen LM to its weights, training captions
# and TinyCausalLm.KEYS config; the captions also fix its vocabulary
LM_META_FIELDS = {"lm_weight_hash": archive.NUMBER,
                  "lm_caption_hash": archive.STRING,
                  "lm_config_hash": archive.STRING}


def train_captions(items: list[DatasetItem]) -> list[list[str]]:
    """The caption lists of the training items, in manifest order; the frozen
    LM's tokenizer and pretraining corpus."""
    return [it.captions for it in items if it.split == "train"]


def caption_hash(caption_lists: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(caption_lists).encode()).hexdigest()


def build_frozen_models(caption_lists: list[list[str]], cfg: PipelineConfig):
    """(tokenizer, lm): the tokenizer over the training captions and the
    frozen tiny LM at its seeded initial weights. prepare-similarity
    pretrains the LM on those captions and stores it (save_frozen_lm);
    every later command restores the stored weights into it
    (restore_frozen_lm)."""
    tokenizer = TinyTokenizer([c for caps in caption_lists for c in caps])
    return tokenizer, TinyCausalLm(tokenizer.vocab_size, cfg)


def lm_metadata(lm: TinyCausalLm, caption_lists: list[list[str]],
                cfg: PipelineConfig) -> dict:
    return {"lm_weight_hash": lm.weight_hash(),
            "lm_caption_hash": caption_hash(caption_lists),
            "lm_config_hash": config_hash(cfg, lm.KEYS)}


def save_frozen_lm(path: str, lm: TinyCausalLm,
                   caption_lists: list[list[str]], cfg: PipelineConfig):
    archive.write_archive(path, lm.snapshot(), {
        "kind": "frozen_lm", **lm_metadata(lm, caption_lists, cfg)})


@contextlib.contextmanager
def _rerun(command: str):
    """The scope of the read and of every check of a file that `command`
    writes: a missing, malformed or stale file is an ArchiveFormatError
    ending in "; rerun <command>", which no other code appends."""
    try:
        yield
    except (OSError, archive.ArchiveFormatError) as e:
        raise archive.ArchiveFormatError(f"{e}; rerun {command}") from None


def _load(path: str, fields: dict, require=()):
    """(tensors, metadata) of the archive at `path`, with the tensors in
    `require` and the metadata `fields`."""
    tensors, meta = archive.load_checkpoint(path, require)
    archive.require_keys(f"{path} metadata", meta, fields,
                         archive.ArchiveFormatError)
    return tensors, meta


def _check_hash(path: str, what: str, stored: str | None, keys,
                cfg: PipelineConfig):
    """Refuse the file at `path` unless `stored` is the current config's
    hash of `keys`; `what` ("frozen LM built with") says what it hashed."""
    want = config_hash(cfg, keys)
    if stored != want:
        raise archive.ArchiveFormatError(
            f"{path}: {what} config hash {stored} of "
            f"{', '.join(sorted(keys))}; the current config has {want}")


# each stored part's name in load errors
_PART_NAMES = {TinyCausalLm: "frozen LM", retrieval.EmbedderParams: "embedder",
               decoder.DecoderParams: "decoder"}


def _restore(path: str, part, tensors: dict[str, np.ndarray],
             stored_hash: str | None, cfg: PipelineConfig):
    """Copy the `tensors` of the checkpoint at `path` into `part` once
    `stored_hash` is the current config's hash of part.KEYS."""
    _check_hash(path, f"{_PART_NAMES[type(part)]} built with", stored_hash,
                part.KEYS, cfg)
    try:
        part.restore(tensors)
    except archive.ArchiveFormatError as e:
        raise archive.ArchiveFormatError(f"{path}: {e}") from None


def restore_frozen_lm(path: str, tensors: dict[str, np.ndarray], meta: dict,
                      cfg: PipelineConfig, caption_lists: list[list[str]],
                      captions_from: str):
    """(tokenizer, lm) from the lm.* tensors and LM metadata of the
    checkpoint at `path`, checked against the current config and against
    the training captions read from `captions_from`, from which the
    tokenizer is rebuilt."""
    if meta["lm_caption_hash"] != caption_hash(caption_lists):
        raise archive.ArchiveFormatError(
            f"{path}: frozen LM was pretrained on other training captions "
            f"than those of {captions_from}")
    tokenizer, lm = build_frozen_models(caption_lists, cfg)
    _restore(path, lm, tensors, meta["lm_config_hash"], cfg)
    if lm.weight_hash() != meta["lm_weight_hash"]:
        raise archive.ArchiveFormatError(
            f"{path}: lm.* tensors do not match lm_weight_hash")
    return tokenizer, lm


def load_frozen_lm(cfg: PipelineConfig, labels_path: str,
                   caption_lists: list[list[str]], captions_from: str):
    """(tokenizer, lm) that prepare-similarity stored beside `labels_path`,
    checked as in restore_frozen_lm."""
    path = os.path.join(os.path.dirname(labels_path), FROZEN_LM_FILE)
    with _rerun("prepare-similarity"):
        tensors, meta = _load(path, LM_META_FIELDS)
        return restore_frozen_lm(path, tensors, meta, cfg, caption_lists,
                                 captions_from)


# ---------------------------------------------------------------------------
# similarity labels
# ---------------------------------------------------------------------------

def compute_similarity(items: list[DatasetItem], tokenizer: TinyTokenizer,
                       lm: TinyCausalLm, cfg: PipelineConfig):
    """(raw, labels) over the primary caption of every item: the raw
    (n, n) scores, and labels, the (n, n) bool similar-caption matrix of
    their min-max normalization."""
    caps = [tokenizer.encode(it.caption) for it in items]
    raw = pairwise_similarity([f[:len(cap)].T.copy()
                               for f, cap in zip(lm.features(caps), caps)])
    return raw, label_similar(normalize_minmax(raw), cfg.similarity_threshold)


def save_similarity(path: str, items: list[DatasetItem], raw: np.ndarray,
                    labels: np.ndarray, cfg: PipelineConfig):
    """Write the scores and labels, and a sidecar naming their items, the
    threshold and the config hash of the frozen LM that scored them."""
    archive.write_archive(path, {"scores_raw": raw,
                                 "labels": labels.astype(np.float64)}, {})
    archive.write_sidecar(path, {
        "ids": [it.id for it in items],
        "threshold": cfg.similarity_threshold,
        "lm_config_hash": config_hash(cfg, TinyCausalLm.KEYS)})


SIMILARITY_TENSORS = ("scores_raw", "labels")


def load_similarity(path: str, items: list[DatasetItem], cfg: PipelineConfig):
    """(raw scores, (n, n) bool labels) at `cfg`'s threshold and frozen LM
    over `items`, whose ids must be those of the archive's sidecar, in
    order. Other tensors are ignored. A sidecar without lm_config_hash,
    as every archive old enough to hold scores_normalized has, is refused
    like one of another frozen LM."""
    with _rerun("prepare-similarity"):
        tensors = archive.read_archive(path, require=SIMILARITY_TENSORS)
        side = archive.read_sidecar(path, {"ids": archive.IDS,
                                           "threshold": archive.NUMBER})
        if side["threshold"] != cfg.similarity_threshold:
            raise archive.ArchiveFormatError(
                f"{path}: labels made at similarity.threshold = "
                f"{side['threshold']!r}, the current config has "
                f"{cfg.similarity_threshold!r}")
        # archives written before the hash was stored hold none
        _check_hash(path, "labels scored by a frozen LM of",
                    side.get("lm_config_hash"), TinyCausalLm.KEYS, cfg)
        n = len(side["ids"])
        for name in SIMILARITY_TENSORS:
            if tensors[name].shape != (n, n):
                raise archive.ArchiveFormatError(
                    f"{path}: {name} has shape {tensors[name].shape}, "
                    f"expected ({n}, {n}) for the {n} ids in its sidecar")
        if side["ids"] != [it.id for it in items]:
            raise archive.ArchiveFormatError(
                f"{path}: similarity archive ids do not match the manifest")
    return tensors["scores_raw"], tensors["labels"] > 0.5


# ---------------------------------------------------------------------------
# training artifacts
# ---------------------------------------------------------------------------

def history_tsv(history: list[dict]) -> str:
    lines = ["epoch\ttrain_loss\tval_loss\tlr"]
    for h in history:
        lines.append(f"{h['epoch']}\t{h['train_loss']!r}\t{h['val_loss']!r}"
                     f"\t{h['lr']!r}")
    return "\n".join(lines) + "\n"


def negatives_tsv(selections) -> str:
    lines = ["anchor\tnegative\td_ap\td_an\tsemi_hard_available\tfallback"]
    for s in selections:
        lines.append(f"{s.anchor_id}\t{s.negative_id}\t{s.d_ap!r}\t{s.d_an!r}"
                     f"\t{int(s.fallback == 'none')}\t{s.fallback}")
    return "\n".join(lines) + "\n"


def save_training(out_dir: str, kind: str, cfg: PipelineConfig, seed: int,
                  result, tensors: dict[str, np.ndarray], meta: dict):
    """Write <kind>.ckpt, the `tensors` with the run's metadata and `meta`,
    and <kind>_curve.tsv, the per-epoch losses of the training `result`."""
    os.makedirs(out_dir, exist_ok=True)
    archive.write_archive(os.path.join(out_dir, f"{kind}.ckpt"), tensors, {
        "config_hash": config_hash(cfg, result.params.KEYS), "seed": seed,
        "epoch": result.best_epoch, "val_loss": result.best_val_loss,
        "kind": kind, **meta})
    archive.atomic_write_bytes(os.path.join(out_dir, f"{kind}_curve.tsv"),
                               history_tsv(result.history).encode())


def run_train_retrieval(cfg: PipelineConfig, items: list[DatasetItem],
                        labels: np.ndarray, seed: int, out_dir: str):
    result = retrieval.train_retrieval(items, labels, cfg, seed)
    save_training(out_dir, "retrieval", cfg, seed, result,
                  result.params.snapshot(), {})
    archive.atomic_write_bytes(os.path.join(out_dir, "negatives.tsv"),
                               negatives_tsv(result.negative_log).encode())
    index = retrieval.build_index(result.params, items)
    save_index(os.path.join(out_dir, "index.ract"), index)
    return result, index


def save_index(path: str, index: retrieval.RetrievalIndex):
    archive.write_archive(path, {"embeddings": index.embeddings},
                          {"ids": index.ids, "captions": index.captions})


def load_index(cfg: PipelineConfig, path: str) -> retrieval.RetrievalIndex:
    """The index at `path`: finite embedding rows of the embedder's width,
    one per id and caption list, and no id twice."""
    with _rerun("train-retrieval"):
        tensors, meta = _load(path, {"ids": archive.IDS,
                                     "captions": archive.TEXT_LISTS},
                              require=("embeddings",))
        emb, ids, captions = (tensors["embeddings"], meta["ids"],
                              meta["captions"])
        width = cfg.model_d_a * cfg.model_t
        if emb.ndim != 2 or emb.shape[1] != width:
            fault = (f"embeddings of shape {emb.shape}, not rows of "
                     f"model.D_a * model.T = {width} values")
        elif not len(ids) == len(captions) == len(emb):
            fault = (f"{len(ids)} ids, {len(captions)} captions for "
                     f"{len(emb)} embedding rows")
        elif not np.isfinite(emb).all():
            fault = "non-finite embeddings"
        elif len(set(ids)) < len(ids):
            fault = "repeated ids"
        else:
            return retrieval.RetrievalIndex(ids, emb, captions)
        raise archive.ArchiveFormatError(f"{path}: {fault}")


def load_retrieval_params(cfg: PipelineConfig, path: str):
    """The frozen embedder params of a retrieval checkpoint."""
    with _rerun("train-retrieval"):
        tensors, meta = _load(path, {"config_hash": archive.STRING})
        params = retrieval.EmbedderParams(cfg, np.random.default_rng(0))
        _restore(path, params, tensors, meta["config_hash"], cfg)
    return params


def run_train_decoder(cfg: PipelineConfig, items: list[DatasetItem],
                      labels: np.ndarray, lm: TinyCausalLm,
                      tokenizer: TinyTokenizer, seed: int, out_dir: str):
    """Train the decoder and write decoder.ckpt, which also holds the frozen
    LM (lm.* tensors and hashes): with the training captions, all that
    generation needs."""
    result = decoder.train_decoder(lm, tokenizer, items, labels, cfg, seed)
    save_training(out_dir, "decoder", cfg, seed, result,
                  {**result.params.snapshot(), **lm.snapshot()},
                  lm_metadata(lm, train_captions(items), cfg))
    return result


def load_decoder(cfg: PipelineConfig, path: str,
                 caption_lists: list[list[str]], captions_from: str):
    """(tokenizer, lm, decoder params), all frozen, from a decoder
    checkpoint; its frozen LM is checked as in restore_frozen_lm."""
    with _rerun("train-decoder"):
        tensors, meta = _load(path, {"config_hash": archive.STRING,
                                     **LM_META_FIELDS})
        tokenizer, lm = restore_frozen_lm(path, tensors, meta, cfg,
                                          caption_lists, captions_from)
        params = decoder.DecoderParams(cfg, lm, np.random.default_rng(0))
        _restore(path, params, tensors, meta["config_hash"], cfg)
    return tokenizer, lm, params


# ---------------------------------------------------------------------------
# guidance selection
# ---------------------------------------------------------------------------

def retrieved_guidance(embedder, index: retrieval.RetrievalIndex,
                       phis: np.ndarray, k: int,
                       excludes: list[str | None]) -> list[list[str]]:
    """For each of the stacked (N, D_a, T) features phis, the top-K captions
    by embedding distance, ascending; excludes[n] leaves item n's own
    training item out. All N items are embedded in one batch and ranked in
    one retrieve_topk call."""
    queries = retrieval.embed_batch(embedder, phis).data
    return [[cap for _, _, cap in hits]
            for hits in retrieval.retrieve_topk(index, queries, k, excludes)]


def oracle_guidance(scores: np.ndarray, items: list[DatasetItem],
                    query_ids: list[str], k: int) -> list[list[str]]:
    """For each id of `query_ids`, its top-K training captions by caption
    similarity, the raw (n, n) `scores` of prepare-similarity, ranked like
    retrieved guidance in one rank_topk call; a training item skips itself."""
    position = {it.id: i for i, it in enumerate(items)}
    try:
        queries = [position[q] for q in query_ids]
    except KeyError as e:
        raise archive.ManifestError(
            f"unknown query id {e.args[0]!r}") from None
    train = [i for i, it in enumerate(items) if it.split == "train"]
    ranked = retrieval.rank_topk(-scores[queries][:, train],
                                 [items[i].id for i in train], k, query_ids)
    return [[items[train[j]].caption for j in top] for top in ranked]


# ---------------------------------------------------------------------------
# evaluation scopes
# ---------------------------------------------------------------------------

def evaluate_scope(scope: str, cfg: PipelineConfig, items: list[DatasetItem],
                   split: str, embedder, index, lm, tokenizer, dec_params,
                   scores: np.ndarray | None):
    """Scope i: generate with retrieved guidance. Scope ii: emit the top-1
    retrieved caption. Scope iii: generate with oracle guidance.
    None stands for a part the scope does not read: only scopes i and iii
    read lm, tokenizer and dec_params, only scope iii the raw `scores`.
    Returns (candidates, eval_ids, EvalReport)."""
    if scope not in ("i", "ii", "iii"):
        raise ValueError(f"unknown scope {scope!r}")
    eval_items = (items if split == "all"
                  else [it for it in items if it.split == split])
    if not eval_items:
        raise TrainingError(f"no items in split {split!r}")

    phis = np.stack([item.features for item in eval_items])
    ids = [item.id for item in eval_items]
    if scope == "ii":
        candidates = [caps[0] for caps in
                      retrieved_guidance(embedder, index, phis, 1, ids)]
    else:
        if scope == "i":
            guidance = retrieved_guidance(embedder, index, phis,
                                          cfg.retrieval_k, ids)
        else:
            guidance = oracle_guidance(scores, items, ids, cfg.retrieval_k)
        candidates = decoder.generate_captions(
            lm, tokenizer, dec_params, phis, guidance, cfg.generate_beam,
            cfg.decoder_max_len)
    report = evaluate_corpus(candidates,
                             [item.captions for item in eval_items])
    return candidates, ids, report


def save_scope_outputs(out_dir: str, scope: str, ids: list[str],
                       candidates: list[str], report: EvalReport):
    os.makedirs(out_dir, exist_ok=True)
    rows = "\n".join(json.dumps({"id": i, "text": c}, sort_keys=True)
                     for i, c in zip(ids, candidates)) + "\n"
    archive.atomic_write_bytes(
        os.path.join(out_dir, f"scope_{scope}_candidates.jsonl"),
        rows.encode())
    archive.atomic_write_bytes(
        os.path.join(out_dir, f"scope_{scope}_report.json"),
        report.to_json().encode())
    archive.atomic_write_bytes(
        os.path.join(out_dir, f"scope_{scope}_table.tsv"),
        report.table().encode())
