"""End-to-end orchestration shared by the CLI commands.

Every function here is a pure function of (config, inputs, seed); artifacts
carry no timestamps, so reruns are bitwise identical.
"""

from __future__ import annotations

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


def _load(path: str, command: str, fields: dict, require=()):
    """(tensors, metadata) of the archive at `path`, with the tensors in
    `require` and the metadata `fields`. A missing or malformed file is an
    ArchiveFormatError naming `command`, which writes it."""
    try:
        tensors, meta = archive.load_checkpoint(path, require)
        archive.require_keys(f"{path} metadata", meta, fields,
                             archive.ArchiveFormatError)
    except (OSError, archive.ArchiveFormatError) as e:
        raise archive.ArchiveFormatError(f"{e}; rerun {command}") from None
    return tensors, meta


# each stored part: its name in load errors, the commands that rebuild it
_BUILT_BY = {TinyCausalLm: ("frozen LM", "prepare-similarity, train-decoder"),
             retrieval.EmbedderParams: ("embedder", "train-retrieval"),
             decoder.DecoderParams: ("decoder", "train-decoder")}


def _restore(path: str, part, tensors: dict[str, np.ndarray],
             stored_hash: str | None, cfg: PipelineConfig):
    """Copy the `tensors` of the checkpoint at `path` into `part` once
    `stored_hash` is the current config's hash of part.KEYS."""
    want = config_hash(cfg, part.KEYS)
    if stored_hash != want:
        name, commands = _BUILT_BY[type(part)]
        raise archive.ArchiveFormatError(
            f"{path}: {name} built with config hash {stored_hash} of "
            f"{', '.join(sorted(part.KEYS))}; the current config has "
            f"{want}; rerun {commands}")
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
    tensors, meta = _load(path, "prepare-similarity", LM_META_FIELDS)
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
    tensors = archive.read_archive(path, require=SIMILARITY_TENSORS)
    side = archive.read_sidecar(path, {"ids": archive.IDS,
                                       "threshold": archive.NUMBER})
    if side["threshold"] != cfg.similarity_threshold:
        raise archive.ArchiveFormatError(
            f"{path}: labels made at similarity.threshold = "
            f"{side['threshold']!r}, the current config has "
            f"{cfg.similarity_threshold!r}; rerun prepare-similarity")
    # archives written before the hash was stored hold none
    stored = side.get("lm_config_hash")
    want = config_hash(cfg, TinyCausalLm.KEYS)
    if stored != want:
        raise archive.ArchiveFormatError(
            f"{path}: labels scored by a frozen LM of config hash {stored} "
            f"of {', '.join(sorted(TinyCausalLm.KEYS))}; the current config "
            f"has {want}; rerun prepare-similarity")
    n = len(side["ids"])
    for name in SIMILARITY_TENSORS:
        if tensors[name].shape != (n, n):
            raise archive.ArchiveFormatError(
                f"{path}: {name} has shape {tensors[name].shape}, expected "
                f"({n}, {n}) for the {n} ids in its sidecar")
    if side["ids"] != [it.id for it in items]:
        raise archive.ManifestError(
            "similarity archive ids do not match the manifest")
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


def load_index(path: str) -> retrieval.RetrievalIndex:
    """The index at `path`, its metadata checked against its rows."""
    tensors, meta = _load(path, "train-retrieval",
                          {"ids": archive.IDS, "captions": archive.TEXT_LISTS},
                          require=("embeddings",))
    emb = tensors["embeddings"]
    if not len(meta["ids"]) == len(meta["captions"]) == len(emb):
        raise archive.ArchiveFormatError(
            f"{path}: {len(meta['ids'])} ids, {len(meta['captions'])} "
            f"captions for {len(emb)} embedding rows; rerun train-retrieval")
    return retrieval.RetrievalIndex(meta["ids"], emb, meta["captions"])


def load_retrieval_params(cfg: PipelineConfig, path: str):
    """The frozen embedder params of a retrieval checkpoint."""
    tensors, meta = _load(path, "train-retrieval",
                          {"config_hash": archive.STRING})
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
    tensors, meta = _load(path, "train-decoder",
                          {"config_hash": archive.STRING, **LM_META_FIELDS})
    tokenizer, lm = restore_frozen_lm(path, tensors, meta, cfg, caption_lists,
                                      captions_from)
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
    training item out. All N items are embedded in one batch."""
    queries = retrieval.embed_batch(embedder, phis).data
    return [[cap for _, _, cap in retrieval.retrieve_topk(index, q, k, x)]
            for q, x in zip(queries, excludes, strict=True)]


def oracle_guidance(scores: np.ndarray, items: list[DatasetItem],
                    query_pos: int, k: int) -> list[str]:
    """Top-K training captions by ground-truth caption similarity: the raw
    (n, n) `scores` of prepare-similarity."""
    train_pos = [i for i, it in enumerate(items)
                 if it.split == "train" and i != query_pos]
    ranked = sorted(train_pos,
                    key=lambda i: (-scores[query_pos, i], items[i].id))
    return [items[i].caption for i in ranked[:k]]


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
    if split == "all":
        eval_items = list(enumerate(items))
    else:
        eval_items = [(i, it) for i, it in enumerate(items)
                      if it.split == split]
    if not eval_items:
        raise TrainingError(f"no items in split {split!r}")

    phis = np.stack([item.features for _, item in eval_items])
    ids = [item.id for _, item in eval_items]
    if scope == "ii":
        candidates = [caps[0] for caps in
                      retrieved_guidance(embedder, index, phis, 1, ids)]
    else:
        if scope == "i":
            guidance = retrieved_guidance(embedder, index, phis,
                                          cfg.retrieval_k, ids)
        else:
            guidance = [oracle_guidance(scores, items, pos, cfg.retrieval_k)
                        for pos, _ in eval_items]
        candidates = decoder.generate_captions(
            lm, tokenizer, dec_params, phis, guidance, cfg.generate_beam,
            cfg.decoder_max_len)
    report = evaluate_corpus(candidates,
                             [item.captions for _, item in eval_items])
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
