"""Deterministic stand-ins for the frozen pretrained models.

- TinyTokenizer: word-level vocabulary built from the training captions.
- TinyCausalLm: a small causal Transformer LM over sequences of at most
  LM_MAX_LEN tokens, built from the lm.* and model.D_l config keys and frozen
  like every part; pretrain() trains it for a fixed budget on the training
  captions, each Adam step unfreezing it for that step only. It serves both
  as the frozen language model for the decoder and as the text encoder
  behind the caption-similarity scores.
- TinyAudioExtractor: a frozen seeded generator standing in for a pretrained
  audio feature extractor.
- generate_synthetic_dataset: clustered audio features with
  cluster-consistent captions, written in the manifest + archive formats.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from . import archive
from .autodiff import Tensor
from .config import KEY_TO_FIELD, LM_MAX_LEN, PipelineConfig
from .layers import Adam, EncoderLayer, ParamContainer
from .metrics import normalize_words

PAD, BOS, EOS, SEP, UNK = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<sep>", "<unk>")

# token identity must dominate position in the LM features, otherwise
# greedy token matching on them degenerates to position matching
EMB_STD, POS_SCALE = 0.4, 0.1
PRETRAIN_LR = 1e-3


class TinyTokenizer:
    """Word-level tokenizer over a fixed vocabulary plus special tokens."""

    def __init__(self, texts: list[str]):
        self.itos = list(SPECIAL_TOKENS) + sorted(
            {w for t in texts for w in normalize_words(t)})
        self.stoi = {w: i for i, w in enumerate(self.itos)}
        self.vocab_size = len(self.itos)

    def encode(self, text: str) -> list[int]:
        return [self.stoi.get(w, UNK) for w in normalize_words(text)]

    def decode(self, ids: list[int]) -> str:
        return " ".join(self.itos[i] for i in ids
                        if i >= len(SPECIAL_TOKENS))


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


class TinyCausalLm(ParamContainer):
    """Causal Transformer LM used frozen: features() exposes the pre-head
    representation, head_matrix() the (tied) token-prediction weights. It is
    built frozen, from initial weights seeded by lm.seed."""

    prefix = "lm."
    # lm.pretrain_epochs too: every command loads the LM already pretrained
    KEYS = ("model.D_l", *(k for k in KEY_TO_FIELD if k.startswith("lm.")))

    def __init__(self, vocab_size: int, cfg: PipelineConfig):
        rng = np.random.default_rng(cfg.lm_seed)
        self.vocab_size = vocab_size
        self.d_model = d_model = cfg.model_d_l
        self.emb = Tensor(rng.normal(0.0, EMB_STD, size=(vocab_size, d_model)))
        self.pos = POS_SCALE * sinusoidal_positions(LM_MAX_LEN, d_model)
        # stored as lm.layer0.*, lm.layer1.*, ...
        self.layer = [EncoderLayer(d_model, cfg.lm_heads, cfg.lm_ff, rng)
                      for _ in range(cfg.lm_layers)]

    # -- forward -----------------------------------------------------------

    def _forward(self, ids: np.ndarray) -> Tensor:
        """ids (..., L) -> hidden states (..., L, d_model)."""
        length = ids.shape[-1] if ids.ndim else 0
        if length == 0:
            raise ValueError("token ids must be nonempty sequences")
        if length > LM_MAX_LEN:
            raise ValueError(
                f"sequence length {length} > max_len {LM_MAX_LEN}")
        if np.any(ids < 0) or np.any(ids >= self.vocab_size):
            raise ValueError("token id out of vocabulary")
        h = self.emb[ids] + Tensor(self.pos[:length])
        for layer in self.layer:
            h = layer(h, causal=True)
        return h

    def features(self, token_ids) -> np.ndarray:
        """Frozen-LM features of token ids in one of two forms. An array
        (..., L) holds rows of one length and gives (..., L, d_model) in one
        forward. A sequence of N rows of any lengths gives
        (N, L_max, d_model): each row is encoded at its own length, the rows
        of one length in one forward, and zero-padded past it, so a row's
        features depend only on its own ids."""
        if isinstance(token_ids, np.ndarray):
            return self._forward(np.asarray(token_ids, dtype=np.int64)).data
        rows = [np.asarray(row, dtype=np.int64) for row in token_ids]
        out = np.zeros((len(rows), max(map(len, rows)), self.d_model))
        for length in {len(row) for row in rows}:
            idx = [n for n, row in enumerate(rows) if len(row) == length]
            batch = np.stack([rows[n] for n in idx])
            out[idx, :length] = self._forward(batch).data
        return out

    def head_matrix(self) -> np.ndarray:
        """Token-prediction weights (d_model, vocab), tied to the embedding."""
        return self.emb.data.T.copy()

    def weight_hash(self) -> int:
        import hashlib
        h = hashlib.sha256()
        for _, p in self.named_params():
            h.update(p.data.tobytes())
        return int.from_bytes(h.digest()[:8], "little")

    # -- pretraining -------------------------------------------------------

    def pretrain(self, token_seqs: list[list[int]], epochs: int):
        """`epochs` full-batch Adam steps of next-token prediction on the
        BOS-wrapped sequences."""
        opt = Adam(self)
        # bucket by length so each bucket trains as one batch
        buckets: dict[int, list[list[int]]] = {}
        for seq in token_seqs:
            wrapped = [BOS] + list(seq) + [EOS]
            buckets.setdefault(len(wrapped), []).append(wrapped)

        def epoch_loss() -> Tensor:
            """Mean next-token cross-entropy over all buckets."""
            total = None
            n_pos = 0
            for length in sorted(buckets):
                batch = np.asarray(buckets[length], dtype=np.int64)
                h = self._forward(batch[:, :-1])
                logits = h @ self.emb.swapaxes(0, 1)  # tied head
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
            opt.minimize(epoch_loss, f"LM pretraining loss at epoch {epoch}",
                         PRETRAIN_LR)


# ---------------------------------------------------------------------------
# audio feature stand-in and synthetic dataset
# ---------------------------------------------------------------------------

class TinyAudioExtractor:
    """Frozen map from an item descriptor (cluster id, item index) to a
    (D_a, T) feature matrix: a per-cluster pattern plus seeded item noise."""

    def __init__(self, d_a: int, t: int, num_clusters: int,
                 noise_level: float, seed: int):
        self.d_a = d_a
        self.t = t
        self.noise_level = noise_level
        self.seed = seed
        rng = np.random.default_rng([seed, 2024])
        base = rng.normal(0.0, 1.0, size=(num_clusters, d_a))
        drift = rng.normal(0.0, 0.2, size=(num_clusters, d_a, t))
        self.patterns = base[:, :, None] + drift  # (C, D_a, T)

    def extract(self, cluster_id: int, item_index: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, cluster_id, item_index])
        noise = rng.normal(0.0, self.noise_level, size=(self.d_a, self.t))
        return self.patterns[cluster_id] + noise


# word pools per cluster theme: (subjects, verbs, places)
_THEMES = [
    (["dog", "puppy", "hound"], ["barks", "growls", "howls"],
     ["yard", "kennel", "porch"]),
    (["engine", "motor", "truck"], ["rumbles", "revs", "idles"],
     ["road", "garage", "highway"]),
    (["rain", "drizzle", "storm"], ["patters", "pours", "drips"],
     ["roof", "window", "gutter"]),
    (["bird", "sparrow", "crow"], ["chirps", "sings", "caws"],
     ["tree", "garden", "forest"]),
    (["bell", "chime", "gong"], ["rings", "clangs", "tolls"],
     ["tower", "church", "hall"]),
    (["crowd", "audience", "children"], ["cheers", "claps", "shouts"],
     ["stadium", "street", "playground"]),
    (["saw", "drill", "hammer"], ["buzzes", "whirs", "pounds"],
     ["workshop", "site", "shed"]),
    (["wave", "surf", "tide"], ["crashes", "splashes", "roars"],
     ["shore", "beach", "rocks"]),
]

_TEMPLATES = [
    "a {s} {v} in the {p}",
    "the {s} {v} near the {p}",
    "a {s} {v} and {v2} in the {p}",
]


@dataclass
class SyntheticDatasetSpec:
    clusters: int = 4
    items_per_cluster: int = 25
    captions_per_item: int = 1
    templates_per_cluster: int = 3
    noise_level: float = 3.0
    seed: int = 0

    def __post_init__(self):
        for fld in fields(self):  # a bool is no count, nor a noise level
            value = getattr(self, fld.name)
            number = fld.type == "float"
            if type(value) not in ((int, float) if number else (int,)):
                raise ValueError(f"{fld.name} must be "
                                 f"{'a number' if number else 'an integer'}, "
                                 f"got {value!r}")
        if self.captions_per_item < 1:
            raise ValueError("captions_per_item must be >= 1")
        if not self.noise_level >= 0:  # NaN too
            raise ValueError(
                f"noise_level must be >= 0, got {self.noise_level!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.clusters < 2:
            raise ValueError("need at least 2 clusters")
        if self.clusters > len(_THEMES):
            raise ValueError(f"at most {len(_THEMES)} clusters supported")
        if self.clusters * self.items_per_cluster < 2:
            raise ValueError("degenerate dataset: fewer than 2 items")
        if not 1 <= self.templates_per_cluster <= len(_TEMPLATES):
            raise ValueError("templates_per_cluster out of range")

    @classmethod
    def from_file(cls, path: str) -> "SyntheticDatasetSpec":
        """The spec in the JSON object at `path`; errors name the file."""
        with open(path, "r", encoding="utf-8") as f:
            try:
                raw = json.load(f)
                if not isinstance(raw, dict):
                    raise ValueError("not a JSON object")
                unknown = set(raw) - {fld.name for fld in fields(cls)}
                if unknown:
                    raise ValueError(
                        f"unknown dataset-spec keys: {sorted(unknown)}")
                return cls(**raw)
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from None


def _caption_for(rng: np.random.Generator, theme, n_templates: int) -> str:
    subjects, verbs, places = theme
    tmpl = _TEMPLATES[rng.integers(0, n_templates)]
    v, v2 = rng.choice(verbs, size=2, replace=False)
    return tmpl.format(s=rng.choice(subjects), v=v, v2=v2,
                       p=rng.choice(places))


def _split_for(index: int) -> str:
    if index % 10 == 8:
        return "valid"
    if index % 10 == 9:
        return "test"
    return "train"


def generate_synthetic_dataset(spec: SyntheticDatasetSpec, d_a: int, t: int,
                               out_dir: str) -> list[archive.ManifestRow]:
    """Write manifest + per-item feature archives; returns the rows."""
    extractor = TinyAudioExtractor(d_a, t, spec.clusters, spec.noise_level,
                                   spec.seed)
    feat_dir = os.path.join(out_dir, "features")
    os.makedirs(feat_dir, exist_ok=True)
    rows = []
    for c in range(spec.clusters):
        for i in range(spec.items_per_cluster):
            item_id = f"c{c:02d}i{i:03d}"
            rng = np.random.default_rng([spec.seed, 7919, c, i])
            captions = [_caption_for(rng, _THEMES[c],
                                     spec.templates_per_cluster)
                        for _ in range(spec.captions_per_item)]
            feats = extractor.extract(c, i)
            rel = os.path.join("features", item_id + ".ract")
            archive.write_archive(os.path.join(out_dir, rel),
                                  {"features": feats}, {})
            rows.append(archive.ManifestRow(item_id, _split_for(i), rel,
                                            captions))
    archive.write_manifest(os.path.join(out_dir, "manifest.jsonl"), rows)
    return rows

