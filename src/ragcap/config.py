"""Flat key=value pipeline configuration.

Every hyperparameter lives here with its published default; a config file may
override any subset. Unknown keys are rejected. Each run logs the fully
resolved config and its hash so artifacts can be traced back to settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math

log = logging.getLogger("ragcap.config")


# the longest token sequence the frozen LM takes; a beam prefix reaches
# decoder.max_len tokens
LM_MAX_LEN = 128


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class PipelineConfig:
    # caption-pair similarity labeling
    similarity_threshold: float = 0.7
    # triplet retrieval training
    triplet_margin: float = 0.3
    triplet_batch: int = 128
    triplet_epochs: int = 200
    triplet_lr: float = 1e-4
    embed_dropout: float = 0.3
    embed_heads: int = 4
    embed_ff: int = 32
    retrieval_k: int = dataclasses.field(default=5,
                                         metadata={"key": "retrieval.K"})
    # decoder training / generation
    decoder_lambda: float = 0.1
    decoder_batch: int = 512
    decoder_epochs: int = 200
    decoder_lr_max: float = 1e-4
    decoder_lr_min: float = 1e-6
    decoder_lr_period: int = 20
    decoder_dropout: float = 0.3
    decoder_d_r: int = dataclasses.field(default=60,
                                         metadata={"key": "decoder.D_r"})
    decoder_heads: int = 4
    decoder_max_len: int = 24
    generate_beam: int = 4
    # model dims (desk-scale defaults; set the published large values when
    # ingesting real precomputed features)
    model_d_a: int = dataclasses.field(default=8,
                                       metadata={"key": "model.D_a"})
    model_t: int = dataclasses.field(default=16, metadata={"key": "model.T"})
    model_d_l: int = dataclasses.field(default=32,
                                       metadata={"key": "model.D_l"})
    # frozen tiny-LM stand-in
    lm_layers: int = 2
    lm_heads: int = 4
    lm_ff: int = 64
    lm_pretrain_epochs: int = 30
    lm_seed: int = 7

    def __post_init__(self):
        # written as "not (valid)" so that NaN is rejected too
        if not self.triplet_margin > 0:
            raise ConfigError(
                f"triplet.margin must be > 0, got {self.triplet_margin!r}")
        # label smoothing and dropout rates; labels come from min-max
        # scores in [0, 1] above the threshold, so at 1 none is similar
        for key in ("decoder.lambda", "embed.dropout", "decoder.dropout",
                    "similarity.threshold"):
            value = getattr(self, KEY_TO_FIELD[key])
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{key} must be in [0, 1), got {value!r}")
        # counts and widths: a zero width divides by zero in an attention
        # scale, and a negative count would act as 0; numpy's generators
        # take no negative seed
        for low, keys in ((1, ("decoder.lr_period", "decoder.max_len",
                               "generate.beam", "retrieval.K",
                               "triplet.batch", "decoder.batch", "model.D_a",
                               "model.T", "model.D_l", "decoder.D_r",
                               "embed.ff", "lm.ff")),
                          (0, ("lm.layers", "lm.pretrain_epochs",
                               "triplet.epochs", "decoder.epochs",
                               "lm.seed"))):
            for key in keys:
                value = getattr(self, KEY_TO_FIELD[key])
                if value < low:
                    raise ConfigError(
                        f"{key} must be >= {low}, got {value!r}")
        if self.decoder_max_len > LM_MAX_LEN:
            raise ConfigError(f"decoder.max_len must be <= {LM_MAX_LEN}, got "
                              f"{self.decoder_max_len!r}")
        # a NaN threshold would also fail the labels' threshold check forever
        for key, name in KEY_TO_FIELD.items():
            value = getattr(self, name)
            if _FIELD_TYPES[name] == "float" and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        # each attention splits its width evenly over its heads
        for key, dim_key in (("embed.heads", "model.D_a"),
                             ("decoder.heads", "model.D_l"),
                             ("decoder.heads", "decoder.D_r"),
                             ("lm.heads", "model.D_l")):
            heads = getattr(self, KEY_TO_FIELD[key])
            dim = getattr(self, KEY_TO_FIELD[dim_key])
            if heads < 1 or dim % heads:
                raise ConfigError(f"{key} = {heads!r} must divide "
                                  f"{dim_key} = {dim!r}")


# config-file key -> dataclass field: the field name with its first "_"
# turned into ".", unless the field's metadata gives the published spelling
KEY_TO_FIELD = {f.metadata.get("key", f.name.replace("_", ".", 1)): f.name
                for f in dataclasses.fields(PipelineConfig)}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[KEY_TO_FIELD[key]]
    try:
        if kind == "int":
            return int(raw)
        return float(raw)
    except ValueError as e:
        raise ConfigError(f"bad value {raw!r} for {key}") from e


def load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    values = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in KEY_TO_FIELD:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[KEY_TO_FIELD[key]] = _parse_value(key, raw)
    return PipelineConfig(**values)


def resolved_text(cfg: PipelineConfig, keys=KEY_TO_FIELD) -> str:
    """Canonical key=value rendering of `keys` (default: all), sorted."""
    lines = []
    for key in sorted(keys):
        val = getattr(cfg, KEY_TO_FIELD[key])
        lines.append(f"{key}={val!r}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: PipelineConfig, keys=KEY_TO_FIELD) -> str:
    return hashlib.sha256(
        resolved_text(cfg, keys).encode("utf-8")).hexdigest()[:16]


def log_resolved(cfg: PipelineConfig):
    log.info("resolved config (hash %s):\n%s", config_hash(cfg),
             resolved_text(cfg).rstrip())
