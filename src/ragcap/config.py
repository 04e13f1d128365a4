"""Flat key=value pipeline configuration.

Every hyperparameter lives here as a field of PipelineConfig with its
published default and its checks; a config file may override any subset.
Unknown keys are rejected, and a value that fails a check is a ConfigError
naming its key. Each run logs the fully resolved config and its hash so
artifacts can be traced back to settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math

from .archive import text_lines

log = logging.getLogger("ragcap.config")


# the longest token sequence the frozen LM takes; a beam prefix reaches
# decoder.max_len tokens
LM_MAX_LEN = 128


class ConfigError(ValueError):
    pass


# field checks: (valid, what a valid value is), as archive.require_keys
# takes them; every comparison is false for NaN, so each range rejects it
FINITE = (math.isfinite, "finite")
POSITIVE = (lambda v: v > 0, "> 0")
RATE = (lambda v: 0.0 <= v < 1.0, "in [0, 1)")


def at_least(low):
    return (lambda v: v >= low, f">= {low}")


def at_most(high):
    return (lambda v: v <= high, f"<= {high}")


def setting(default, *checks, key=None):
    """A dataclass field with its default and the checks its value must
    pass, in the order check_fields runs them; `key` is a config key other
    than the field name with its first "_" turned into "."."""
    return dataclasses.field(default=default,
                             metadata={"checks": checks, "key": key})


def check_fields(obj, error: type, name=lambda fld: fld.name):
    """Raise `error` "<name> must be <want>, got <value>!r" at the first
    field of the dataclass `obj`, in declaration order, whose value fails
    one of its setting's (valid, want) checks."""
    for fld in dataclasses.fields(obj):
        value = getattr(obj, fld.name)
        for valid, want in fld.metadata["checks"]:
            if not valid(value):
                raise error(f"{name(fld)} must be {want}, got {value!r}")


@dataclasses.dataclass
class PipelineConfig:
    """Every pipeline setting: its default, then its checks. Counts and
    widths are >= 1: a zero width divides by zero in an attention scale,
    and a negative count would act as 0."""

    # caption-pair similarity labeling; labels are min-max scores in [0, 1]
    # strictly above the threshold, so at 1 none is similar
    similarity_threshold: float = setting(0.7, RATE)
    # triplet retrieval training
    triplet_margin: float = setting(0.3, POSITIVE, FINITE)
    triplet_batch: int = setting(128, at_least(1))
    triplet_epochs: int = setting(200, at_least(0))
    triplet_lr: float = setting(1e-4, POSITIVE, FINITE)
    embed_dropout: float = setting(0.3, RATE)
    embed_heads: int = setting(4, at_least(1))
    embed_ff: int = setting(32, at_least(1))
    retrieval_k: int = setting(5, at_least(1), key="retrieval.K")
    # decoder training / generation; lambda is the label smoothing rate
    decoder_lambda: float = setting(0.1, RATE)
    decoder_batch: int = setting(512, at_least(1))
    decoder_epochs: int = setting(200, at_least(0))
    decoder_lr_max: float = setting(1e-4, POSITIVE, FINITE)
    decoder_lr_min: float = setting(1e-6, at_least(0), FINITE)
    decoder_lr_period: int = setting(20, at_least(1))
    decoder_dropout: float = setting(0.3, RATE)
    decoder_d_r: int = setting(60, at_least(1), key="decoder.D_r")
    decoder_heads: int = setting(4, at_least(1))
    decoder_max_len: int = setting(24, at_least(1), at_most(LM_MAX_LEN))
    generate_beam: int = setting(4, at_least(1))
    # model dims (desk-scale defaults; set the published large values when
    # ingesting real precomputed features)
    model_d_a: int = setting(8, at_least(1), key="model.D_a")
    model_t: int = setting(16, at_least(1), key="model.T")
    model_d_l: int = setting(32, at_least(1), key="model.D_l")
    # frozen tiny-LM stand-in; numpy's generators take no negative seed
    lm_layers: int = setting(2, at_least(0))
    lm_heads: int = setting(4, at_least(1))
    lm_ff: int = setting(64, at_least(1))
    lm_pretrain_epochs: int = setting(30, at_least(0))
    lm_seed: int = setting(7, at_least(0))

    def __post_init__(self):
        # each attention splits its width evenly over its heads; checked
        # first, so that a head count of 0 is named as one that cannot divide
        for key, dim_key in (("embed.heads", "model.D_a"),
                             ("decoder.heads", "model.D_l"),
                             ("decoder.heads", "decoder.D_r"),
                             ("lm.heads", "model.D_l")):
            heads = getattr(self, KEY_TO_FIELD[key])
            dim = getattr(self, KEY_TO_FIELD[dim_key])
            if heads < 1 or dim % heads:
                raise ConfigError(f"{key} = {heads!r} must divide "
                                  f"{dim_key} = {dim!r}")
        check_fields(self, ConfigError, _key)


def _key(fld: dataclasses.Field) -> str:
    """The config key of a PipelineConfig field."""
    return fld.metadata["key"] or fld.name.replace("_", ".", 1)


KEY_TO_FIELD = {_key(f): f.name for f in dataclasses.fields(PipelineConfig)}


def _parse_value(key: str, raw: str):
    kind = PipelineConfig.__annotations__[KEY_TO_FIELD[key]]
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
        lines = list(text_lines(path, ConfigError))
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    values = {}
    for lineno, line in lines:
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
