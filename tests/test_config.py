import dataclasses
import glob
import os
import re

import numpy as np
import pytest

from ragcap.config import (ConfigError, KEY_TO_FIELD, LM_MAX_LEN,
                           PipelineConfig, config_hash, load_config,
                           resolved_text)
from ragcap.decoder import DecoderParams
from ragcap.reference_models import TinyCausalLm
from ragcap.retrieval import EmbedderParams

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "ragcap")

# resolved_text(PipelineConfig()): the published key spellings and defaults.
# A change here changes the config hash stored in every checkpoint.
DEFAULT_RESOLVED = """\
decoder.D_r=60
decoder.batch=512
decoder.dropout=0.3
decoder.epochs=200
decoder.heads=4
decoder.lambda=0.1
decoder.lr_max=0.0001
decoder.lr_min=1e-06
decoder.lr_period=20
decoder.max_len=24
embed.dropout=0.3
embed.ff=32
embed.heads=4
generate.beam=4
lm.ff=64
lm.heads=4
lm.layers=2
lm.pretrain_epochs=30
lm.seed=7
model.D_a=8
model.D_l=32
model.T=16
retrieval.K=5
similarity.threshold=0.7
triplet.batch=128
triplet.epochs=200
triplet.lr=0.0001
triplet.margin=0.3
"""


def test_published_defaults():
    cfg = PipelineConfig()
    assert cfg.similarity_threshold == 0.7
    assert cfg.triplet_margin == 0.3
    assert cfg.triplet_batch == 128
    assert cfg.triplet_epochs == 200
    assert cfg.triplet_lr == 1e-4
    assert cfg.embed_dropout == 0.3
    assert cfg.retrieval_k == 5
    assert cfg.decoder_lambda == 0.1
    assert cfg.decoder_batch == 512
    assert cfg.decoder_epochs == 200
    assert cfg.decoder_lr_max == 1e-4
    assert cfg.decoder_lr_min == 1e-6
    assert cfg.decoder_lr_period == 20
    assert cfg.decoder_dropout == 0.3
    assert cfg.decoder_d_r == 60
    assert cfg.generate_beam == 4


def test_load_config_overrides(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\ntriplet.epochs = 3\ndecoder.lr_max = 5e-3\n")
    cfg = load_config(str(path))
    assert cfg.triplet_epochs == 3
    assert cfg.decoder_lr_max == 5e-3
    assert cfg.triplet_margin == 0.3  # untouched default


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    for line in ("triplet.momentum = 0.9\n", "model.vocab = 64\n"):
        path.write_text(line)
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(path))


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("triplet.epochs = many\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(str(path))


def test_missing_equals_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("triplet.epochs 3\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(str(path))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.cfg")


def test_int_keys_parse_as_int(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("decoder.epochs = 7\nretrieval.K = 3\n")
    cfg = load_config(str(path))
    assert isinstance(cfg.decoder_epochs, int) and cfg.decoder_epochs == 7
    assert isinstance(cfg.retrieval_k, int) and cfg.retrieval_k == 3


def test_resolved_text_covers_all_keys_sorted():
    text = resolved_text(PipelineConfig())
    lines = text.strip().split("\n")
    keys = [line.split("=")[0] for line in lines]
    assert keys == sorted(KEY_TO_FIELD)


def test_default_resolved_text_and_hash_are_pinned():
    assert resolved_text(PipelineConfig()) == DEFAULT_RESOLVED
    assert config_hash(PipelineConfig()) == "f1956d7f744892d5"


def test_every_field_is_read_outside_config():
    code = ""
    for path in glob.glob(os.path.join(SRC, "*.py")):
        if os.path.basename(path) != "config.py":
            with open(path, encoding="utf-8") as f:
                code += f.read()
    unread = [f.name for f in dataclasses.fields(PipelineConfig)
              if not re.search(rf"\.{f.name}\b", code)]
    assert unread == []


def test_label_smoothing_range_validated():
    PipelineConfig(decoder_lambda=0.0)
    with pytest.raises(ConfigError):
        PipelineConfig(decoder_lambda=1.0)
    with pytest.raises(ConfigError):
        PipelineConfig(decoder_lambda=-0.1)


@pytest.mark.parametrize("field", ["embed_dropout", "decoder_dropout"])
def test_dropout_range_validated(field):
    PipelineConfig(**{field: 0.0})
    for bad in (1.0, -0.1, float("nan")):
        with pytest.raises(ConfigError, match=r"dropout must be in \[0, 1\)"):
            PipelineConfig(**{field: bad})


def test_beam_and_max_len_validated():
    with pytest.raises(ConfigError):
        PipelineConfig(generate_beam=0)
    with pytest.raises(ConfigError):
        PipelineConfig(decoder_max_len=0)
    with pytest.raises(ConfigError):
        dataclasses.replace(PipelineConfig(), generate_beam=0)


def test_max_len_fits_the_frozen_lm(tmp_path):
    """A beam prefix reaches decoder.max_len tokens, which the frozen LM
    must take."""
    path = tmp_path / "c.cfg"
    path.write_text(f"decoder.max_len = {LM_MAX_LEN}\n")
    assert load_config(str(path)).decoder_max_len == 128 == LM_MAX_LEN
    with pytest.raises(ConfigError, match=re.escape(
            "decoder.max_len must be <= 128, got 129")):
        PipelineConfig(decoder_max_len=LM_MAX_LEN + 1)


def test_threshold_range_validated():
    """Labels are min-max scores strictly above the threshold: at 1 no
    pair is similar."""
    PipelineConfig(similarity_threshold=0.0)
    for bad in (1.0, -0.5):
        with pytest.raises(ConfigError, match=re.escape(
                f"similarity.threshold must be in [0, 1), got {bad!r}")):
            PipelineConfig(similarity_threshold=bad)


@pytest.mark.parametrize("field", ["retrieval_k", "triplet_batch",
                                   "decoder_batch", "model_d_a", "model_t",
                                   "model_d_l", "decoder_d_r", "embed_ff",
                                   "lm_ff"])
def test_counts_validated(field):
    with pytest.raises(ConfigError, match="must be >= 1"):
        PipelineConfig(**{field: 0})


@pytest.mark.parametrize("field", ["lm_layers", "lm_pretrain_epochs",
                                   "triplet_epochs", "decoder_epochs"])
def test_epochs_and_layers_may_be_zero_not_negative(field):
    PipelineConfig(**{field: 0})
    with pytest.raises(ConfigError, match="must be >= 0"):
        PipelineConfig(**{field: -1})


@pytest.mark.parametrize("field", [f.name for f in
                                   dataclasses.fields(PipelineConfig)
                                   if f.type == "float"])
def test_every_float_key_must_be_finite(field):
    key = next(k for k, f in KEY_TO_FIELD.items() if f == field)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match=re.escape(key)):
            PipelineConfig(**{field: bad})


@pytest.mark.parametrize("values", [
    {"embed_heads": 3}, {"embed_heads": 0}, {"decoder_heads": 3},
    {"decoder_heads": 8, "decoder_d_r": 12}, {"lm_heads": 3},
    {"lm_heads": 4, "decoder_heads": 2, "model_d_l": 6}])
def test_heads_must_divide_attention_width(values):
    with pytest.raises(ConfigError, match="must divide"):
        PipelineConfig(**values)


def test_hash_changes_with_config():
    a = PipelineConfig()
    b = PipelineConfig(triplet_epochs=5)
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(PipelineConfig())


def test_shipped_desk_config_loads():
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "desk.cfg")
    cfg = load_config(path)
    assert cfg.triplet_epochs == 120
    assert cfg.decoder_d_r == 8


# ---------------------------------------------------------------------------
# the keys each stored part is built from
# ---------------------------------------------------------------------------

class RecordingConfig:
    """Delegates to a PipelineConfig and records every field read."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.fields_read = set()

    def __getattr__(self, name):
        self.fields_read.add(name)
        return getattr(self.cfg, name)


def _unchecked_keys(part, build) -> set[str]:
    """The config keys `build(cfg)` reads that `part.KEYS` leaves out."""
    cfg = RecordingConfig(PipelineConfig())
    build(cfg)
    assert cfg.fields_read, "the recording config saw no read"
    field_to_key = {f: k for k, f in KEY_TO_FIELD.items()}
    return {field_to_key[f] for f in cfg.fields_read} - set(part.KEYS)


def _stored_parts():
    """(part class, build(cfg)) for each part a checkpoint stores."""
    rng = np.random.default_rng(0)
    lm = TinyCausalLm(10, PipelineConfig())
    return {"lm": (TinyCausalLm, lambda cfg: TinyCausalLm(10, cfg)),
            "embedder": (EmbedderParams,
                         lambda cfg: EmbedderParams(cfg, rng)),
            "decoder": (DecoderParams,
                        lambda cfg: DecoderParams(cfg, lm, rng))}


@pytest.mark.parametrize("name", ["lm", "embedder", "decoder"])
def test_part_keys_cover_every_config_field_it_reads(name):
    part, build = _stored_parts()[name]
    assert set(part.KEYS) <= set(KEY_TO_FIELD)
    assert _unchecked_keys(part, build) == set()


def test_part_keys_check_sees_a_dropped_key(monkeypatch):
    part, build = _stored_parts()["embedder"]
    monkeypatch.setattr(part, "KEYS", tuple(k for k in part.KEYS
                                            if k != "embed.heads"))
    assert _unchecked_keys(part, build) == {"embed.heads"}
