import ctypes
import importlib
import json
import logging
import math
import os
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ragcap
from ragcap import autodiff, cli, pipeline
from conftest import version_1_archive
from ragcap.archive import load_checkpoint, read_archive, write_archive
from ragcap.cli import main
from ragcap.config import load_config
from ragcap.data import load_dataset
from ragcap.reference_models import TinyCausalLm
from ragcap.similarity import normalize_minmax

CONFIG = """\
model.D_a = 4
model.T = 6
lm.pretrain_epochs = 2
similarity.threshold = 0.7
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

SPEC = '{"clusters": 2, "items_per_cluster": 10, "seed": 1}'


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Full pipeline run in a temp workspace; artifacts shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "tiny.cfg").write_text(CONFIG)
    (root / "spec.json").write_text(SPEC)
    cfg = str(root / "tiny.cfg")
    data = str(root / "data")
    sim = str(root / "sim")
    ret = str(root / "ret")
    dec = str(root / "dec")

    assert main(["make-dataset", "--config", cfg,
                 "--spec", str(root / "spec.json"), "--out", data]) == 0
    manifest = os.path.join(data, "manifest.jsonl")
    assert main(["prepare-similarity", "--config", cfg,
                 "--manifest", manifest, "--out", sim]) == 0
    labels = os.path.join(sim, "similarity.ract")
    assert main(["train-retrieval", "--config", cfg, "--manifest", manifest,
                 "--labels", labels, "--seed", "0", "--out", ret]) == 0
    assert main(["train-decoder", "--config", cfg, "--manifest", manifest,
                 "--labels", labels, "--seed", "0", "--out", dec]) == 0
    return {"root": root, "cfg": cfg, "data": data, "manifest": manifest,
            "labels": labels, "ret": ret, "dec": dec}


def test_pipeline_artifacts_exist(ws):
    for path in ("ret/retrieval.ckpt", "ret/retrieval_curve.tsv",
                 "ret/negatives.tsv", "ret/index.ract",
                 "dec/decoder.ckpt", "dec/decoder_curve.tsv",
                 "data/manifest.jsonl", "sim/similarity.ract",
                 "sim/frozen_lm.ckpt"):
        assert (ws["root"] / path).exists(), path


def test_retrieve_command(ws, capsys):
    feats = os.path.join(ws["data"], "features", "c00i000.ract")
    code = main(["retrieve", "--config", ws["cfg"],
                 "--checkpoint", os.path.join(ws["ret"], "retrieval.ckpt"),
                 "--index", os.path.join(ws["ret"], "index.ract"),
                 "--query-features", feats, "-K", "3"])
    assert code == 0
    hits = json.loads(capsys.readouterr().out)
    assert len(hits) == 3
    dists = [h["distance"] for h in hits]
    assert dists == sorted(dists)
    assert all(set(h) == {"id", "distance", "caption"} for h in hits)


def test_retrieve_k_defaults_to_config(ws, capsys):
    feats = os.path.join(ws["data"], "features", "c00i000.ract")
    code = main(["retrieve", "--config", ws["cfg"],
                 "--checkpoint", os.path.join(ws["ret"], "retrieval.ckpt"),
                 "--index", os.path.join(ws["ret"], "index.ract"),
                 "--query-features", feats])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)) == 2  # retrieval.K


def test_retrieve_excludes_query_item(ws, capsys):
    feats = os.path.join(ws["data"], "features", "c00i000.ract")
    code = main(["retrieve", "--config", ws["cfg"],
                 "--checkpoint", os.path.join(ws["ret"], "retrieval.ckpt"),
                 "--index", os.path.join(ws["ret"], "index.ract"),
                 "--query-features", feats, "-K", "5",
                 "--exclude", "c00i000"])
    assert code == 0
    hits = json.loads(capsys.readouterr().out)
    assert "c00i000" not in [h["id"] for h in hits]


def test_generate_command(ws, capsys):
    feats = os.path.join(ws["data"], "features", "c01i008.ract")
    code = main(["generate", "--config", ws["cfg"],
                 "--checkpoint", os.path.join(ws["dec"], "decoder.ckpt"),
                 "--index", os.path.join(ws["ret"], "index.ract"),
                 "--features", feats,
                 "--retrieval-checkpoint",
                 os.path.join(ws["ret"], "retrieval.ckpt"),
                 "--beam", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert isinstance(out["caption"], str)
    assert len(out["guidance"]) == 2


def test_generate_oracle_guidance(ws, capsys):
    feats = os.path.join(ws["data"], "features", "c00i005.ract")
    code = main(["generate", "--config", ws["cfg"],
                 "--checkpoint", os.path.join(ws["dec"], "decoder.ckpt"),
                 "--index", os.path.join(ws["ret"], "index.ract"),
                 "--features", feats,
                 "--oracle-guidance", ws["labels"],
                 "--manifest", ws["manifest"], "--query-id", "c00i005",
                 "--beam", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["guidance"]) == 2


def test_loaded_parts_are_frozen(ws):
    cfg = load_config(ws["cfg"])
    items = load_dataset(ws["manifest"], cfg.model_d_a, cfg.model_t)
    embedder = pipeline.load_retrieval_params(
        cfg, os.path.join(ws["ret"], "retrieval.ckpt"))
    _, lm, dec = pipeline.load_decoder(
        cfg, os.path.join(ws["dec"], "decoder.ckpt"),
        pipeline.train_captions(items), ws["manifest"])
    for part in (embedder, lm, dec):
        assert not any(p.requires_grad for _, p in part.named_params())


def test_inference_records_no_tape(ws, monkeypatch, capsys):
    """retrieve, generate and evaluate run on frozen parts only."""
    taped = []
    make = autodiff._make

    def recording(*args):
        out = make(*args)
        taped.append(out.requires_grad)
        return out

    monkeypatch.setattr(autodiff, "_make", recording)
    feats = os.path.join(ws["data"], "features", "c00i005.ract")
    ckpt = os.path.join(ws["ret"], "retrieval.ckpt")
    index = os.path.join(ws["ret"], "index.ract")
    dec = os.path.join(ws["dec"], "decoder.ckpt")
    assert main(["retrieve", "--config", ws["cfg"], "--checkpoint", ckpt,
                 "--index", index, "--query-features", feats]) == 0
    assert main(["generate", "--config", ws["cfg"], "--checkpoint", dec,
                 "--index", index, "--features", feats,
                 "--retrieval-checkpoint", ckpt]) == 0
    assert main(["generate", "--config", ws["cfg"], "--checkpoint", dec,
                 "--index", index, "--features", feats,
                 "--oracle-guidance", ws["labels"],
                 "--manifest", ws["manifest"], "--query-id", "c00i005"]) == 0
    for scope in ("i", "ii", "iii"):
        assert main(["evaluate", "--config", ws["cfg"], "--scope", scope,
                     "--manifest", ws["manifest"], "--labels", ws["labels"],
                     "--retrieval-checkpoint", ckpt, "--index", index,
                     "--decoder-checkpoint", dec]) == 0
    assert taped and not any(taped)


def test_evaluate_scope(ws, capsys, tmp_path):
    out = str(tmp_path / "eval")
    code = main(["evaluate", "--config", ws["cfg"], "--scope", "i",
                 "--manifest", ws["manifest"], "--labels", ws["labels"],
                 "--retrieval-checkpoint",
                 os.path.join(ws["ret"], "retrieval.ckpt"),
                 "--index", os.path.join(ws["ret"], "index.ract"),
                 "--decoder-checkpoint",
                 os.path.join(ws["dec"], "decoder.ckpt"),
                 "--split", "test", "--out", out])
    assert code == 0
    table = capsys.readouterr().out
    assert table.split("\n")[0].startswith("B-1")
    assert os.path.exists(os.path.join(out, "scope_i_candidates.jsonl"))
    assert os.path.exists(os.path.join(out, "scope_i_report.json"))


def test_evaluate_candidate_files(ws, capsys, tmp_path):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    cands.write_text('{"id": "a", "text": "a dog barks"}\n'
                     '{"id": "b", "text": "rain falls"}\n')
    refs.write_text('{"id": "a", "texts": ["a dog barks"]}\n'
                    '{"id": "b", "texts": ["rain falls hard"]}\n')
    code = main(["evaluate", "--candidates", str(cands),
                 "--references", str(refs), "--out", str(tmp_path / "o")])
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    # unigram precision 1 with brevity penalty e^(1 - 6/5)
    assert report["bleu"][0] == pytest.approx(math.exp(1 - 6 / 5), abs=1e-6)
    assert "B-1" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_2_unknown_config_key(ws, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("triplet.momentum = 0.9\n")
    assert main(["make-dataset", "--config", str(bad),
                 "--out", str(tmp_path / "d")]) == 2


@pytest.mark.parametrize("line", [
    "triplet.margin = 0", "triplet.margin = nan", "decoder.lambda = 1.5",
    "decoder.lr_period = 0", "generate.beam = 0", "decoder.max_len = 0",
    "decoder.dropout = 1", "embed.dropout = -0.1", "lm.layers = -1",
    "decoder.epochs = -3", "triplet.lr = inf", "decoder.max_len = 129"])
def test_exit_2_out_of_range_config_value(ws, tmp_path, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG + line + "\n")
    assert main(["make-dataset", "--config", str(bad),
                 "--out", str(tmp_path / "d")]) == 2


@pytest.mark.parametrize("command, line", [
    ("prepare-similarity", "model.D_l = 0"),
    ("train-decoder", "decoder.D_r = 0"),
    ("prepare-similarity", "similarity.threshold = nan"),
    ("prepare-similarity", "lm.seed = -1"),
    ("prepare-similarity", "similarity.threshold = 1.0"),
    ("prepare-similarity", "similarity.threshold = -0.5")])
def test_exit_2_config_that_used_to_fail_later(ws, tmp_path, command, line):
    """A zero width divided by zero in an attention scale (exit 1), a NaN
    threshold wrote labels that no reader could accept (exit 3), numpy
    rejected a negative LM seed as a data error (exit 3), and a threshold
    of 1 (no pair similar) or below 0 (every pair) wrote labels that both
    trainers refused (exit 3)."""
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG + line + "\n")
    args = [command, "--config", str(bad), "--manifest", ws["manifest"],
            "--out", str(tmp_path / "out")]
    if command == "train-decoder":
        args += ["--labels", ws["labels"], "--seed", "0"]
    assert main(args) == 2
    assert not (tmp_path / "out").exists()


def test_exit_2_beam_zero(ws):
    feats = os.path.join(ws["data"], "features", "c00i003.ract")
    assert main(["generate", "--config", ws["cfg"],
                 "--checkpoint", os.path.join(ws["dec"], "decoder.ckpt"),
                 "--index", os.path.join(ws["ret"], "index.ract"),
                 "--features", feats, "--retrieval-checkpoint",
                 os.path.join(ws["ret"], "retrieval.ckpt"),
                 "--beam", "0"]) == 2


def test_exit_2_retrieve_k_zero(ws, capsys):
    feats = os.path.join(ws["data"], "features", "c00i000.ract")
    assert main(["retrieve", "--config", ws["cfg"],
                 "--checkpoint", os.path.join(ws["ret"], "retrieval.ckpt"),
                 "--index", os.path.join(ws["ret"], "index.ract"),
                 "--query-features", feats, "-K", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_exit_2_scope_without_inputs(ws):
    assert main(["evaluate", "--scope", "i"]) == 2
    assert main(["evaluate"]) == 2
    assert main(["evaluate", "--candidates", "x.jsonl"]) == 2


def test_exit_3_missing_manifest(ws, tmp_path):
    assert main(["prepare-similarity", "--config", ws["cfg"],
                 "--manifest", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "s")]) == 3


def test_exit_3_wordless_caption(ws, tmp_path, caplog):
    data = tmp_path / "data"
    shutil.copytree(ws["data"], data)
    manifest = data / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    row = json.loads(lines[2])
    row["captions"][0] = "!!!"
    lines[2] = json.dumps(row)
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "sim"
    assert main(["prepare-similarity", "--config", ws["cfg"],
                 "--manifest", str(manifest), "--out", str(out)]) == 3
    assert f"{manifest}:3: caption '!!!' has no words" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda row: 5, "not a JSON object"),
    (lambda row: {**row, "id": ["x"]}, "id is not a string"),
    (lambda row: {**row, "feature_path": 5}, "feature_path is not a string"),
    (lambda row: {**row, "captions": [None]},
     "captions is not a non-empty list of strings"),
    (lambda row: {**row, "split": ["train"]},
     "split is not one of train, valid, test"),
], ids=["row", "id", "feature_path", "null_caption", "split"])
def test_exit_3_manifest_row_invalid(ws, tmp_path, caplog, edit, message):
    data = tmp_path / "data"
    shutil.copytree(ws["data"], data)
    manifest = data / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    lines[2] = json.dumps(edit(json.loads(lines[2])))
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "sim"
    assert main(["prepare-similarity", "--config", ws["cfg"],
                 "--manifest", str(manifest), "--out", str(out)]) == 3
    assert f"{manifest}:3: {message}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ('{"clusters": "4"}', "clusters must be an integer, got '4'"),
    ('{"clusters": 2.5}', "clusters must be an integer, got 2.5"),
    ('{"items_per_cluster": true}',
     "items_per_cluster must be an integer, got True"),
    ('{"noise_level": "3"}', "noise_level must be a number, got '3'"),
    ("null", "not a JSON object"),
    ('{"captions_per_item": 0}', "captions_per_item must be >= 1"),
    ('{"noise_level": -1}', "noise_level must be >= 0, got -1"),
    ('{"noise_level": NaN}', "noise_level must be >= 0, got nan"),
    ('{"seed": -1}', "seed must be >= 0, got -1"),
], ids=["str", "float", "bool", "noise_str", "null", "no_captions",
        "noise_negative", "noise_nan", "seed_negative"])
def test_exit_3_bad_dataset_spec(tmp_path, caplog, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    out = tmp_path / "data"
    assert main(["make-dataset", "--spec", str(path), "--out", str(out)]) == 3
    assert f"{path}: {message}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["make-dataset", "train-retrieval",
                                     "train-decoder"])
def test_exit_2_negative_seed_flag(ws, tmp_path, capsys, command):
    """A negative --seed used to reach the dataset spec's check or numpy's
    generators (exit 3); the flag rejects it when the command line is
    parsed."""
    out = tmp_path / "out"
    args = [command, "--config", ws["cfg"], "--seed", "-1", "--out", str(out)]
    if command != "make-dataset":
        args += ["--manifest", ws["manifest"], "--labels", ws["labels"]]
    with pytest.raises(SystemExit) as exited:
        main(args)
    assert exited.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_exit_3_corrupt_index(ws, tmp_path):
    bad = tmp_path / "bad.ract"
    bad.write_bytes(b"not an archive at all")
    feats = os.path.join(ws["data"], "features", "c00i000.ract")
    assert main(["retrieve", "--config", ws["cfg"],
                 "--checkpoint", os.path.join(ws["ret"], "retrieval.ckpt"),
                 "--index", str(bad), "--query-features", feats]) == 3


def test_exit_3_checkpoint_metadata_not_an_object(ws, tmp_path, caplog):
    ckpt = os.path.join(ws["ret"], "retrieval.ckpt")
    raw = Path(ckpt).read_bytes()
    meta_len = int.from_bytes(raw[10:14], "little")
    bad = tmp_path / "list_meta.ckpt"
    bad.write_bytes(raw[:10] + (6).to_bytes(4, "little") + b"[1, 2]"
                    + raw[14 + meta_len:])
    feats = os.path.join(ws["data"], "features", "c00i000.ract")
    assert main(["retrieve", "--config", ws["cfg"], "--checkpoint", str(bad),
                 "--index", os.path.join(ws["ret"], "index.ract"),
                 "--query-features", feats]) == 3
    assert "not a JSON object" in caplog.text


def test_exit_3_nonfinite_features(ws, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(ws["data"], data)
    path = str(data / "features" / "c00i000.ract")
    feats = read_archive(path)["features"]
    feats[0, 0] = np.nan
    write_archive(path, {"features": feats}, {})
    out = tmp_path / "r"
    assert main(["train-retrieval", "--config", ws["cfg"],
                 "--manifest", str(data / "manifest.jsonl"),
                 "--labels", ws["labels"], "--seed", "0",
                 "--out", str(out)]) == 3
    assert not out.exists()


def _query_args(ws, command, feats):
    ret = ["--index", os.path.join(ws["ret"], "index.ract")]
    if command == "retrieve":
        return ["retrieve", "--config", ws["cfg"], "--checkpoint",
                os.path.join(ws["ret"], "retrieval.ckpt"), *ret,
                "--query-features", feats]
    return ["generate", "--config", ws["cfg"], "--checkpoint",
            os.path.join(ws["dec"], "decoder.ckpt"), *ret, "--features", feats,
            "--retrieval-checkpoint", os.path.join(ws["ret"], "retrieval.ckpt")]


@pytest.mark.parametrize("command", ["retrieve", "generate"])
@pytest.mark.parametrize("kind", ["nan", "shape"])
def test_exit_3_bad_query_features(ws, tmp_path, caplog, capsys, command,
                                   kind):
    path = str(tmp_path / "query.ract")
    if kind == "nan":
        feats = read_archive(os.path.join(ws["data"], "features",
                                          "c00i000.ract"))["features"]
        feats[1, 2] = np.nan
    else:
        feats = np.ones((3, 5))
    write_archive(path, {"features": feats}, {})
    assert main(_query_args(ws, command, path)) == 3
    assert path in caplog.text
    assert capsys.readouterr().out == ""


def _mangle_sidecar(src: str, dst: str, key: str, edit):
    shutil.copy(src, dst)
    with open(src + ".json", encoding="utf-8") as f:
        side = json.load(f)
    side[key] = edit(side[key])
    with open(dst + ".json", "w", encoding="utf-8") as f:
        json.dump(side, f)


def _rewrite_archive(src: str, dst: str, edit):
    tensors, meta = load_checkpoint(src, ())
    edit(tensors, meta)
    write_archive(dst, tensors, meta)


def _edit_meta(key: str, edit):
    def edit_archive(_tensors, meta):
        meta[key] = edit(meta[key])
    return edit_archive


@pytest.mark.parametrize("edit", [lambda ids: ids + ["extra"],
                                  lambda ids: ids[:-1]],
                         ids=["extra_id", "missing_id"])
def test_exit_3_index_metadata_row_mismatch(ws, tmp_path, caplog, edit):
    index = str(tmp_path / "index.ract")
    _rewrite_archive(os.path.join(ws["ret"], "index.ract"), index,
                     _edit_meta("ids", edit))
    feats = os.path.join(ws["data"], "features", "c00i000.ract")
    assert main(["retrieve", "--config", ws["cfg"],
                 "--checkpoint", os.path.join(ws["ret"], "retrieval.ckpt"),
                 "--index", index, "--query-features", feats]) == 3
    assert f"{index}: " in caplog.text
    assert "embedding rows; rerun train-retrieval" in caplog.text


def test_exit_3_similarity_sidecar_row_mismatch(ws, tmp_path, caplog):
    labels = str(tmp_path / "similarity.ract")
    _mangle_sidecar(ws["labels"], labels, "ids", lambda ids: ids + ["extra"])
    assert main(["train-retrieval", "--config", ws["cfg"],
                 "--manifest", ws["manifest"], "--labels", labels,
                 "--seed", "0", "--out", str(tmp_path / "r")]) == 3
    assert labels in caplog.text


def _scope_args(ws, scope):
    return ["evaluate", "--config", ws["cfg"], "--scope", scope,
            "--manifest", ws["manifest"], "--labels", ws["labels"],
            "--retrieval-checkpoint",
            os.path.join(ws["ret"], "retrieval.ckpt"),
            "--index", os.path.join(ws["ret"], "index.ract"),
            "--decoder-checkpoint", os.path.join(ws["dec"], "decoder.ckpt")]


def test_keys_outside_each_part_load_silently(ws, tmp_path, caplog):
    """Neither checkpoint is built from generation, retrieval-size or
    training keys, so changing them in the file loads both as they are."""
    caplog.set_level(logging.WARNING)
    cfg = tmp_path / "other.cfg"
    cfg.write_text(CONFIG + "generate.beam = 2\nretrieval.K = 3\n"
                   "decoder.max_len = 6\ntriplet.epochs = 3\n"
                   "decoder.lr_max = 2e-3\n")
    feats = os.path.join(ws["data"], "features", "c00i003.ract")
    for argv in (_query_args(ws, "generate", feats),
                 _query_args(ws, "retrieve", feats), _scope_args(ws, "i")):
        assert main([str(cfg) if a == ws["cfg"] else a for a in argv]) == 0
    assert not caplog.records


@pytest.mark.parametrize("line, ckpt, commands", [
    ("embed.heads = 4", "retrieval.ckpt", ("retrieve", "generate", "ii")),
    ("decoder.heads = 4", "decoder.ckpt", ("generate", "iii"))],
    ids=["embed.heads", "decoder.heads"])
def test_exit_3_changed_part_key(ws, tmp_path, caplog, line, ckpt, commands):
    """Head counts change no tensor shape; the checkpoint's hash of the
    keys its part is built from still refuses the file."""
    cfg = tmp_path / "part.cfg"
    cfg.write_text(CONFIG + line + "\n")
    feats = os.path.join(ws["data"], "features", "c00i003.ract")
    path = os.path.join(ws["ret" if ckpt == "retrieval.ckpt" else "dec"],
                        ckpt)
    for command in commands:
        argv = (_scope_args(ws, command) if command in ("ii", "iii")
                else _query_args(ws, command, feats))
        caplog.clear()
        assert main([str(cfg) if a == ws["cfg"] else a
                     for a in argv]) == 3, command
        assert f"{path}: " in caplog.text, command
        assert line.split(" = ")[0] in caplog.text, command
        assert "built with config hash" in caplog.text, command


def test_exit_3_labels_of_other_threshold(ws, tmp_path, caplog):
    """Every command that reads --labels checks the threshold they were
    made at against similarity.threshold."""
    cfg = tmp_path / "threshold.cfg"
    cfg.write_text(CONFIG + "similarity.threshold = 0.3\n")
    train = ["--config", str(cfg), "--manifest", ws["manifest"],
             "--labels", ws["labels"], "--seed", "0",
             "--out", str(tmp_path / "out")]
    evaluate = [str(cfg) if a == ws["cfg"] else a
                for a in _scope_args(ws, "iii")]
    generate = ["generate", "--config", str(cfg),
                "--checkpoint", os.path.join(ws["dec"], "decoder.ckpt"),
                "--index", os.path.join(ws["ret"], "index.ract"),
                "--features", os.path.join(ws["data"], "features",
                                           "c00i000.ract"),
                "--oracle-guidance", ws["labels"],
                "--manifest", ws["manifest"], "--query-id", "c00i000"]
    for argv in (["train-retrieval", *train], ["train-decoder", *train],
                 evaluate, generate):
        caplog.clear()
        assert main(argv) == 3, argv[0]
        assert (f"{ws['labels']}: labels made at similarity.threshold = 0.7"
                in caplog.text), argv[0]
        assert "rerun prepare-similarity" in caplog.text, argv[0]


def test_exit_3_labels_of_other_lm(ws, tmp_path, caplog):
    """Labels scored at lm.pretrain_epochs = 2 are refused under 3, as
    train-decoder refuses the frozen LM stored beside them
    (test_exit_3_changed_lm_key), by the commands that read them before
    any frozen LM."""
    cfg = tmp_path / "lm.cfg"
    cfg.write_text(CONFIG + "lm.pretrain_epochs = 3\n")
    evaluate = [[str(cfg) if a == ws["cfg"] else a
                 for a in _scope_args(ws, scope)] for scope in ("ii", "iii")]
    for argv in (["train-retrieval", "--config", str(cfg),
                  "--manifest", ws["manifest"], "--labels", ws["labels"],
                  "--seed", "0", "--out", str(tmp_path / "out")],
                 *evaluate):
        caplog.clear()
        assert main(argv) == 3, argv
        assert (f"{ws['labels']}: labels scored by a frozen LM of config "
                "hash" in caplog.text), argv
        assert "rerun prepare-similarity" in caplog.text, argv


def test_exit_3_labels_without_lm_hash(ws, tmp_path, caplog):
    """A sidecar written before the frozen LM's hash was stored is refused
    like one of another LM."""
    labels = str(tmp_path / "similarity.ract")
    shutil.copy(ws["labels"], labels)
    with open(ws["labels"] + ".json", encoding="utf-8") as f:
        side = json.load(f)
    del side["lm_config_hash"]
    with open(labels + ".json", "w", encoding="utf-8") as f:
        json.dump(side, f)
    assert main(["train-retrieval", "--config", ws["cfg"],
                 "--manifest", ws["manifest"], "--labels", labels,
                 "--seed", "0", "--out", str(tmp_path / "out")]) == 3
    assert (f"{labels}: labels scored by a frozen LM of config hash None"
            in caplog.text)
    assert "rerun prepare-similarity" in caplog.text


@pytest.mark.filterwarnings("ignore:overflow|invalid value")
def test_exit_4_nonfinite_training(ws, tmp_path):
    # the config rejects a NaN rate; one this large overflows the weights
    cfg = tmp_path / "huge_lr.cfg"
    cfg.write_text(CONFIG + "triplet.lr = 1e300\n")
    assert main(["train-retrieval", "--config", str(cfg),
                 "--manifest", ws["manifest"], "--labels", ws["labels"],
                 "--seed", "0", "--out", str(tmp_path / "r")]) == 4


@pytest.mark.filterwarnings("ignore:overflow|invalid value")
def test_exit_4_collapsed_training(ws, tmp_path, caplog):
    """At this rate the weights stay finite but the layer norm variances
    overflow, which used to normalize every item to one embedding and
    exit 0."""
    cfg = tmp_path / "vast_lr.cfg"
    cfg.write_text(CONFIG + "triplet.lr = 1e100\n")
    assert main(["train-retrieval", "--config", str(cfg),
                 "--manifest", ws["manifest"], "--labels", ws["labels"],
                 "--seed", "0", "--out", str(tmp_path / "r")]) == 4
    assert ("numeric failure: non-finite triplet loss at epoch 0: "
            "non-finite layer_norm variance") in caplog.text
    assert not (tmp_path / "r").exists()


# ---------------------------------------------------------------------------
# the frozen LM: pretrained once, stored, checked on every load
# ---------------------------------------------------------------------------

def _all_commands(ws, root):
    """argv of all seven commands, run on a fresh copy of the pipeline."""
    cfg, data = ws["cfg"], str(root / "data")
    manifest = os.path.join(data, "manifest.jsonl")
    sim, ret, dec = str(root / "sim"), str(root / "ret"), str(root / "dec")
    labels = os.path.join(sim, "similarity.ract")
    feats = os.path.join(data, "features", "c00i009.ract")
    ckpt, index = (os.path.join(ret, "retrieval.ckpt"),
                   os.path.join(ret, "index.ract"))
    train = ["--config", cfg, "--manifest", manifest, "--labels", labels,
             "--seed", "0"]
    return [
        ["make-dataset", "--config", cfg,
         "--spec", str(ws["root"] / "spec.json"), "--out", data],
        ["prepare-similarity", "--config", cfg, "--manifest", manifest,
         "--out", sim],
        ["train-retrieval", *train, "--out", ret],
        ["retrieve", "--config", cfg, "--checkpoint", ckpt, "--index", index,
         "--query-features", feats],
        ["train-decoder", *train, "--out", dec],
        ["generate", "--config", cfg,
         "--checkpoint", os.path.join(dec, "decoder.ckpt"), "--index", index,
         "--features", feats, "--retrieval-checkpoint", ckpt],
        *(["evaluate", "--config", cfg, "--scope", scope,
           "--manifest", manifest, "--labels", labels,
           "--retrieval-checkpoint", ckpt, "--index", index,
           "--decoder-checkpoint", os.path.join(dec, "decoder.ckpt"),
           "--out", str(root / "ev")] for scope in ("i", "ii", "iii")),
    ]


def test_lm_pretrained_once_per_pipeline(ws, tmp_path, monkeypatch, capsys):
    calls = []
    command = [None]
    pretrain = TinyCausalLm.pretrain

    def counting(self, *args, **kwargs):
        calls.append(command[0])
        return pretrain(self, *args, **kwargs)

    monkeypatch.setattr(TinyCausalLm, "pretrain", counting)
    for argv in _all_commands(ws, tmp_path):
        command[0] = argv[0]
        assert main(argv) == 0, argv[0]
    assert calls == ["prepare-similarity"]


def _train_decoder(ws, tmp_path, labels=None, manifest=None, cfg=None):
    return main(["train-decoder", "--config", cfg or ws["cfg"],
                 "--manifest", manifest or ws["manifest"],
                 "--labels", labels or ws["labels"], "--seed", "0",
                 "--out", str(tmp_path / "d")])


def test_exit_3_missing_frozen_lm(ws, tmp_path, caplog):
    labels = str(tmp_path / "similarity.ract")
    shutil.copy(ws["labels"], labels)
    shutil.copy(ws["labels"] + ".json", labels + ".json")
    assert _train_decoder(ws, tmp_path, labels=labels) == 3
    assert str(tmp_path / "frozen_lm.ckpt") in caplog.text
    assert "rerun prepare-similarity" in caplog.text


@pytest.fixture(scope="module")
def other_manifest(ws, tmp_path_factory):
    """A dataset with the same ids as the fixture's but other captions."""
    data = tmp_path_factory.mktemp("other") / "data"
    spec = data.parent / "spec.json"
    spec.write_text(SPEC.replace('"seed": 1', '"seed": 2'))
    assert main(["make-dataset", "--config", ws["cfg"], "--spec", str(spec),
                 "--out", str(data)]) == 0
    return str(data / "manifest.jsonl")


def test_exit_3_lm_from_other_manifest(ws, tmp_path, caplog, other_manifest):
    assert _train_decoder(ws, tmp_path, manifest=other_manifest) == 3
    assert "other training captions" in caplog.text
    assert main(["evaluate", "--config", ws["cfg"], "--scope", "iii",
                 "--manifest", other_manifest, "--labels", ws["labels"],
                 "--decoder-checkpoint",
                 os.path.join(ws["dec"], "decoder.ckpt")]) == 3


def test_exit_3_labels_of_other_items(ws, tmp_path, caplog):
    """Every command that reads --labels checks its ids against the
    manifest's."""
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC.replace('"items_per_cluster": 10',
                                 '"items_per_cluster": 9'))
    data = tmp_path / "data"
    assert main(["make-dataset", "--config", ws["cfg"], "--spec", str(spec),
                 "--out", str(data)]) == 0
    manifest = str(data / "manifest.jsonl")
    dec = os.path.join(ws["dec"], "decoder.ckpt")
    train = ["--config", ws["cfg"], "--manifest", manifest,
             "--labels", ws["labels"], "--seed", "0",
             "--out", str(tmp_path / "out")]
    for argv in (["train-retrieval", *train], ["train-decoder", *train],
                 ["evaluate", "--config", ws["cfg"], "--scope", "iii",
                  "--manifest", manifest, "--labels", ws["labels"],
                  "--decoder-checkpoint", dec],
                 ["generate", "--config", ws["cfg"], "--checkpoint", dec,
                  "--index", os.path.join(ws["ret"], "index.ract"),
                  "--features", str(data / "features" / "c00i000.ract"),
                  "--oracle-guidance", ws["labels"], "--manifest", manifest,
                  "--query-id", "c00i000"]):
        caplog.clear()
        assert main(argv) == 3, argv[0]
        assert "similarity archive ids do not match the manifest" in (
            caplog.text), argv[0]


def test_exit_3_changed_lm_key(ws, tmp_path, caplog):
    cfg = tmp_path / "lm.cfg"
    cfg.write_text(CONFIG + "lm.pretrain_epochs = 3\n")
    assert _train_decoder(ws, tmp_path, cfg=str(cfg)) == 3
    assert "frozen_lm.ckpt" in caplog.text
    feats = os.path.join(ws["data"], "features", "c00i003.ract")
    args = _query_args(ws, "generate", feats)
    assert main([a if a != ws["cfg"] else str(cfg) for a in args]) == 3
    assert "decoder.ckpt: frozen LM built with" in caplog.text


def test_decoder_key_keeps_frozen_lm(ws, tmp_path):
    cfg = tmp_path / "dec.cfg"
    cfg.write_text(CONFIG + "decoder.epochs = 1\n")
    assert _train_decoder(ws, tmp_path, cfg=str(cfg)) == 0


def test_exit_3_index_captions_not_the_lm_corpus(ws, tmp_path, caplog):
    index = str(tmp_path / "index.ract")
    _rewrite_archive(
        os.path.join(ws["ret"], "index.ract"), index,
        _edit_meta("captions", lambda caps: [["a hound howls"]] + caps[1:]))
    feats = os.path.join(ws["data"], "features", "c00i003.ract")
    args = _query_args(ws, "generate", feats)
    assert main([index if a.endswith("index.ract") else a
                 for a in args]) == 3
    assert "other training captions than those of " + index in caplog.text


def _corrupt_lm(key):
    def edit(tensors, meta):
        if key == "tensor":
            tensors["lm.emb"] = tensors["lm.emb"] + 1e-9
        elif key == "missing_tensor":
            del tensors["lm.layer1.ln2.beta"]
        else:
            del meta[key]
    return edit


def test_similarity_archive_holds_raw_scores_and_labels(ws):
    assert set(read_archive(ws["labels"])) == {"scores_raw", "labels"}


def test_similarity_archive_with_normalized_scores_still_loads(ws, tmp_path):
    """A tensor beside scores_raw and labels in a current archive, such as
    the scores_normalized of older ones, is ignored: the archive loads to
    the same raw scores and labels."""
    cfg = load_config(ws["cfg"])
    items = load_dataset(ws["manifest"], cfg.model_d_a, cfg.model_t)
    tensors = read_archive(ws["labels"])
    old = str(tmp_path / "similarity.ract")
    write_archive(old, {"scores_raw": tensors["scores_raw"],
                        "scores_normalized": normalize_minmax(
                            tensors["scores_raw"]),
                        "labels": tensors["labels"]}, {})
    shutil.copy(ws["labels"] + ".json", old + ".json")
    raw, labels = pipeline.load_similarity(old, items, cfg)
    want_raw, want_labels = pipeline.load_similarity(ws["labels"], items, cfg)
    np.testing.assert_array_equal(raw, want_raw)
    np.testing.assert_array_equal(labels, want_labels)


def test_training_checkpoint_metadata_keys_are_pinned(ws):
    run = {"config_hash", "seed", "epoch", "val_loss", "kind"}
    _, meta = load_checkpoint(os.path.join(ws["ret"], "retrieval.ckpt"), ())
    assert set(meta) == run
    _, meta = load_checkpoint(os.path.join(ws["dec"], "decoder.ckpt"), ())
    assert set(meta) == run | {"lm_weight_hash", "lm_caption_hash",
                               "lm_config_hash"}


def test_frozen_lm_metadata_is_three_hashes(ws):
    """The vocabulary is not stored: the caption hash pins the training
    captions, and the tokenizer is rebuilt from them."""
    hashes = {"lm_weight_hash", "lm_caption_hash", "lm_config_hash"}
    _, meta = load_checkpoint(os.path.join(os.path.dirname(ws["labels"]),
                                           "frozen_lm.ckpt"), ())
    assert set(meta) == {"kind"} | hashes
    _, dec_meta = load_checkpoint(os.path.join(ws["dec"], "decoder.ckpt"), ())
    assert {k for k in dec_meta if k.startswith("lm_")} == hashes
    assert {k: dec_meta[k] for k in hashes} == {k: meta[k] for k in hashes}


@pytest.mark.parametrize("key", ["lm_weight_hash", "lm_caption_hash",
                                 "lm_config_hash", "tensor",
                                 "missing_tensor"])
def test_exit_3_bad_frozen_lm(ws, tmp_path, caplog, key):
    sim = tmp_path / "sim"
    shutil.copytree(os.path.dirname(ws["labels"]), sim)
    lm_path = str(sim / "frozen_lm.ckpt")
    _rewrite_archive(lm_path, lm_path, _corrupt_lm(key))
    assert _train_decoder(ws, tmp_path,
                          labels=str(sim / "similarity.ract")) == 3
    assert lm_path in caplog.text
    dec = str(tmp_path / "decoder.ckpt")
    _rewrite_archive(os.path.join(ws["dec"], "decoder.ckpt"), dec,
                     _corrupt_lm(key))
    feats = os.path.join(ws["data"], "features", "c00i003.ract")
    args = _query_args(ws, "generate", feats)
    assert main([dec if a.endswith("decoder.ckpt") else a
                 for a in args]) == 3
    assert dec in caplog.text


# ---------------------------------------------------------------------------
# exit 3 only for typed data errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["candidates", "references"])
def test_exit_3_jsonl_row_missing_field(ws, tmp_path, caplog, which):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    cands.write_text('{"id": "a", "text": "a dog barks"}\n')
    refs.write_text('{"id": "a", "texts": ["a dog barks"]}\n')
    bad = cands if which == "candidates" else refs
    bad.write_text('{"id": "a"}\n')
    assert main(["evaluate", "--candidates", str(cands),
                 "--references", str(refs)]) == 3
    assert f"{bad}:1" in caplog.text


_CAND_A = '{"id": "a", "text": "a dog barks"}'
_CAND_B = '{"id": "b", "text": "rain falls"}'
_REF_A = '{"id": "a", "texts": ["a dog barks"]}'
_REF_B = '{"id": "b", "texts": ["rain falls"]}'


@pytest.mark.parametrize("which, rows, line, message", [
    ("candidates", [_CAND_A, '{"id": "b", "text": 5}'], 2,
     "text is not a string"),
    ("references", [_REF_A, '{"id": "b", "texts": "rain falls"}'], 2,
     "texts is not a non-empty list of strings"),
    ("references", [_REF_A, '{"id": "b", "texts": []}'], 2,
     "texts is not a non-empty list of strings"),
    ("references", [_REF_A, '{"id": "b", "texts": ["rain falls", 7]}'], 2,
     "texts is not a non-empty list of strings"),
    ("candidates", [_CAND_A, _CAND_B, "", '{"id": "a", "text": "a cat"}'], 4,
     "duplicate id 'a' (first on line 1)"),
    ("references", [_REF_A, _REF_B, '{"id": "b", "texts": ["a cat"]}'], 3,
     "duplicate id 'b' (first on line 2)"),
    ("candidates", [_CAND_A, _CAND_B, '{"id": "c", "text": "a cat"}'], 3,
     "candidate id 'c' has no references"),
    ("candidates", ['{"id": ["a"], "text": "a dog barks"}', _CAND_B], 1,
     "id is not a string"),
])
def test_exit_3_jsonl_row_invalid(tmp_path, caplog, which, rows, line,
                                  message):
    files = {"candidates": tmp_path / "c.jsonl",
             "references": tmp_path / "r.jsonl"}
    files["candidates"].write_text(f"{_CAND_A}\n{_CAND_B}\n")
    files["references"].write_text(f"{_REF_A}\n{_REF_B}\n")
    files[which].write_text("\n".join(rows) + "\n")
    assert main(["evaluate", "--candidates", str(files["candidates"]),
                 "--references", str(files["references"])]) == 3
    assert f"{files[which]}:{line}: {message}" in caplog.text


@pytest.mark.parametrize("rows", [[], [_CAND_A]])
def test_exit_3_too_few_candidates_names_file(tmp_path, caplog, rows):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    cands.write_text("".join(row + "\n" for row in rows))
    refs.write_text(f"{_REF_A}\n{_REF_B}\n")
    assert main(["evaluate", "--candidates", str(cands),
                 "--references", str(refs)]) == 3
    assert (f"{cands}: CIDEr's idf needs at least 2 candidates, "
            f"got {len(rows)}") in caplog.text


def test_exit_3_sidecar_missing_key(ws, tmp_path, caplog):
    labels = str(tmp_path / "similarity.ract")
    shutil.copy(ws["labels"], labels)
    with open(labels + ".json", "w", encoding="utf-8") as f:
        json.dump({"ids": []}, f)
    assert main(["train-retrieval", "--config", ws["cfg"],
                 "--manifest", ws["manifest"], "--labels", labels,
                 "--seed", "0", "--out", str(tmp_path / "r")]) == 3
    assert f"{labels}.json: missing key(s) ['threshold']" in caplog.text

    index = str(tmp_path / "index.ract")
    _rewrite_archive(os.path.join(ws["ret"], "index.ract"), index,
                     lambda tensors, meta: meta.pop("captions"))
    feats = os.path.join(ws["data"], "features", "c00i000.ract")
    assert main(["retrieve", "--config", ws["cfg"],
                 "--checkpoint", os.path.join(ws["ret"], "retrieval.ckpt"),
                 "--index", index, "--query-features", feats]) == 3
    assert "'captions'" in caplog.text


@pytest.mark.parametrize("case", ["similarity_ids", "index_captions",
                                  "index_ids"])
def test_exit_3_metadata_of_wrong_type(ws, tmp_path, caplog, case):
    """Metadata values of the wrong JSON type used to crash their reader
    (exit 1): an integer for the similarity ids, an integer caption list
    in the index, and integer index ids under retrieve --exclude."""
    feats = os.path.join(ws["data"], "features", "c00i000.ract")
    if case == "similarity_ids":
        labels = str(tmp_path / "similarity.ract")
        _mangle_sidecar(ws["labels"], labels, "ids", lambda ids: 5)
        argv = ["train-retrieval", "--config", ws["cfg"],
                "--manifest", ws["manifest"], "--labels", labels,
                "--seed", "0", "--out", str(tmp_path / "r")]
        message = f"{labels}.json: ids is not a list of strings"
    else:
        index = str(tmp_path / "index.ract")
        key, edit, want = (
            ("captions", lambda caps: [7] + caps[1:],
             "a list of non-empty lists of strings")
            if case == "index_captions" else
            ("ids", lambda ids: list(range(len(ids))), "a list of strings"))
        _rewrite_archive(os.path.join(ws["ret"], "index.ract"), index,
                         _edit_meta(key, edit))
        argv = ["retrieve", "--config", ws["cfg"],
                "--checkpoint", os.path.join(ws["ret"], "retrieval.ckpt"),
                "--index", index, "--query-features", feats,
                "--exclude", "c00i000"]
        message = (f"{index} metadata: {key} is not {want}; "
                   "rerun train-retrieval")
    assert main(argv) == 3
    assert message in caplog.text


def _older_container(ws, tmp_path):
    """Copies of the fixture's checkpoints in the container that preceded
    archive version 2 (an RCKP magic, a u32 length, the JSON metadata, then
    a version-1 archive), and of its index as a version-1 archive with
    its metadata in a JSON sidecar."""
    paths = {}
    for name in ("retrieval.ckpt", "decoder.ckpt", "index.ract"):
        src = os.path.join(ws["ret" if name != "decoder.ckpt" else "dec"],
                           name)
        tensors, meta = load_checkpoint(src, ())
        paths[name] = str(tmp_path / name)
        if name == "index.ract":
            (tmp_path / name).write_bytes(version_1_archive(tensors))
            (tmp_path / (name + ".json")).write_text(json.dumps(meta))
        else:
            blob = json.dumps(meta, sort_keys=True).encode()
            (tmp_path / name).write_bytes(
                b"RCKP" + struct.pack("<I", len(blob)) + blob
                + version_1_archive(tensors))
    return paths


@pytest.mark.parametrize("command", ["retrieve", "generate"])
@pytest.mark.parametrize("old", ["checkpoint", "index"])
def test_exit_3_older_container_names_file_and_command(ws, tmp_path, caplog,
                                                       capsys, command, old):
    """Checkpoints and sidecar-style indexes written before archive
    version 2 are refused with the file and the command that rewrites it."""
    older = _older_container(ws, tmp_path)
    argv = _query_args(ws, command, os.path.join(ws["data"], "features",
                                                 "c00i000.ract"))
    if old == "index":
        swap = {"index.ract"}
        message = (f"{older['index.ract']} metadata: missing key(s) "
                   "['ids', 'captions']; rerun train-retrieval")
    else:
        swap = {"retrieval.ckpt", "decoder.ckpt"}
        # generate reads the decoder checkpoint before the retrieval one
        name, writer = (("retrieval.ckpt", "train-retrieval")
                        if command == "retrieve"
                        else ("decoder.ckpt", "train-decoder"))
        message = (f"{older[name]}: bad magic b'RCKP' at byte 0; "
                   f"rerun {writer}")
    argv = [older[os.path.basename(a)] if os.path.basename(a) in swap else a
            for a in argv]
    assert main(argv) == 3
    assert message in caplog.text
    assert capsys.readouterr().out == ""


def test_exit_3_missing_tensor(ws, tmp_path, caplog):
    labels = str(tmp_path / "similarity.ract")
    tensors = read_archive(ws["labels"])
    del tensors["labels"]
    write_archive(labels, tensors, {})
    shutil.copy(ws["labels"] + ".json", labels + ".json")
    assert main(["train-retrieval", "--config", ws["cfg"],
                 "--manifest", ws["manifest"], "--labels", labels,
                 "--seed", "0", "--out", str(tmp_path / "r")]) == 3
    assert f"{labels}: no tensor named 'labels'" in caplog.text

    ckpt = str(tmp_path / "retrieval.ckpt")
    _rewrite_archive(os.path.join(ws["ret"], "retrieval.ckpt"), ckpt,
                     lambda tensors, meta: tensors.popitem())
    feats = os.path.join(ws["data"], "features", "c00i000.ract")
    assert main(["retrieve", "--config", ws["cfg"], "--checkpoint", ckpt,
                 "--index", os.path.join(ws["ret"], "index.ract"),
                 "--query-features", feats]) == 3
    assert f"{ckpt}: checkpoint missing parameter" in caplog.text


def test_internal_key_error_is_not_a_data_error(ws, monkeypatch):
    def broken(args):
        return {}["no such key"]

    monkeypatch.setattr(cli, "cmd_retrieve", broken)
    with pytest.raises(KeyError):
        main(["retrieve", "--checkpoint", "c", "--index", "i",
              "--query-features", "q"])


# ---------------------------------------------------------------------------
# determinism and atomicity
# ---------------------------------------------------------------------------

def test_double_run_bitwise_identical(ws, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["train-retrieval", "--config", ws["cfg"],
                     "--manifest", ws["manifest"], "--labels", ws["labels"],
                     "--seed", "0", "--out", out]) == 0
        outs.append(out)
    for fname in ("retrieval.ckpt", "retrieval_curve.tsv", "negatives.tsv",
                  "index.ract"):
        a = Path(os.path.join(outs[0], fname)).read_bytes()
        b = Path(os.path.join(outs[1], fname)).read_bytes()
        assert a == b, fname
    # and identical to the fixture run from a different directory
    first = Path(os.path.join(ws["ret"], "retrieval.ckpt")).read_bytes()
    assert first == Path(os.path.join(outs[0], "retrieval.ckpt")).read_bytes()


def test_train_retrieval_bitwise_across_openblas_threads(ws, tmp_path):
    """prepare-similarity, train-retrieval, the batched train-decoder and
    the batched decoding of evaluate scopes i and iii write the same bytes
    under one and two BLAS threads (set in the child environment only)."""
    src = os.path.dirname(os.path.dirname(ragcap.__file__))
    outs = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        labels = ["--labels", os.path.join(out, "similarity.ract")]
        trained = [*labels, "--retrieval-checkpoint",
                   os.path.join(out, "retrieval.ckpt"),
                   "--index", os.path.join(out, "index.ract"),
                   "--decoder-checkpoint", os.path.join(out, "decoder.ckpt")]
        for command, extra in (("prepare-similarity", []),
                               ("train-retrieval", [*labels, "--seed", "0"]),
                               ("train-decoder", [*labels, "--seed", "0"]),
                               ("evaluate", ["--scope", "i", *trained]),
                               ("evaluate", ["--scope", "iii", *trained])):
            subprocess.run(
                [sys.executable, "-m", "ragcap.cli", command,
                 "--config", ws["cfg"], "--manifest", ws["manifest"],
                 *extra, "--out", out],
                env=env, check=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
        outs.append(out)
    for fname in ("similarity.ract", "frozen_lm.ckpt", "retrieval.ckpt",
                  "retrieval_curve.tsv", "negatives.tsv", "index.ract",
                  "decoder.ckpt", "decoder_curve.tsv",
                  "scope_i_candidates.jsonl", "scope_i_report.json",
                  "scope_iii_candidates.jsonl", "scope_iii_report.json"):
        a = Path(os.path.join(outs[0], fname)).read_bytes()
        b = Path(os.path.join(outs[1], fname)).read_bytes()
        assert a == b, fname


def test_main_raises_malloc_thresholds_once(monkeypatch):
    """Importing the CLI leaves the allocator alone; main sets glibc's mmap
    and trim thresholds once each."""
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
    importlib.reload(cli)
    assert calls == []
    assert main(["evaluate"]) == 2  # a config error, after the setting
    assert sorted(calls) == [(-3, cli.MALLOC_KEEP_BYTES),
                             (-1, cli.MALLOC_KEEP_BYTES)]


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(ragcap.__file__))
    probe = ("import sys, ragcap.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def test_generate_deterministic_output(ws, capsys):
    feats = os.path.join(ws["data"], "features", "c00i003.ract")
    args = ["generate", "--config", ws["cfg"],
            "--checkpoint", os.path.join(ws["dec"], "decoder.ckpt"),
            "--index", os.path.join(ws["ret"], "index.ract"),
            "--features", feats, "--retrieval-checkpoint",
            os.path.join(ws["ret"], "retrieval.ckpt")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_kill_midrun_leaves_no_partial_checkpoint(ws, tmp_path):
    out = str(tmp_path / "killed")
    slow = tmp_path / "slow.cfg"
    slow.write_text(CONFIG.replace("triplet.epochs = 2",
                                   "triplet.epochs = 5000"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ragcap.cli", "train-retrieval",
         "--config", str(slow), "--manifest", ws["manifest"],
         "--labels", ws["labels"], "--seed", "0", "--out", out],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    time.sleep(2.0)
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    ckpt = os.path.join(out, "retrieval.ckpt")
    if os.path.exists(ckpt):
        load_checkpoint(ckpt, ())  # whatever exists must parse cleanly
    # no temp files left behind by atomic writes (named .tmp-*.part)
    if os.path.isdir(out):
        leftovers = [f for f in os.listdir(out)
                     if f.startswith(".tmp-") or f.endswith(".part")]
        assert leftovers == []
