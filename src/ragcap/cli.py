"""Command-line interface.

Subcommands: make-dataset, prepare-similarity, train-retrieval, retrieve,
train-decoder, generate, evaluate. Exit codes: 0 success, 2 config error,
3 data error, 4 numeric failure. Log verbosity comes from the RAGCAP_LOG
environment variable (DEBUG/INFO/WARNING, default INFO).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import logging
import os
import sys

from . import archive, decoder, pipeline, retrieval
from .config import ConfigError, load_config, log_resolved
from .data import load_dataset, read_features
from .errors import NumericError, SamplingError, TrainingError
from .metrics import evaluate_corpus
from .reference_models import (SyntheticDatasetSpec, generate_synthetic_dataset)

log = logging.getLogger("ragcap.cli")

# glibc hands freed blocks above its mmap and trim thresholds back to the
# OS and faults them in again on the next allocation, which training steps
# make over and over for arrays of a few MB; main raises both to this size
MALLOC_KEEP_BYTES = 256 * 2**20
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory():
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt"):
        for param in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD):
            libc.mallopt(param, MALLOC_KEEP_BYTES)


def _setup_logging():
    level = os.environ.get("RAGCAP_LOG", "INFO").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


def _load(args):
    cfg = load_config(getattr(args, "config", None))
    log_resolved(cfg)
    return cfg


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def cmd_make_dataset(args) -> int:
    cfg = _load(args)
    spec = (SyntheticDatasetSpec.from_file(args.spec) if args.spec
            else SyntheticDatasetSpec())
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    rows = generate_synthetic_dataset(spec, cfg.model_d_a, cfg.model_t,
                                      args.out)
    log.info("wrote %d items to %s", len(rows), args.out)
    return 0


def cmd_prepare_similarity(args) -> int:
    cfg = _load(args)
    items = load_dataset(args.manifest, cfg.model_d_a, cfg.model_t)
    captions = pipeline.train_captions(items)
    tokenizer, lm = pipeline.build_frozen_models(captions, cfg)
    lm.pretrain([tokenizer.encode(c) for caps in captions for c in caps],
                cfg.lm_pretrain_epochs)
    raw, labels = pipeline.compute_similarity(items, tokenizer, lm, cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "similarity.ract")
    pipeline.save_similarity(path, items, raw, labels, cfg)
    lm_path = os.path.join(args.out, pipeline.FROZEN_LM_FILE)
    pipeline.save_frozen_lm(lm_path, lm, captions, cfg)
    log.info("wrote %s (%d captions, threshold %s) and %s", path, len(labels),
             cfg.similarity_threshold, lm_path)
    return 0


def cmd_train_retrieval(args) -> int:
    cfg = _load(args)
    items = load_dataset(args.manifest, cfg.model_d_a, cfg.model_t)
    _, labels = pipeline.load_similarity(args.labels, items, cfg)
    result, index = pipeline.run_train_retrieval(cfg, items, labels,
                                                 args.seed, args.out)
    log.info("best validation loss %s at epoch %d; index of %d items",
             result.best_val_loss, result.best_epoch, len(index.ids))
    return 0


def cmd_retrieve(args) -> int:
    cfg = _load(args)
    if args.k is not None:
        cfg = dataclasses.replace(cfg, retrieval_k=args.k)
    embedder = pipeline.load_retrieval_params(cfg, args.checkpoint)
    index = pipeline.load_index(cfg, args.index)
    phi = read_features(args.query_features, cfg.model_d_a, cfg.model_t)
    queries = retrieval.embed_batch(embedder, phi[None]).data
    [hits] = retrieval.retrieve_topk(index, queries, cfg.retrieval_k,
                                     [args.exclude])
    print(json.dumps([{"id": i, "distance": d, "caption": c}
                      for i, d, c in hits], sort_keys=True))
    return 0


def cmd_train_decoder(args) -> int:
    cfg = _load(args)
    items = load_dataset(args.manifest, cfg.model_d_a, cfg.model_t)
    tokenizer, lm = pipeline.load_frozen_lm(
        cfg, args.labels, pipeline.train_captions(items), args.manifest)
    _, labels = pipeline.load_similarity(args.labels, items, cfg)
    result = pipeline.run_train_decoder(cfg, items, labels, lm, tokenizer,
                                        args.seed, args.out)
    log.info("best validation loss %s at epoch %d", result.best_val_loss,
             result.best_epoch)
    return 0


def cmd_generate(args) -> int:
    cfg = _load(args)
    if args.beam is not None:
        cfg = dataclasses.replace(cfg, generate_beam=args.beam)
    index = pipeline.load_index(cfg, args.index)
    tokenizer, lm, dec_params = pipeline.load_decoder(
        cfg, args.checkpoint, index.captions, args.index)
    phi = read_features(args.features, cfg.model_d_a, cfg.model_t)

    if args.oracle_guidance:
        if not args.manifest or args.query_id is None:
            raise ConfigError("--oracle-guidance needs --manifest and "
                              "--query-id")
        items = load_dataset(args.manifest, cfg.model_d_a, cfg.model_t)
        raw, _ = pipeline.load_similarity(args.oracle_guidance, items, cfg)
        [guidance] = pipeline.oracle_guidance(raw, items, [args.query_id],
                                              cfg.retrieval_k)
    else:
        if not args.retrieval_checkpoint:
            raise ConfigError("--retrieval-checkpoint is required unless "
                              "--oracle-guidance is given")
        embedder = pipeline.load_retrieval_params(
            cfg, args.retrieval_checkpoint)
        [guidance] = pipeline.retrieved_guidance(
            embedder, index, phi[None], cfg.retrieval_k, [args.exclude])

    [caption] = decoder.generate_captions(lm, tokenizer, dec_params, [phi],
                                          [guidance], cfg.generate_beam,
                                          cfg.decoder_max_len)
    print(json.dumps({"caption": caption, "guidance": guidance},
                     sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    if args.candidates or args.references:
        if not (args.candidates and args.references):
            raise ConfigError("--candidates and --references go together")
        cand_rows = archive.read_jsonl(args.candidates,
                                       {"text": archive.STRING})
        ref_rows = archive.read_jsonl(args.references,
                                      {"texts": archive.TEXTS})
        for cid, (lineno, _) in cand_rows.items():
            if cid not in ref_rows:
                raise archive.ManifestError(
                    f"{args.candidates}:{lineno}: candidate id {cid!r} has "
                    f"no references in {args.references}")
        if len(cand_rows) < 2:
            raise archive.ManifestError(
                f"{args.candidates}: CIDEr's idf needs at least 2 "
                f"candidates, got {len(cand_rows)}")
        report = evaluate_corpus(
            [row["text"] for _, row in cand_rows.values()],
            [ref_rows[cid][1]["texts"] for cid in cand_rows])
        sys.stdout.write(report.table())
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            archive.atomic_write_bytes(os.path.join(args.out, "report.json"),
                                       report.to_json().encode())
        return 0

    if not args.scope:
        raise ConfigError("either --scope or --candidates/--references "
                          "is required")
    if not args.manifest or not args.labels:
        raise ConfigError("--scope needs --manifest and --labels")
    cfg = _load(args)
    items = load_dataset(args.manifest, cfg.model_d_a, cfg.model_t)
    raw, _ = pipeline.load_similarity(args.labels, items, cfg)
    embedder = index = lm = tokenizer = dec_params = None
    if args.scope in ("i", "ii"):
        if not args.retrieval_checkpoint or not args.index:
            raise ConfigError(f"scope {args.scope} needs "
                              "--retrieval-checkpoint and --index")
        embedder = pipeline.load_retrieval_params(
            cfg, args.retrieval_checkpoint)
        index = pipeline.load_index(cfg, args.index)
    if args.scope in ("i", "iii"):
        if not args.decoder_checkpoint:
            raise ConfigError(f"scope {args.scope} needs --decoder-checkpoint")
        tokenizer, lm, dec_params = pipeline.load_decoder(
            cfg, args.decoder_checkpoint, pipeline.train_captions(items),
            args.manifest)
    candidates, eval_ids, report = pipeline.evaluate_scope(
        args.scope, cfg, items, args.split, embedder, index, lm, tokenizer,
        dec_params, scores=raw)
    sys.stdout.write(report.table())
    if args.out:
        pipeline.save_scope_outputs(args.out, args.scope, eval_ids,
                                    candidates, report)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A --seed value: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragcap",
        description="Retrieval-augmented caption generation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, manifest=False, labels=False, seed=False):
        p.add_argument("--config", help="key=value config file")
        if manifest:
            p.add_argument("--manifest", required=True)
        if labels:
            p.add_argument("--labels", required=True,
                           help="similarity archive from prepare-similarity")
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", required=True)

    p = sub.add_parser("make-dataset", help="generate a synthetic dataset")
    p.add_argument("--spec", help="JSON dataset spec (default: shipped spec)")
    p.add_argument("--seed", type=_seed, default=None)
    add_common(p)
    p.set_defaults(func=cmd_make_dataset)

    p = sub.add_parser("prepare-similarity",
                       help="compute caption-pair similarity labels")
    add_common(p, manifest=True)
    p.set_defaults(func=cmd_prepare_similarity)

    p = sub.add_parser("train-retrieval", help="train the audio embedder")
    add_common(p, manifest=True, labels=True, seed=True)
    p.set_defaults(func=cmd_train_retrieval)

    p = sub.add_parser("retrieve", help="query the retrieval index")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--query-features", required=True)
    p.add_argument("-K", dest="k", type=int, default=None,
                   help="number of hits (default: retrieval.K)")
    p.add_argument("--exclude", default=None)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("train-decoder", help="train the fusion decoder")
    add_common(p, manifest=True, labels=True, seed=True)
    p.set_defaults(func=cmd_train_decoder)

    p = sub.add_parser("generate", help="generate a caption for one item")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True, help="decoder checkpoint")
    p.add_argument("--index", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--retrieval-checkpoint")
    p.add_argument("--oracle-guidance",
                   help="similarity archive for oracle guidance")
    p.add_argument("--manifest")
    p.add_argument("--query-id")
    p.add_argument("--exclude", default=None)
    p.add_argument("--beam", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score captions or run a scope")
    p.add_argument("--config")
    p.add_argument("--candidates", help="JSON-lines {id, text}")
    p.add_argument("--references", help="JSON-lines {id, texts}")
    p.add_argument("--scope", choices=["i", "ii", "iii"])
    p.add_argument("--manifest")
    p.add_argument("--labels")
    p.add_argument("--retrieval-checkpoint")
    p.add_argument("--index")
    p.add_argument("--decoder-checkpoint")
    p.add_argument("--split", default="test",
                   choices=["train", "valid", "test", "all"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        log.error("config error: %s", e)
        return 2
    except NumericError as e:
        log.error("numeric failure: %s", e)
        return 4
    except (archive.ArchiveFormatError, archive.ManifestError, TrainingError,
            SamplingError, OSError, ValueError) as e:
        log.error("data error: %s", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
