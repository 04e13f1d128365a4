"""Benchmark workloads: seeded ragcap CLI sessions run in-process.

One closed-loop client calls ``ragcap.cli.main`` one command at a time, as a
user at a terminal would. Every command is one operation: it fails when it
exits with a non-zero code, raises, or its output fails the check written
for it below. Each workload has a set-up (make the dataset) and a timed
*pass* (the commands it measures).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ragcap import archive
from ragcap.cli import main as ragcap_main
from ragcap.config import load_config


@dataclass(frozen=True)
class Workload:
    name: str
    clusters: int
    items_per_cluster: int
    config_overrides: tuple[tuple[str, str], ...]
    scopes: tuple[tuple[str, str], ...]  # (scope, split) per evaluate
    retrieve_calls: int
    generate_calls: int
    # How often each stage runs in a pass; its metric is the median. The
    # host's speed swings by tens of percent over seconds, so one sample of
    # a command reads the load of the moment it ran.
    similarity_repeats: int
    retrieval_repeats: int
    decoder_repeats: int
    evaluate_repeats: int


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk",
        clusters=4, items_per_cluster=25, config_overrides=(),
        scopes=(("i", "test"), ("ii", "test"), ("iii", "test")),
        retrieve_calls=120, generate_calls=7, similarity_repeats=3,
        retrieval_repeats=3, decoder_repeats=1, evaluate_repeats=3),
    Workload(
        name="wide",
        clusters=8, items_per_cluster=30,
        config_overrides=(("triplet.epochs", "12"), ("decoder.epochs", "1")),
        scopes=(("ii", "all"),),
        retrieve_calls=160, generate_calls=5, similarity_repeats=3,
        retrieval_repeats=3, decoder_repeats=3, evaluate_repeats=20),
)}

# A budget small enough for the smoke test: the 2-epoch configuration of
# tests/test_cli.py on a 2 x 10 dataset.
SMOKE_CONFIG = """\
model.D_a = 4
model.T = 6
lm.pretrain_epochs = 2
triplet.epochs = 2
triplet.batch = 8
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

SETUP_REPEATS = 9


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def sha256_tree(root: str) -> str:
    """One digest over every file below ``root`` (relative path + bytes)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(sha256_file(path).encode())
    return h.hexdigest()


def percentile_with_tail(samples: list[float], beyond: int = 10):
    """(value, percentile): the highest whole percentile, linearly
    interpolated, with at least ``beyond`` samples above it. When no
    percentile above the median qualifies (fewer than 20 samples for
    ``beyond`` = 10), the median is returned as percentile 50."""
    xs = sorted(samples)
    n = len(xs)
    pct = next((p for p in range(99, 50, -1)
                if n - 1 - math.floor((n - 1) * p / 100) >= beyond), 50)
    h = (n - 1) * pct / 100
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo]), pct


def interleave(*lists):
    """Merge lists so that each one's items are spread evenly over the
    result, each list keeping its order."""
    keyed = [((i + 0.5) / len(xs), k, i, x) for k, xs in enumerate(lists)
             for i, x in enumerate(xs)]
    return [x for *_, x in sorted(keyed, key=lambda e: e[:3])]


def fill_gaps(ops: list, fillers: list) -> list:
    """``ops`` with ``fillers`` spread evenly over the gaps before, between
    and after them."""
    slots = [[] for _ in range(len(ops) + 1)]
    for j, op in enumerate(fillers):
        slots[j * len(slots) // len(fillers)].append(op)
    out = []
    for slot, op in zip(slots, ops + [None]):
        out += slot + ([op] if op is not None else [])
    return out


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


class Session:
    """Runs one workload for one seed inside ``root`` (a temporary dir)."""

    def __init__(self, workload: Workload, seed: int, root: str,
                 repo_root: str, smoke: bool = False):
        self.w = workload
        self.seed = seed
        self.root = root
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}  # command -> seconds
        self.pass_walls: list[float] = []
        self.pass_evaluate: list[float] = []
        self.pass_captions: list[int] = []
        self.hashes: dict[str, str] = {}
        self.scores: dict[str, float] = {}
        self.retrieved = 0
        self.retrieved_similar = 0
        self.semi_hard_share = 0.0

        if smoke:
            cfg_text = SMOKE_CONFIG
            clusters, per_cluster = 2, 10
        else:
            with open(os.path.join(repo_root, "configs", "desk.cfg"),
                      encoding="utf-8") as f:
                cfg_text = f.read()
            clusters, per_cluster = workload.clusters, workload.items_per_cluster
        # later keys override earlier ones in the flat config format
        cfg_text += "".join(f"\n{k} = {v}" for k, v in
                            workload.config_overrides) + "\n"
        self.cfg = os.path.join(root, "workload.cfg")
        with open(self.cfg, "w", encoding="utf-8") as f:
            f.write(cfg_text)
        resolved = load_config(self.cfg)
        self.k = resolved.retrieval_k
        self.max_len = resolved.decoder_max_len
        self.spec = os.path.join(root, "spec.json")
        with open(self.spec, "w", encoding="utf-8") as f:
            json.dump({"clusters": clusters,
                       "items_per_cluster": per_cluster}, f)

    # -- one operation -------------------------------------------------------

    def run(self, label: str, argv: list[str], check=None) -> float | None:
        """Run one CLI command; returns its seconds, or None when it failed.
        ``check(stdout)`` validates the output and raises CheckFailed."""
        self.attempted += 1
        out = io.StringIO()
        # A user runs each command in a fresh process; do not let it pay for
        # collecting the garbage that earlier commands left in this one.
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = ragcap_main(argv)
            elapsed = time.perf_counter() - t0
            _require(code == 0, f"exit code {code}")
            if check is not None:
                check(out.getvalue())
        except CheckFailed as e:
            self.failures.append(f"{label}: {e}")
            return None
        except Exception:  # a crash is a failed operation, not a dead run
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None
        return elapsed

    def _record_hash(self, key: str, digest: str):
        """Bitwise-rerun invariant: an artifact repeated within the run must
        have the same bytes."""
        old = self.hashes.setdefault(key, digest)
        _require(old == digest, f"{key} differs from an earlier repeat")

    # -- set-up ----------------------------------------------------------------

    def make_dataset(self, repeat: int):
        """One set-up repeat. Only ``data0`` is kept; a later repeat checks
        that it wrote the same bytes and is deleted."""
        out = os.path.join(self.root, f"data{repeat}")

        def check(_stdout):
            self._record_hash("dataset", sha256_tree(out))

        self._sample("make_dataset", self.run("make-dataset", [
            "make-dataset", "--config", self.cfg, "--spec", self.spec,
            "--seed", str(self.seed), "--out", out], check))
        if repeat:
            shutil.rmtree(out, ignore_errors=True)

    def setup(self):
        """The first make-dataset. The other set-up repeats run during the
        first pass (see timed_pass); ``setup_s`` is the median of all."""
        self.make_dataset(0)
        self.data = os.path.join(self.root, "data0")
        self.manifest = os.path.join(self.data, "manifest.jsonl")
        rows = archive.load_manifest(self.manifest, check_features=False)
        self.ids = [r.id for r in rows]
        self.splits = [r.split for r in rows]
        self.n_train = self.splits.count("train")

    # -- the training stages -----------------------------------------------------

    def _sample(self, name: str, dt: float | None):
        if dt is not None:
            self.samples.setdefault(name, []).append(dt)
        return dt

    @staticmethod
    def _stage_dir(out: str, stage: str, repeat: int) -> str:
        """Where repeat ``repeat`` of a stage writes. Later stages and the
        queries read the artifacts of repeat 0; every repeat must write the
        same bytes."""
        return os.path.join(out, stage if repeat == 0 else f"{stage}{repeat}")

    def _stage_dirs(self, out: str):
        self.sim = self._stage_dir(out, "sim", 0)
        self.ret = self._stage_dir(out, "ret", 0)
        self.dec = self._stage_dir(out, "dec", 0)
        self.labels = os.path.join(self.sim, "similarity.ract")
        self.ret_ckpt = os.path.join(self.ret, "retrieval.ckpt")
        self.index = os.path.join(self.ret, "index.ract")
        self.dec_ckpt = os.path.join(self.dec, "decoder.ckpt")

    def prepare_similarity(self, out: str) -> float | None:
        labels = os.path.join(out, "similarity.ract")

        def check(_stdout):
            t = archive.read_archive(labels)
            s = t["scores_raw"]
            _require(s.shape == (len(self.ids), len(self.ids)),
                     f"similarity matrix shape {s.shape}")
            _require(np.array_equal(s, s.T), "similarity matrix not symmetric")
            _require(bool(np.all(np.diag(s) == 1.0)),
                     "similarity diagonal is not 1")
            self.label_matrix = t["labels"] > 0.5
            self._record_hash("similarity", sha256_file(labels)
                              + sha256_file(labels + ".json"))

        return self._sample("prepare_similarity", self.run(
            "prepare-similarity", [
                "prepare-similarity", "--config", self.cfg,
                "--manifest", self.manifest, "--out", out], check))

    def train_retrieval(self, out: str) -> float | None:
        def check(_stdout):
            index = os.path.join(out, "index.ract")
            emb = archive.read_archive(index)["embeddings"]
            _require(emb.shape[0] == self.n_train,
                     f"index has {emb.shape[0]} rows for {self.n_train} "
                     "train items")
            with open(os.path.join(out, "negatives.tsv"),
                      encoding="utf-8") as f:
                rows = [line.split("\t") for line in f.read().splitlines()[1:]]
            self.semi_hard_share = (sum(r[4] == "1" for r in rows) / len(rows)
                                    if rows else 0.0)
            for name in sorted(os.listdir(out)):
                self._record_hash("train-retrieval/" + name,
                                  sha256_file(os.path.join(out, name)))

        return self._sample("train_retrieval", self.run("train-retrieval", [
            "train-retrieval", "--config", self.cfg, "--manifest",
            self.manifest, "--labels", self.labels, "--seed", str(self.seed),
            "--out", out], check))

    def train_decoder(self, out: str) -> float | None:
        def check(_stdout):
            for name in sorted(os.listdir(out)):
                self._record_hash("train-decoder/" + name,
                                  sha256_file(os.path.join(out, name)))

        return self._sample("train_decoder", self.run("train-decoder", [
            "train-decoder", "--config", self.cfg, "--manifest",
            self.manifest, "--labels", self.labels, "--seed", str(self.seed),
            "--out", out], check))

    # -- queries -------------------------------------------------------------------

    def _picks(self, n: int, salt: str) -> list[str]:
        """Seeded item choices, the same for every pass of one seed."""
        rng = random.Random(f"{self.w.name}/{salt}/{self.seed}")
        order = rng.sample(self.ids, len(self.ids))
        return [order[i % len(order)] for i in range(n)]

    def _features(self, item_id: str) -> str:
        return os.path.join(self.data, "features", item_id + ".ract")

    def retrieve(self, item_id: str) -> float | None:
        def check(stdout):
            hits = json.loads(stdout)
            _require(len(hits) == self.k, f"{len(hits)} rows for K={self.k}")
            d = [h["distance"] for h in hits]
            _require(all(math.isfinite(x) for x in d), "non-finite distance")
            _require(d == sorted(d), f"distances not ascending: {d}")
            _require(item_id not in [h["id"] for h in hits],
                     "excluded item returned")
            self._record_hash("retrieve/" + item_id, hashlib.sha256(
                stdout.encode()).hexdigest())
            q = self.ids.index(item_id)
            self.retrieved += len(hits)
            self.retrieved_similar += sum(
                bool(self.label_matrix[q, self.ids.index(h["id"])])
                for h in hits)

        return self._sample("retrieve", self.run(f"retrieve {item_id}", [
            "retrieve", "--config", self.cfg, "--checkpoint", self.ret_ckpt,
            "--index", self.index, "--query-features",
            self._features(item_id), "-K", str(self.k),
            "--exclude", item_id], check))

    def generate(self, item_id: str) -> float | None:
        def check(stdout):
            out = json.loads(stdout)
            n_tokens = len(out["caption"].split())
            _require(n_tokens <= self.max_len,
                     f"caption of {n_tokens} tokens > max_len {self.max_len}")
            _require(len(out["guidance"]) == self.k,
                     f"{len(out['guidance'])} guidance captions")
            self._record_hash("generate/" + item_id, hashlib.sha256(
                stdout.encode()).hexdigest())

        return self._sample("generate", self.run(f"generate {item_id}", [
            "generate", "--config", self.cfg, "--checkpoint", self.dec_ckpt,
            "--index", self.index, "--features", self._features(item_id),
            "--retrieval-checkpoint", self.ret_ckpt, "--exclude", item_id],
            check))

    def evaluate(self, scope: str, split: str, out: str) -> float | None:
        n = sum(split in ("all", s) for s in self.splits)

        def check(_stdout):
            path = os.path.join(out, f"scope_{scope}_report.json")
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
            values = report["bleu"] + [report["rouge_l"], report["cider"]]
            for item in report["per_item"]:
                values += [item["bleu1"], item["rouge_l"], item["cider"]]
            _require(all(math.isfinite(v) for v in values),
                     "non-finite evaluate score")
            _require(len(report["per_item"]) == n,
                     f"{len(report['per_item'])} scored items, expected {n}")
            self.scores[f"cider_{scope}"] = report["cider"]
            for name in sorted(os.listdir(out)):
                self._record_hash(f"evaluate-{scope}/{name}",
                                  sha256_file(os.path.join(out, name)))

        dt = self._sample(f"evaluate_{scope}", self.run(
            f"evaluate {scope}", [
                "evaluate", "--config", self.cfg, "--scope", scope,
                "--manifest", self.manifest, "--labels", self.labels,
                "--retrieval-checkpoint", self.ret_ckpt, "--index", self.index,
                "--decoder-checkpoint", self.dec_ckpt, "--split", split,
                "--out", out], check))
        if dt is not None:
            self._evaluate_runs.setdefault(scope, (n, []))[1].append(dt)
        return dt

    # -- one timed pass ------------------------------------------------------------

    def timed_pass(self, index: int) -> None:
        """Runs the workload's timed commands once. A failed command adds no
        time; it is counted in failures.

        The host's speed drifts over seconds, so repeated commands are spread
        over the pass rather than run back to back: after the first run of
        each stage, the stage repeats, the generate calls and the evaluate
        rounds are interleaved, and the retrieve calls fill the gaps between
        all of them. Their medians then sample the whole pass, not one
        moment of it. The first pass also carries the make-dataset repeats
        after the first: they fill the gaps between all its commands and add
        nothing to its time."""
        out = os.path.join(self.root, f"pass{index}")
        self._stage_dirs(out)
        w, part = self.w, functools.partial

        def repeats(stage, method, n):
            return [part(method, self._stage_dir(out, stage, r))
                    for r in range(1, n)]

        gens = [part(self.generate, i) for i in
                self._picks(w.generate_calls, "generate")]
        evals = [part(self.evaluate, scope, split,
                      os.path.join(out, f"eval{r}_{scope}"))
                 for r in range(w.evaluate_repeats)
                 for scope, split in w.scopes]
        later = [part(self.train_decoder, self.dec)] + interleave(
            repeats("sim", self.prepare_similarity, w.similarity_repeats),
            repeats("ret", self.train_retrieval, w.retrieval_repeats),
            repeats("dec", self.train_decoder, w.decoder_repeats),
            gens, evals)
        rets = [part(self.retrieve, i) for i in
                self._picks(w.retrieve_calls, "retrieve")]
        ops = [part(self.prepare_similarity, self.sim),
               part(self.train_retrieval, self.ret)] + fill_gaps(later, rets)
        if index == 0:
            ops = fill_gaps(ops, [part(self.make_dataset, r)
                                  for r in range(1, SETUP_REPEATS)])

        self._evaluate_runs: dict[str, tuple[int, list[float]]] = {}
        self.pass_walls.append(sum(op() or 0.0 for op in ops))
        runs = self._evaluate_runs.values()
        self.pass_evaluate.append(
            sum(statistics.median(ts) for _, ts in runs))
        self.pass_captions.append(sum(n for n, _ in runs))

    # -- results -------------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics. A command that failed every time reads 0
        (the run is then not correct anyway)."""
        def med(xs):
            return statistics.median(xs) if xs else 0.0
        s = self.samples
        return {
            "setup_s": med(s.get("make_dataset")),
            "wall_s": med(self.pass_walls),
            "prepare_similarity_s": med(s.get("prepare_similarity")),
            "train_retrieval_s": med(s.get("train_retrieval")),
            "train_decoder_s": med(s.get("train_decoder")),
            "evaluate_s": med(self.pass_evaluate),
            "retrieve_p50_s": med(s.get("retrieve")),
            "generate_p50_s": med(s.get("generate")),
            "captions_per_s": med(
                [c / t for c, t in zip(self.pass_captions,
                                       self.pass_evaluate) if t > 0]),
        }

    def generate_tail(self) -> tuple[float, int]:
        """(seconds, percentile): the highest percentile of the generate
        calls with at least 10 samples beyond it."""
        gen = self.samples.get("generate")
        return percentile_with_tail(gen) if gen else (0.0, 50)

    def guidance_precision(self) -> float:
        return (self.retrieved_similar / self.retrieved if self.retrieved
                else 0.0)
