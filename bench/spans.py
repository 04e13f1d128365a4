"""Outside-in tracing of ragcap's layers.

The tracer replaces public functions of the ``ragcap`` modules with wrappers
while a traced run is active and puts the originals back afterwards; it edits
no source file. A module-level function is replaced at every place that binds
it, so ``pipeline.pairwise_similarity`` and ``cli.load_dataset`` (both
imported by name) are traced as well as the defining module's own global.
Methods are replaced on their class.

A *span* probe records calls, total time and self time (its time minus the
time of spans that ran inside it). A *count* probe only counts calls: it is
used for scalar helpers called hundreds of thousands of times, whose timing
would cost more than the work. Either kind can also sum a per-call amount
(tokens, rows, bytes).
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_size(args, kwargs) -> int:
    # a missing file is the wrapped reader's error to report, not ours
    try:
        return os.path.getsize(_arg(args, kwargs, 0, "path"))
    except OSError:
        return 0


@dataclass(frozen=True)
class Probe:
    """One wrapped function.

    ``name`` prefixes the metrics: ``<name>_s`` (self time) and
    ``<name>_calls`` for spans, ``calls`` (default ``<name>_calls``) for
    counts. ``amount`` names a counter summed from each call's arguments by
    ``measure``. ``required_on`` lists the workloads on which the probe must
    record at least one call; a probe that records none there is a missing
    span."""
    name: str
    target: str  # "module:qualname"
    timed: bool = True
    calls: str | None = None
    amount: str | None = None
    measure: Callable | None = None
    required_on: tuple[str, ...] = ()

    @property
    def calls_metric(self) -> str:
        return self.calls or self.name + "_calls"


ALL = ("desk", "wide")

PROBES = (
    Probe("reference_models.pretrain",
          "ragcap.reference_models:TinyCausalLm.pretrain",
          required_on=ALL),
    Probe("reference_models.features",
          "ragcap.reference_models:TinyCausalLm.features",
          amount="reference_models.features_tokens",
          measure=lambda a, k: len(_arg(a, k, 1, "token_ids")),
          required_on=("desk",)),
    Probe("similarity.pairwise", "ragcap.similarity:pairwise_similarity",
          required_on=("wide",)),
    Probe("similarity.bertscore", "ragcap.similarity:bertscore", timed=False,
          required_on=("wide",)),
    # self time of train_retrieval: the mining loop and triplet bookkeeping,
    # without the embedder forward/backward and Adam spans inside it
    Probe("retrieval.mining", "ragcap.retrieval:train_retrieval",
          required_on=ALL),
    Probe("retrieval.sq_l2", "ragcap.retrieval:sq_l2", timed=False,
          required_on=ALL),
    Probe("retrieval.embed_batch", "ragcap.retrieval:embed_batch",
          required_on=("wide",)),
    Probe("retrieval.build_index", "ragcap.retrieval:build_index",
          required_on=("wide",)),
    Probe("retrieval.topk", "ragcap.retrieval:retrieve_topk",
          required_on=ALL),
    Probe("decoder.train_self", "ragcap.decoder:train_decoder",
          required_on=("desk",)),
    Probe("decoder.loss", "ragcap.decoder:smoothed_cross_entropy",
          required_on=("desk",)),
    Probe("decoder.position_logits", "ragcap.decoder:position_logits",
          amount="decoder.logit_rows",
          measure=lambda a, k: len(_arg(a, k, 4, "prefix")),
          required_on=("desk",)),
    # posterior keeps one row of the position_logits call it makes
    Probe("decoder.posterior", "ragcap.decoder:posterior", timed=False,
          amount="decoder.posterior_rows",
          measure=lambda a, k: len(_arg(a, k, 4, "prefix")),
          required_on=("desk",)),
    Probe("decoder.beam_search", "ragcap.decoder:beam_search",
          required_on=("desk",)),
    Probe("autodiff.backward", "ragcap.autodiff:Tensor.backward",
          required_on=("desk",)),
    Probe("autodiff.make", "ragcap.autodiff:_make", timed=False,
          calls="autodiff.nodes", required_on=("desk",)),
    Probe("layers.mha", "ragcap.layers:MultiHeadAttention.__call__",
          required_on=("desk",)),
    Probe("layers.adam_step", "ragcap.layers:Adam.step",
          required_on=("desk",)),
    Probe("metrics.evaluate_corpus", "ragcap.metrics:evaluate_corpus",
          required_on=ALL),
    Probe("archive.write", "ragcap.archive:atomic_write_bytes",
          amount="archive.bytes_written",
          measure=lambda a, k: len(_arg(a, k, 1, "payload")),
          required_on=ALL),
    Probe("archive.read", "ragcap.archive:read_archive",
          amount="archive.bytes_read",
          measure=_file_size,
          required_on=ALL),
    Probe("archive.read", "ragcap.archive:load_checkpoint",
          amount="archive.bytes_read",
          measure=_file_size,
          required_on=ALL),
    Probe("data.load_dataset", "ragcap.data:load_dataset", required_on=ALL),
)


def _resolve(target: str):
    """(owner, attribute, function) for "module:qualname"; raises
    AttributeError/ImportError when the target no longer exists."""
    mod_name, qual = target.split(":")
    owner = importlib.import_module(mod_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span and count table for one process; install() wraps, uninstall()
    restores. Statistics accumulate across install/uninstall cycles."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.amounts: dict[str, float] = {}
        self.unresolved: list[str] = []
        self.target_calls: dict[str, int] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cells: list[tuple[Probe, list[int]]] = []

    # -- wrappers ----------------------------------------------------------

    def _counted(self, probe: Probe, fn, cell):
        measure, amount, amounts = probe.measure, probe.amount, self.amounts
        if measure is None:
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                cell[0] += 1
                amounts[amount] += measure(args, kwargs)
                return fn(*args, **kwargs)
        return counted

    def _spanned(self, probe: Probe, fn, cell):
        stack = self._stack
        clock = time.perf_counter
        name = probe.name
        self_s, total_s = self.self_s, self.total_s
        measure, amount, amounts = probe.measure, probe.amount, self.amounts

        def spanned(*args, **kwargs):
            cell[0] += 1
            if measure is not None:
                amounts[amount] += measure(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                total_s[name] += dt
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
        return spanned

    # -- install / uninstall ----------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for probe in self.probes:
            self.calls.setdefault(probe.calls_metric, 0)
            self.target_calls.setdefault(probe.target, 0)
            if probe.timed:
                self.self_s.setdefault(probe.name, 0.0)
                self.total_s.setdefault(probe.name, 0.0)
            if probe.amount:
                self.amounts.setdefault(probe.amount, 0)
            try:
                owner, attr, fn = _resolve(probe.target)
            except (ImportError, AttributeError):
                if probe.target not in self.unresolved:
                    self.unresolved.append(probe.target)
                continue
            # each wrapper counts into its own cell, folded in on uninstall
            cell = [0]
            self._cells.append((probe, cell))
            wrapper = (self._spanned(probe, fn, cell) if probe.timed
                       else self._counted(probe, fn, cell))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # module-level function: rebind it wherever a ragcap module holds it
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ragcap"
                                       or mod_name.startswith("ragcap.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        for probe, cell in self._cells:
            self.calls[probe.calls_metric] += cell[0]
            self.target_calls[probe.target] += cell[0]
        self._cells = []

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: ``<span>_s`` self times, call counts and
        summed amounts, plus the decoder's useful-row share."""
        out: dict[str, float] = {}
        for name, value in self.self_s.items():
            out[name + "_s"] = value
        out.update(self.calls)
        out.update(self.amounts)
        rows = self.amounts.get("decoder.logit_rows", 0)
        # a teacher-forced row feeds the loss; a posterior call keeps one
        # row of the prefix it re-encodes and discards the others
        useful = (rows - self.amounts.get("decoder.posterior_rows", 0)
                  + self.calls.get("decoder.posterior_calls", 0))
        out["decoder.useful_row_share"] = useful / rows if rows else 0.0
        return out

    def missing(self, workload: str) -> list[str]:
        """Probes required on ``workload`` that recorded no call, and targets
        that no longer exist."""
        gone = [f"{t} (not found)" for t in self.unresolved]
        for probe in self.probes:
            if (workload in probe.required_on
                    and probe.target not in self.unresolved
                    and self.target_calls.get(probe.target, 0) == 0):
                gone.append(f"{probe.name} ({probe.target}: 0 calls)")
        return gone
