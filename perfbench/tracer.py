"""Spans around epinmt's public functions, recorded from outside the package.

`Tracer.install()` rebinds each function named in TARGETS to a wrapper that
records one span per call: name, start, end, parent span and run id. Every
other name in an epinmt module that is bound to the same function object
(``from .curriculum import sample_batch``) is rebound as well. The package
looks these names up at call time, so no hook inside ``src/`` is needed.

Spans live in flat in-memory lists and are written out once, by `dump`.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

TENSOR_OPS = ("add", "sub", "mul", "scale", "relu", "gelu", "reshape", "transpose",
              "reduce_sum", "reduce_mean", "matmul", "softmax", "layer_norm",
              "embedding", "gather_rows", "softmax_cross_entropy")

# the ops whose calls and self time are reported one by one
REPORTED_OPS = ("matmul", "add", "scale", "layer_norm", "softmax", "gelu", "embedding",
                "gather_rows", "softmax_cross_entropy", "reshape", "transpose")

TARGETS = {
    "tensor": TENSOR_OPS + ("backward", "sgd_step", "ParameterSet.copy",
                            "ParameterSet.frozen_view"),
    "model": ("nll_batch", "nll_per_pair", "encode_batch", "decoder_logits", "lm_logits",
              "lm_logprob_batch", "beam_decode_batch", "save_model", "load_model"),
    "curriculum": ("sample_batch", "build_denoise_scorer", "train_base_lm",
                   "build_divergence_scorer", "score_corpus", "build_plan"),
    "trainers": ("pretrain_vanilla", "train_agg", "epi_train", "specialist_step",
                 "maml_train", "finetune"),
    "evaluate": ("translate_corpus", "corpus_bleu", "run_protocol", "swap_experiment",
                 "perturb_experiment", "bin_report"),
    "corpus": ("build_dataset", "save_tsv"),
    "pipeline": ("gen_data", "score", "train", "experiment"),
    "cli": ("cmd_gen_data", "cmd_score", "cmd_train", "cmd_finetune", "cmd_eval",
            "cmd_experiment"),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# extra facts recorded per span, read from the call's arguments after it returns
INFO = {
    # rows and positions of the decoder input: the prefix recomputed per step
    "model.decoder_logits": lambda a, k: list(np.shape(_arg(a, k, 4, "dec_in"))),
    "model.beam_decode_batch": lambda a, k: len(_arg(a, k, 1, "sources")),
    "model.save_model": lambda a, k: os.path.getsize(_arg(a, k, 1, "path")),
    # the (stage, seed) pairs behind pipeline.redundant_stage_ratio
    "pipeline.gen_data": lambda a, k: _arg(a, k, 1, "seed"),
    "pipeline.score": lambda a, k: _arg(a, k, 1, "seed"),
    "trainers.pretrain_vanilla": lambda a, k: _arg(a, k, 2, "hp").seed,
}


def epinmt_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "epinmt" or k.startswith("epinmt."))]


def _resolve(qualname: str):
    """'tensor.ParameterSet.copy' -> (owner object, attribute, current value)."""
    module, _, rest = qualname.partition(".")
    owner = sys.modules[f"epinmt.{module}"]
    *path, leaf = rest.split(".")
    for p in path:
        owner = getattr(owner, p)
    return owner, leaf, vars(owner)[leaf]


class Rebinder:
    """Replace a function under every name an epinmt module binds it to; undo later."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, qualname: str, make):
        owner, leaf, orig = _resolve(qualname)
        new = make(orig)
        self._set(owner, leaf, new)
        if isinstance(owner, type):
            return
        for mod in epinmt_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, new)

    def _set(self, obj, key, value):
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def restore(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)


@contextmanager
def rebound(qualname: str, make):
    """Temporarily rebind one function; `make(original)` returns the replacement."""
    r = Rebinder()
    r.rebind(qualname, make)
    try:
        yield
    finally:
        r.restore()


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.run: list[str] = []
        self.info: dict[int, object] = {}
        self.run_id = "run"
        self._stack: list[int] = []
        self._rebinder = Rebinder()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        for module, attrs in TARGETS.items():
            for attr in attrs:
                qualname = f"{module}.{attr}"
                self._rebinder.rebind(qualname, functools.partial(
                    self._wrap, qualname, INFO.get(qualname)))

    def uninstall(self) -> None:
        self._rebinder.restore()

    def _wrap(self, qualname, info, fn):
        nid = self.name_id(qualname)
        name, start, end, parent, run = self.name, self.start, self.end, self.parent, self.run
        stack, infos, clock = self._stack, self.info, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if info is not None:
                infos[idx] = info(args, kwargs)
            return result

        return traced

    # -- persistence --------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span, column by column, as gzipped JSON."""
        payload = {"names": self.names, "name": self.name, "start": self.start,
                   "end": self.end, "parent": self.parent, "run": self.run,
                   "info": {str(k): v for k, v in self.info.items()}}
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(payload, f)

    def merge(self, path, run_id: str) -> None:
        """Append spans dumped by another process, under `run_id`."""
        with gzip.open(path, "rt", encoding="utf-8") as f:
            p = json.load(f)
        base = len(self.name)
        remap = [self.name_id(n) for n in p["names"]]
        self.name.extend(remap[i] for i in p["name"])
        self.start.extend(p["start"])
        self.end.extend(p["end"])
        self.parent.extend(q + base if q >= 0 else -1 for q in p["parent"])
        self.run.extend([run_id] * len(p["name"]))
        for k, v in p["info"].items():
            self.info[int(k) + base] = v

    # -- analysis -----------------------------------------------------------

    def view(self, runs) -> "SpanView":
        return SpanView(self, set(runs))


class SpanView:
    """Durations, self times and ancestry for the spans of some runs."""

    def __init__(self, tracer: Tracer, runs: set):
        self.t = tracer
        name = np.asarray(tracer.name, dtype=np.int64)
        parent = np.asarray(tracer.parent, dtype=np.int64)
        dur = (np.asarray(tracer.end, dtype=np.int64)
               - np.asarray(tracer.start, dtype=np.int64)).astype(np.float64)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self.name, self.parent, self.dur = name, parent, dur
        self.self_ns = dur - child
        # spans merged from a subprocess carry '<run>:<command>' as run id
        self.sel = np.array([r.split(":")[0] in runs for r in tracer.run], dtype=bool)

    def ids(self, qualname: str) -> np.ndarray:
        """Indices of the selected spans named `qualname`."""
        nid = self.t._ids.get(qualname, -1)
        return np.flatnonzero(self.sel & (self.name == nid))

    def calls(self, qualname: str) -> int:
        return int(len(self.ids(qualname)))

    def total_ms(self, qualname: str) -> float:
        return float(self.dur[self.ids(qualname)].sum()) / 1e6

    def self_ms(self, qualname: str) -> float:
        return float(self.self_ns[self.ids(qualname)].sum()) / 1e6

    def p50_ms(self, qualname: str) -> float:
        d = self.dur[self.ids(qualname)]
        return float(np.median(d)) / 1e6 if len(d) else 0.0

    def nearest(self, qualname: str) -> np.ndarray:
        """For every span, the index of its nearest ancestor-or-self named
        `qualname`, or -1. Parents always precede their children."""
        nid = self.t._ids.get(qualname, -1)
        out = np.full(len(self.name), -1, dtype=np.int64)
        name, parent = self.name.tolist(), self.parent.tolist()
        for i in range(len(name)):
            if name[i] == nid:
                out[i] = i
            elif parent[i] >= 0:
                out[i] = out[parent[i]]
        return out

    def op_mask(self) -> np.ndarray:
        ids = [self.t._ids[f"tensor.{op}"] for op in TENSOR_OPS
               if f"tensor.{op}" in self.t._ids]
        return self.sel & np.isin(self.name, ids)


# ---------------------------------------------------------------------------
# per-layer metrics

CLI_COMMANDS = ("gen-data", "score", "train", "finetune", "experiment")
STAGES = ("pipeline.gen_data", "pipeline.score", "trainers.pretrain_vanilla")

# inclusive times of coarse functions: these sum over the traced set-up and one
# traced work rep, because most of them run during set-up on some workloads
STAGE_TIMES = {
    "model.nll_per_pair.ms": "ms", "model.lm_logprob_batch.ms": "ms",
    "model.save_model.ms": "ms", "model.load_model.ms": "ms",
    "curriculum.build_denoise_scorer.s": "s", "curriculum.train_base_lm.s": "s",
    "curriculum.build_divergence_scorer.s": "s", "curriculum.score_corpus.s": "s",
    "trainers.epi_train.s": "s", "trainers.train_agg.s": "s", "trainers.finetune.s": "s",
    "trainers.maml_train.s": "s", "evaluate.translate_corpus.s": "s",
    "evaluate.run_protocol.s": "s", "evaluate.swap_experiment.s": "s",
    "evaluate.perturb_experiment.s": "s", "evaluate.bin_report.s": "s",
    "corpus.build_dataset.ms": "ms", "corpus.save_tsv.ms": "ms",
}

# everything else covers one traced work rep
WORK_METRICS = {
    "tensor.ops_per_loss": "count", "tensor.ops_per_decode_step": "count",
    **{f"tensor.{op}.{stat}": unit for op in REPORTED_OPS
       for stat, unit in (("calls", "count"), ("self_ms", "ms"))},
    "tensor.backward.calls": "count", "tensor.backward.self_ms": "ms",
    "tensor.sgd_step.self_ms": "ms",
    "tensor.ParameterSet.copy.calls": "count",
    "tensor.ParameterSet.frozen_view.calls": "count",
    "model.nll_batch.ms_p50": "ms",
    "model.encode_batch.self_ms": "ms", "model.decoder_logits.self_ms": "ms",
    "model.decoder_logits.calls_per_sent": "calls/sent",
    "model.decode.prefix_recompute_ratio": "ratio",
    "model.beam_decode_batch.self_ms": "ms",
    "model.save_model.bytes": "bytes",
    "curriculum.sample_batch.self_ms": "ms",
    "trainers.specialist_step.ms_p50": "ms",
    "evaluate.corpus_bleu.self_ms": "ms",
    "pipeline.gen_data.calls": "count", "trainers.pretrain_vanilla.calls": "count",
    "pipeline.score.calls": "count", "pipeline.redundant_stage_ratio": "ratio",
}

# measured by the workload itself rather than read from spans
OUTSIDE = {
    "cli.import_s": "s",
    **{f"cli.{c.replace('-', '_')}.wall_s": "s" for c in CLI_COMMANDS},
    "run.warnings": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}

PER_LAYER = {**WORK_METRICS, **STAGE_TIMES, **OUTSIDE}

# counts that must be equal in every traced rep of one seed
EXACT = ("tensor.ops_per_loss", "tensor.ops_per_decode_step",
         "model.decoder_logits.calls_per_sent", "model.decode.prefix_recompute_ratio",
         "model.save_model.bytes", "pipeline.gen_data.calls",
         "trainers.pretrain_vanilla.calls", "pipeline.score.calls",
         "pipeline.redundant_stage_ratio")


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def stage_times(view: SpanView) -> dict[str, float]:
    out = {}
    for metric, unit in STAGE_TIMES.items():
        qualname = metric.rsplit(".", 1)[0]
        ms = view.total_ms(qualname)
        out[metric] = ms / 1e3 if unit == "s" else ms
    return out


def work_metrics(view: SpanView) -> dict[str, float]:
    t = view.t
    out = {}
    for metric in WORK_METRICS:
        qualname, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = view.calls(qualname)
        elif stat == "self_ms":
            out[metric] = view.self_ms(qualname)
        elif stat == "ms_p50":
            out[metric] = view.p50_ms(qualname)

    ops = view.op_mask()
    losses = view.ids("model.nll_batch")
    in_loss = view.nearest("model.nll_batch") >= 0
    out["tensor.ops_per_loss"] = _ratio((ops & in_loss).sum(), len(losses))

    # decoder calls made by beam search, as opposed to teacher-forced ones
    beams = view.ids("model.beam_decode_batch")
    under_beam = view.nearest("model.beam_decode_batch") >= 0
    dec_anc = view.nearest("model.decoder_logits")
    steps = np.intersect1d(view.ids("model.decoder_logits"), np.flatnonzero(under_beam))
    in_step = (dec_anc >= 0) & under_beam
    out["tensor.ops_per_decode_step"] = _ratio((ops & in_step).sum(), len(steps))
    sentences = sum(t.info[i] for i in beams)
    out["model.decoder_logits.calls_per_sent"] = _ratio(len(steps), sentences)
    rows = sum(t.info[i][0] for i in steps)
    positions = sum(t.info[i][0] * t.info[i][1] for i in steps)
    out["model.decode.prefix_recompute_ratio"] = _ratio(positions, rows)

    out["model.save_model.bytes"] = sum(t.info[i] for i in view.ids("model.save_model"))
    calls = sum(view.calls(s) for s in STAGES)
    distinct = len({(s, t.info[i]) for s in STAGES for i in view.ids(s)})
    out["pipeline.redundant_stage_ratio"] = _ratio(calls - distinct, distinct)
    return out


def call_counts(view: SpanView) -> dict[str, int]:
    """Calls per traced function; two reps of one workload must agree exactly."""
    return {n: view.calls(n) for n in view.t.names}
