"""Per-layer tracing of the c2q package from outside it.

``Tracer.install()`` wraps every public function of every ``c2q`` module, plus
``Tensor.backward`` and the ``TfidfIndex`` constructor and query, and rebinds
each wrapper at every import site where the original is looked up (for
example ``c2q.train.sequence_loss``, ``c2q.decode.encode`` and
``c2q.model.attention_step``, which the wrapped ``numerics`` functions
reach through their module globals). It also counts ``Tensor`` constructions.

Only calls made inside an ``op()`` block are recorded: per operation and
function it keeps ``calls``, ``busy_s`` (inclusive time), ``self_s`` (busy
time minus the time of wrapped children), ``errors`` and the Tensors
constructed while the call was active. Spans (id, parent id, name, start,
end, operation id) are kept in memory and written out by ``write_spans``.
``uninstall()`` restores every binding.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("corpus", "vocab", "numerics", "model", "train", "decode",
           "metrics", "retrieval", "cli")
# Kernel ops run thousands of times per example: aggregate them, keep no spans.
NO_SPANS = ("numerics.",)
MAX_SPANS = 100_000
# Functions whose individual durations are kept for latency percentiles.
LATENCY = ("decode.greedy_decode_full", "decode.beam_search")


class Op:
    """One traced operation: a CLI command or a library set-up call."""

    def __init__(self, op_id, label, kind, items, meta):
        self.id, self.label, self.kind, self.items = op_id, label, kind, items
        self.meta = meta
        self.start = self.end = 0.0
        self.tensors = 0
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])  # calls busy self errors tensors
        self.counts = defaultdict(int)
        self.durations = defaultdict(list)

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0


class Tracer:
    def __init__(self):
        self.ops = []
        self.spans = []
        self.spans_dropped = 0
        self.tensors = 0
        self._current = None
        self._stack = []
        self._next_span = 0
        self._patches = []

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def op(self, label, kind, items=0, meta=None):
        op = Op(len(self.ops), label, kind, items, meta or {})
        self.ops.append(op)
        self._current, self._stack = op, []
        tensors0 = self.tensors
        op.start = time.perf_counter()
        try:
            yield op
        finally:
            op.end = time.perf_counter()
            op.tensors = self.tensors - tensors0
            self._current = None

    def _wrap(self, name, fn, observe=None):
        tracer = self
        keep_spans = not name.startswith(NO_SPANS)
        keep_durations = name in LATENCY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer._current
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_span, 0.0]  # span id, time covered by children
            tracer._next_span += 1
            stack.append(frame)
            tensors0 = tracer.tensors
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                busy = end - start
                if parent is not None:
                    parent[1] += busy
                st = op.stats[name]
                st[0] += 1
                st[1] += busy
                st[2] += busy - frame[1]
                st[3] += failed
                st[4] += tracer.tensors - tensors0
                if keep_durations:
                    op.durations[name].append(busy)
                if keep_spans:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((frame[0], parent[0] if parent else None,
                                             name, start, end, op.id))
                    else:
                        tracer.spans_dropped += 1
                if not failed and observe is not None:
                    observe(op, args, kwargs, result)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        import importlib
        mods = {m: importlib.import_module(f"c2q.{m}") for m in MODULES}
        numerics, retrieval = mods["numerics"], mods["retrieval"]
        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, _OBSERVERS.get(name))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, attr, wrappers[id(obj)])

        self._patch(numerics.Tensor, "backward",
                    self._wrap("numerics.backward", numerics.Tensor.backward))
        self._patch(retrieval.TfidfIndex, "__init__",
                    self._wrap("retrieval.tfidf_build", retrieval.TfidfIndex.__init__))
        self._patch(retrieval.TfidfIndex, "query",
                    self._wrap("retrieval.tfidf_query", retrieval.TfidfIndex.query))

        tensor_init = numerics.Tensor.__init__
        tracer = self

        def counting_init(self_, *args, **kwargs):
            tracer.tensors += 1
            tensor_init(self_, *args, **kwargs)
        self._patch(numerics.Tensor, "__init__", counting_init)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op in self.ops:
                fh.write(json.dumps({"op": op.id, "label": op.label, "kind": op.kind,
                                     "start": op.start, "end": op.end}) + "\n")
            for span_id, parent, name, start, end, op_id in self.spans:
                fh.write(json.dumps({"span": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op_id}) + "\n")


# -- counters derived from arguments and results -------------------------------


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _observe_tokenize(op, args, kwargs, result):
    op.counts["corpus.code_tokens"] += len(result)


def _observe_save(op, args, kwargs, result):
    op.counts["train.checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 3, "path"))


def _observe_train(op, args, kwargs, result):
    _, log = result
    op.counts["train.steps"] += log[-1].step


def _observe_dedup(op, args, kwargs, result):
    report = result[2]
    op.counts["retrieval.removed"] += report.removed
    op.counts["retrieval.unembeddable"] += report.unembeddable


def _observe_score(op, args, kwargs, result):
    op.counts["metrics.pairs"] += result["pairs"]


def _observe_run(op, args, kwargs, result):
    op.counts["cli.nonzero_exit"] += result != 0


_OBSERVERS = {
    "corpus.tokenize_code": _observe_tokenize,
    "train.save_checkpoint": _observe_save,
    "train.train": _observe_train,
    "retrieval.dedup_testset": _observe_dedup,
    "metrics.score_report": _observe_score,
    "cli.run": _observe_run,
}
