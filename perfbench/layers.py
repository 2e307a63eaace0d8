"""Per-layer metrics of a traced run, and the tracer's self-checks.

Layers are the ``c2q`` modules. Totals are summed over every traced
operation (set-up, the target commands and the probes); ratios are taken
over the operations they name.
"""

from __future__ import annotations

import math
import statistics

CALLS, BUSY, SELF, ERRORS, TENSORS = range(5)
FIELDS = {"calls": CALLS, "busy_s": BUSY, "self_s": SELF}

# (function, fields) reported from the tracer's per-function totals
FUNCTION_METRICS = (
    ("numerics.backward", ("busy_s", "calls")),
    ("model.sequence_loss", ("busy_s", "self_s", "calls")),
    ("model.encode", ("busy_s", "calls")),
    ("model.decode_step", ("busy_s", "self_s", "calls")),
    ("model.attention_step", ("busy_s",)),
    ("train.train", ("self_s",)),
    ("train.clip_global_norm", ("busy_s",)),
    ("train.mean_loss", ("busy_s",)),
    ("train.save_checkpoint", ("busy_s",)),
    ("train.load_checkpoint", ("busy_s",)),
    ("decode.greedy_decode_full", ("busy_s", "self_s")),
    ("decode.beam_search", ("busy_s", "self_s")),
    ("retrieval.tfidf_build", ("busy_s",)),
    ("retrieval.tfidf_query", ("busy_s", "calls")),
    ("retrieval.topk_similar", ("busy_s",)),
    ("retrieval.embed_code", ("busy_s",)),
    ("retrieval.dedup_testset", ("busy_s",)),
    ("metrics.score_report", ("busy_s", "calls")),
    ("corpus.tokenize_code", ("busy_s", "calls")),
    ("corpus.read_pairs", ("busy_s",)),
    ("corpus.write_pairs", ("busy_s",)),
    ("vocab.build_vocab", ("busy_s",)),
    ("vocab.encode_source", ("busy_s", "calls")),
)
COUNTERS = ("train.checkpoint_bytes", "train.steps", "retrieval.removed",
            "retrieval.unembeddable", "metrics.pairs", "corpus.code_tokens")
LATENCIES = (("decode.greedy_latency_ms", "decode.greedy_decode_full", "greedy"),
             ("decode.beam10_latency_ms", "decode.beam_search", "beam10"))


def _total(ops, name, index):
    return sum(op.stats[name][index] for op in ops if name in op.stats)


def _ratio(num, den):
    return num / den if den else 0.0


def tail_latency(samples):
    """(p50, tail, tail percentile, sample count). The tail is the highest
    whole percentile with at least ten samples beyond it; below 20 samples
    that would not lie above the median, and tail and percentile read 0."""
    n = len(samples)
    if not n:
        return 0.0, 0.0, 0, 0
    ordered = sorted(samples)
    if n < 20:
        return statistics.median(ordered), 0.0, 0, n
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct / 100 * n)
    return statistics.median(ordered), ordered[rank - 1], pct, n


def per_layer_metrics(tracer, overhead):
    """name -> (value, unit) for every per-layer metric."""
    ops = tracer.ops
    m = {}
    for name, fields in FUNCTION_METRICS:
        for f in fields:
            m[f"{name}.{f}"] = (_total(ops, name, FIELDS[f]), "count" if f == "calls" else "s")

    train_ops = [op for op in ops if op.kind == "train"]
    decode_ops = [op for op in ops if op.kind in ("greedy", "beam10")]
    m["numerics.tensors_per_example"] = (
        _ratio(sum(op.tensors for op in train_ops), sum(op.items for op in train_ops)),
        "tensors/example")
    m["numerics.tensors_per_decode_step"] = (
        _ratio(_total(decode_ops, "model.decode_step", TENSORS),
               _total(decode_ops, "model.decode_step", CALLS)), "tensors/step")

    for name in COUNTERS:
        m[name] = (sum(op.counts[name] for op in ops), "B" if name.endswith("bytes") else "count")

    for metric, fn, kind in LATENCIES:
        kind_ops = [op for op in ops if op.kind == kind]
        p50, tail, pct, n = tail_latency([d for op in kind_ops for d in op.durations[fn]])
        m[f"{metric}.p50"] = (1000 * p50, "ms")
        m[f"{metric}.tail"] = (1000 * tail, "ms")
        m[f"{metric}.tail_pct"] = (pct, "%")
        m[f"{metric}.samples"] = (n, "count")
        m[f"decode.steps_per_snippet.{kind}"] = (
            _ratio(_total(kind_ops, "model.decode_step", CALLS),
                   sum(op.items for op in kind_ops)), "steps/snippet")

    retrieve_ops = [op for op in ops if op.kind == "retrieve"]
    m["retrieval.embed_code.calls_per_query"] = (
        _ratio(_total(retrieve_ops, "retrieval.embed_code", CALLS),
               sum(op.items for op in retrieve_ops)), "calls/query")

    m["cli.command_s"] = (_total(ops, "cli.run", BUSY), "s")
    m["cli.self_s"] = (_total(ops, "cli.run", SELF), "s")
    m["cli.errors"] = (_total(ops, "cli.run", ERRORS)
                       + sum(op.counts["cli.nonzero_exit"] for op in ops), "count")
    m["trace.errors"] = (sum(st[ERRORS] for op in ops for st in op.stats.values()), "count")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def _targets(ctx, role):
    """Decoder steps of one teacher-forced pass over ``role``: title + END."""
    return sum(len(ctx.pairs[i]["title_tokens"]) + 1 for i in ctx.role_ids[role])


def exact_counts(op):
    """Counts that must repeat exactly for identical inputs, by op kind."""
    if op.kind == "train":
        return (op.tensors, op.items)
    if op.kind in ("greedy", "beam10"):
        return (op.calls("model.decode_step"), op.stats["model.decode_step"][TENSORS])
    if op.kind == "retrieve":
        return (op.calls("retrieval.embed_code"),)
    return None


def self_checks(ctx, tracer):
    """Call counts each workload fixes in advance, exact repeats, and a
    non-zero call count for every function a per-layer metric names."""
    chk, ops = ctx.checks, tracer.ops
    for op in ops:
        role = op.label.partition(":")[2]
        if op.kind == "train":
            want = _targets(ctx, role) + _targets(ctx, op.meta["val_role"])
            chk.expect(op.calls("model.decode_step") == want,
                       f"trace {op.label}: model.decode_step calls "
                       f"{op.calls('model.decode_step')} != target steps {want}")
        if op.kind == "ir":
            chk.expect(op.calls("retrieval.tfidf_query") == op.items,
                       f"trace {op.label}: tfidf_query calls "
                       f"{op.calls('retrieval.tfidf_query')} != {op.items} test pairs")
        if op.kind in ("ir", "beam10"):
            chk.expect(op.calls("metrics.score_report") == 1,
                       f"trace {op.label}: score_report calls {op.calls('metrics.score_report')}")
    by_label = {}
    for op in ops:
        counts = exact_counts(op)
        if counts is not None:
            by_label.setdefault(op.label, []).append(counts)
    for label, seen in by_label.items():
        chk.expect(all(c == seen[0] for c in seen),
                   f"trace {label}: exact counts differ between repeats: {seen}")
    for name, _ in FUNCTION_METRICS:
        chk.expect(_total(ops, name, CALLS) > 0, f"trace: {name} was never called")
