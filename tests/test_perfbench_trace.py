"""The benchmark's traced pass holds on toy inputs: every command it times
runs through ``c2q.cli.run`` inside ``perfbench/tracer.Tracer`` operations,
and ``perfbench/layers.self_checks`` then finds no failed check. A change
that a traced benchmark run would reject (a call count that no longer
matches the target steps, a function a per-layer metric names that is never
called, counts that differ between repeats) fails here first. The benchmark
files are only read."""

import importlib.util
import json
import os
import sys
import types
from pathlib import Path

from c2q import corpus
from c2q.cli import run

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TINY = ["--embed-dim", "8", "--hidden", "8"]


def _load(name, monkeypatch):
    """A benchmark module by path, with no bytecode written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_commands_pass_the_benchmark_self_checks(tmp_path, capsys, monkeypatch):
    tracing, layers, bench = (_load(name, monkeypatch) for name in ("tracer", "layers", "run"))
    d = tmp_path / "data"
    f = {name: str(tmp_path / f"{name}.jsonl") for name in ("train", "val", "test", "snippets")}
    f.update(vocab=str(tmp_path / "vocab.txt"), ckpt=str(tmp_path / "model.ckpt"),
             kept=str(tmp_path / "kept.jsonl"), report=str(tmp_path / "dedup.json"))
    # (argv, label, kind, items, meta), labelled as the benchmark labels them
    commands = [
        (["train", "--train-pairs", f["train"], "--val-pairs", f["val"], "--vocab", f["vocab"],
          "--checkpoint", f["ckpt"], "--epochs", "1", "--batch-size", "6", "--seed", "7"] + TINY,
         "train:train", "train", 6, {"val_role": "val"}),
        (["generate", "--checkpoint", f["ckpt"], "--vocab", f["vocab"], "--input", f["snippets"],
          "--greedy"], "greedy:test", "greedy", 4, {}),
        (["evaluate", "--checkpoint", f["ckpt"], "--vocab", f["vocab"], "--test-pairs", f["test"],
          "--beam", "10"], "beam10:test", "beam10", 4, {}),
        (["ir-baseline", "--train-pairs", f["train"], "--test-pairs", f["test"]],
         "ir:test", "ir", 4, {}),
        (["retrieve", "--train-pairs", f["train"], "--vocab", f["vocab"], "--top", "3",
          "--input", f["snippets"], "--seed", "7", "--embed-dim", "8"],
         "retrieve:test", "retrieve", 4, {}),
        (["dedup", "--train-pairs", f["train"], "--test-pairs", f["test"], "--out-pairs",
          f["kept"], "--report", f["report"], "--vocab", f["vocab"], "--seed", "7",
          "--embed-dim", "8"], "dedup:test", "dedup", 4, {}),
    ]
    tracer = tracing.Tracer()

    def traced(argv, label, kind, items=0, meta=None):
        with tracer.op(label, kind, items, meta):
            assert run(argv) == 0, capsys.readouterr().err

    tracer.install()
    try:
        traced(["preprocess", "--input", str(ROOT / "data" / "sample_posts.jsonl"),
                "--out-dir", str(d), "--val-count", "10", "--test-count", "10", "--seed", "1"],
               "preprocess", "setup")
        roles = {role: corpus.read_pairs(str(d / f"{role}.jsonl"))[:n]
                 for role, n in (("train", 6), ("val", 3), ("test", 4))}
        for role, pairs in roles.items():
            corpus.write_pairs(pairs, f[role])
        with open(f["snippets"], "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"code_tokens": p.code_tokens}) + "\n"
                          for p in roles["test"])
        traced(["build-vocab", "--pairs", f["train"], "--out", f["vocab"], "--min-freq", "0"],
               "build-vocab", "setup")
        for _ in range(2):  # self_checks also compares the repeats' exact counts
            for command in commands:
                traced(*command)
    finally:
        tracer.uninstall()
    assert os.path.exists(f["kept"])

    ctx = types.SimpleNamespace(
        checks=bench.Checks(),
        pairs={p.id: {"title_tokens": p.title_tokens} for ps in roles.values() for p in ps},
        role_ids={role: [p.id for p in ps] for role, ps in roles.items()})
    layers.self_checks(ctx, tracer)
    assert ctx.checks.attempted > 0 and ctx.checks.failures == []
    metrics = layers.per_layer_metrics(tracer, 0.0)
    assert metrics["trace.errors"][0] == 0 and metrics["cli.errors"][0] == 0
