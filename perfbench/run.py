#!/usr/bin/env python3
"""c2q benchmark: seeded synthetic workloads driven through ``c2q.cli.run``.

Run from the repository root:

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One run is one process and one workload (``all`` starts one fresh process
per workload). It generates the workload's raw posts from ``--seed``, times
the program's set-up commands, then runs the workload's target commands
repeatedly for ``--seconds`` seconds (whole commands, at least one of each)
and every other command once or a few times as a probe, and checks every
output. Every time is scaled to a reference machine speed measured while
the run goes on (speed.py), so the machine's drift does not read as a
change of c2q's speed. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of a traced pass with a fixed
amount of work. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
if any check failed. See README.md next to this file for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

VOCAB_CAP = 5000
EMBED_DIM = 300
MAX_DECODE_LEN = 16          # Hyperparams default; bounds every generated title
INIT_SEED = 2005             # fixed, so every seed decodes with the same weights
PROBE_SECONDS = 2.0
PROBE_MIN_REPS = 2
TRACED_REPS = {"target": 2, "probe": 1}
GREEDY_SAMPLE = 2            # snippets re-decoded by the library for checks
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS runs single-threaded unless the environment says otherwise: on a
# small shared machine a second BLAS thread waits on whichever vCPU a
# neighbour slows, which doubled the run-to-run spread of the model metrics.
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    background: int                 # posts that only feed vocab / retrieval docs
    roles: dict                     # role -> post count, fixed length multisets
    targets: dict                   # kind -> role, timed for --seconds
    exact_dups: int = 0
    near_dups: int = 0
    target_reps: int = 1            # commands per target kind at the least
    setup_reps: int = 2             # set-ups per run; setup_s is their median


WORKLOADS = {
    # Training at paper dims: numerics backward, the teacher-forced model and
    # the SGD loop do the work; one batch of 32 per command.
    "train_paper": Workload(
        background=3000, roles={"train": 32, "val": 8, "probe": 4, "probe2": 2},
        targets={"train": "train"}),
    # Forward-only decoding with an untrained paper-dims checkpoint.
    "decode_paper": Workload(
        background=3000, roles={"greedy": 16, "beam": 12, "probe": 4, "probe2": 2},
        targets={"greedy": "greedy", "beam10": "beam"}),
    # Retrieval against 20,000 training pairs, with planted duplicates. Each
    # command re-reads and re-indexes 20k pairs (3-5 s apiece) and slows or
    # speeds up with the neighbours' memory traffic more than the reference
    # loop does, so each target runs at least twice, interleaved. The set-up
    # alone takes 7-8 s, so it runs once to keep a run under a minute.
    "retrieval_20k": Workload(
        background=20000, roles={"test": 12, "probe": 4, "probe2": 2},
        targets={"ir": "test", "retrieve": "test", "dedup": "test"},
        exact_dups=3, near_dups=3, target_reps=2, setup_reps=1),
}

# How much more a command's speed moves with the machine's than the
# reference loop's (speed.py), where that differs clearly: the slope of log
# throughput on log loop speed over every command of the ten-seed sets on the
# build machine. `retrieve` and `dedup` embed every training pair with
# Python-level row sums over a 12 MB matrix (dedup also scans a 48 MB one):
# slopes 1.2-1.6 and 0.8-1.4. The model commands read 0.7-1.0, ir-baseline
# 0.8-1.1; they keep 1.
SENSITIVITY = {"retrieve": 1.5, "dedup": 1.25}

# kind -> (end-to-end metric, unit)
KINDS = {
    "train": ("train_examples_per_s", "examples/s"),
    "greedy": ("greedy_snippets_per_s", "snippets/s"),
    "beam10": ("beam10_pairs_per_s", "pairs/s"),
    "ir": ("ir_queries_per_s", "queries/s"),
    "retrieve": ("retrieve_queries_per_s", "queries/s"),
    "dedup": ("dedup_pairs_per_s", "pairs/s"),
}


def import_c2q():
    """Import c2q from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import c2q.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import c2q from {src}: {exc}")
    if not os.path.abspath(c2q.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: c2q imported from {c2q.cli.__file__}, not {src}")
    return c2q


# ---------------------------------------------------------------------------
# checks


class Checks:
    """Operations attempted (commands and per-item checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# one run


@dataclass
class Rep:
    timing: object                  # speed.Timing
    items: int
    stdout: str
    ok: bool = True
    seconds: float = 0.0            # scaled to the reference speed when the run ends


@dataclass
class Context:
    workload: Workload
    seed: int
    work: str
    c2q: object
    checks: Checks
    speed: object
    tracer: object = None
    files: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)      # id -> pair record
    role_ids: dict = field(default_factory=dict)
    snippets: dict = field(default_factory=dict)   # id -> {"code", "lang"}
    exact_dups: dict = field(default_factory=dict)  # test id -> background id
    vocab_hash: str = ""

    def path(self, name):
        return os.path.join(self.work, name)


def call_cli(ctx, argv, label, kind, items=0, meta=None):
    """(exit code, stdout) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    scope = ctx.tracer.op(label, kind, items, meta) if ctx.tracer else contextlib.nullcontext()
    with scope:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ctx.c2q.cli.run(argv)
        except Exception:  # a traceback is a failed operation, not a crash of the bench
            code = -1
            err.write(traceback.format_exc())
    ctx.checks.expect(code == 0, f"{label}: exit {code}: {err.getvalue().strip()[-500:]}")
    return code, out.getvalue()


def run_setup(ctx, rep):
    """Program set-up: preprocess, build-vocab and a fixed-seed paper-dims
    checkpoint."""
    from c2q.model import Hyperparams, init_parameters
    from c2q.numerics import Rng
    from c2q.train import save_checkpoint
    from c2q.vocab import Vocabulary

    d = ctx.path(f"setup{rep}")
    call_cli(ctx, ["preprocess", "--input", ctx.files["posts"], "--out-dir", d,
                   "--seed", str(ctx.seed)], "preprocess", "setup")
    call_cli(ctx, ["build-vocab", "--pairs", os.path.join(d, "train.jsonl"),
                   "--out", os.path.join(d, "vocab.txt"),
                   "--max-size", str(VOCAB_CAP)], "build-vocab", "setup")
    scope = ctx.tracer.op("init-checkpoint", "setup") if ctx.tracer else contextlib.nullcontext()
    with scope:
        vocab = Vocabulary.load(os.path.join(d, "vocab.txt"))
        hyper = Hyperparams()
        params = init_parameters(hyper, len(vocab), Rng(INIT_SEED))
        save_checkpoint(params, hyper, vocab.content_hash(), os.path.join(d, "init.ckpt"))


def write_role_files(ctx):
    """Role pair and snippet files cut from set-up's preprocessed pairs."""
    d = ctx.path("setup0")
    lines = {}
    with open(os.path.join(d, "train.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            ctx.pairs[rec["id"]] = rec
            lines[rec["id"]] = line
    ctx.files["vocab"] = os.path.join(d, "vocab.txt")
    ctx.files["init_ckpt"] = os.path.join(d, "init.ckpt")
    for role, ids in ctx.role_ids.items():
        pairs_file, snip_file = ctx.path(f"{role}.pairs.jsonl"), ctx.path(f"{role}.snippets.jsonl")
        with open(pairs_file, "w", encoding="utf-8") as pf, \
                open(snip_file, "w", encoding="utf-8") as sf:
            pf.writelines(lines[pid] for pid in ids)
            sf.writelines(json.dumps(ctx.snippets[pid]) + "\n" for pid in ids)
        ctx.files[f"{role}.pairs"] = pairs_file
        ctx.files[f"{role}.snippets"] = snip_file
    for role in ctx.workload.roles:
        # one retrieve query per command: the role's first snippet (for the
        # test role, a planted exact duplicate)
        path = ctx.path(f"{role}.query.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(ctx.snippets[ctx.role_ids[role][0]]) + "\n")
        ctx.files[f"{role}.query"] = path


def roles(ctx, kind, mode):
    """(input role, validation role) of a command: the workload's own inputs
    for a target, a small fixed probe set otherwise."""
    if mode == "target":
        role = ctx.workload.targets[kind]
        return role, "val"
    return ("probe2" if kind in ("train", "beam10") else "probe"), "probe"


def command(ctx, kind, mode):
    """(argv, role, items, extra) of one command of ``kind``."""
    f, seed = ctx.files, str(ctx.seed)
    role, val = roles(ctx, kind, mode)
    n = len(ctx.role_ids[role])
    if kind == "train":
        ckpt = ctx.path(f"trained-{role}.ckpt")
        return (["train", "--train-pairs", f[f"{role}.pairs"], "--val-pairs", f[f"{val}.pairs"],
                 "--vocab", f["vocab"], "--checkpoint", ckpt, "--embed-dim", str(EMBED_DIM),
                 "--hidden", "256", "--ablation", "full", "--epochs", "1",
                 "--batch-size", str(n), "--lr", "0.01", "--seed", seed],
                role, n, {"checkpoint": ckpt, "val_role": val})
    if kind == "greedy":
        return (["generate", "--checkpoint", f["init_ckpt"], "--vocab", f["vocab"],
                 "--input", f[f"{role}.snippets"], "--greedy"], role, n, {})
    if kind == "beam10":
        return (["evaluate", "--checkpoint", f["init_ckpt"], "--vocab", f["vocab"],
                 "--test-pairs", f[f"{role}.pairs"], "--beam", "10"], role, n, {})
    if kind == "ir":
        return (["ir-baseline", "--train-pairs", f["background.pairs"],
                 "--test-pairs", f[f"{role}.pairs"]], role, n, {})
    if kind == "retrieve":
        return (["retrieve", "--train-pairs", f["background.pairs"], "--vocab", f["vocab"],
                 "--top", "3", "--input", f[f"{role}.query"], "--seed", seed,
                 "--embed-dim", str(EMBED_DIM)], role, 1, {"queries": ctx.role_ids[role][:1]})
    if kind == "dedup":
        out = ctx.path(f"dedup-{role}.jsonl")
        return (["dedup", "--train-pairs", f["background.pairs"], "--test-pairs",
                 f[f"{role}.pairs"], "--out-pairs", out, "--report", ctx.path("dedup-report.json"),
                 "--vocab", f["vocab"], "--seed", seed, "--embed-dim", str(EMBED_DIM)],
                role, n, {"out": out})
    raise ValueError(kind)


def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):  # not glibc
        return None


MALLOC_TRIM = _malloc_trim()


def release_memory():
    """Start a command as a fresh CLI process would: without the garbage of
    the last command, and with the freed heap handed back to the system, so
    how much of it happens to stay mapped does not vary from run to run."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def run_once(ctx, kind, mode, earlier):
    """One timed command; its output is checked after the clock stops."""
    argv, role, items, extra = command(ctx, kind, mode)
    if kind == "train" and os.path.exists(extra["checkpoint"]):
        os.unlink(extra["checkpoint"])
    release_memory()
    (code, out), timing = ctx.speed.timed(
        lambda: call_cli(ctx, argv, f"{kind}:{role}", kind, items, extra))
    rep = Rep(timing, items, out, ok=code == 0)
    if rep.ok:
        try:
            check_output(ctx, kind, role, out, extra, earlier)
        except Exception:  # output the checks cannot parse is a failed check
            ctx.checks.expect(False, f"{kind}:{role}: unreadable output: "
                              + traceback.format_exc()[-300:])
    return rep


def run_plan(ctx, plan, seconds, fixed_reps=None):
    """Round-robin over the plan, probes first in every round, so that each
    metric samples the whole run rather than one stretch of it.

    A target kind runs until its commands sum to its share of ``seconds``
    (at least once); a probe kind at least PROBE_MIN_REPS times and until
    PROBE_SECONDS; with ``fixed_reps`` (mode -> count), exactly that often.
    """
    reps = {kind: [] for kind, _ in plan}
    share = seconds / sum(mode == "target" for _, mode in plan)

    def wanted(kind, mode):
        done = reps[kind]
        if done and not done[-1].ok:
            return False
        if fixed_reps:
            return len(done) < fixed_reps[mode]
        spent = sum(r.timing.wall for r in done)
        if mode == "target":
            return len(done) < ctx.workload.target_reps or spent < share
        return len(done) < PROBE_MIN_REPS or spent < PROBE_SECONDS

    order = sorted(plan, key=lambda p: p[1] != "probe")
    while True:
        todo = [(kind, mode) for kind, mode in order if wanted(kind, mode)]
        if not todo:
            return reps
        for kind, mode in todo:
            reps[kind].append(run_once(ctx, kind, mode, reps[kind]))


def _finite_unit(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and 0.0 <= x <= 1.0


def check_output(ctx, kind, role, out, extra, reps):
    from c2q.train import CheckpointError, load_checkpoint
    chk, ids = ctx.checks, ctx.role_ids[role]
    if kind == "train":
        result = json.loads(out.strip().splitlines()[-1])
        val = result.get("final_val_loss")
        chk.expect(isinstance(val, float) and math.isfinite(val),
                   f"train:{role}: validation loss not finite: {val}")
        try:
            _, hyper, _ = load_checkpoint(extra["checkpoint"], expected_vocab_hash=ctx.vocab_hash)
            chk.expect((hyper.embed_dim, hyper.hidden) == (EMBED_DIM, 256),
                       f"train:{role}: checkpoint dims {hyper.embed_dim}/{hyper.hidden}")
        except (CheckpointError, OSError) as exc:
            chk.expect(False, f"train:{role}: checkpoint does not reload: {exc}")
    elif kind == "greedy":
        titles = out.split("\n")[:-1]
        chk.expect(len(titles) == len(ids), f"greedy:{role}: {len(titles)} titles for {len(ids)} snippets")
        for pid, title in zip(ids, titles):
            chk.expect(len(title.split()) <= MAX_DECODE_LEN,
                       f"greedy:{role}: title of {pid} has {len(title.split())} tokens")
        if len(reps) > 1:
            chk.expect(out == reps[0].stdout, f"greedy:{role}: titles differ between repeats")
    elif kind in ("beam10", "ir"):
        report = json.loads(out)
        chk.expect(report.get("pairs") == len(ids), f"{kind}:{role}: report pairs {report.get('pairs')}")
        values = [report[k] for k in ("bleu1", "bleu2", "bleu3", "bleu4")]
        values += [v for k in ("rouge1", "rouge2", "rougeL") for v in report[k].values()]
        chk.expect(all(_finite_unit(v) for v in values), f"{kind}:{role}: score out of [0,1]")
    elif kind == "retrieve":
        lines = out.split("\n")[:-1]
        chk.expect(len(lines) == 3 * len(extra["queries"]),
                   f"retrieve:{role}: {len(lines)} result lines")
        for qi, pid in enumerate(extra["queries"]):
            rows = [line.split("\t") for line in lines[3 * qi:3 * qi + 3]]
            sims = [float(r[0]) for r in rows]
            chk.expect(sims == sorted(sims, reverse=True),
                       f"retrieve:{role}: query {pid} results not in descending similarity")
            if pid in ctx.exact_dups:
                top = ctx.pairs.get(int(rows[0][1])) if rows else None
                chk.expect(rows[0][0] == "1.0000" and top is not None
                           and top["code_tokens"] == ctx.pairs[pid]["code_tokens"],
                           f"retrieve:{role}: exact duplicate {pid} not retrieved at 1.0")
    elif kind == "dedup":
        report = json.loads(out)
        chk.expect(report["removed"] + report["kept"] == len(ids),
                   f"dedup:{role}: removed+kept != {len(ids)}")
        with open(extra["out"], encoding="utf-8") as fh:
            kept = {json.loads(line)["id"] for line in fh}
        for pid in ids:
            if pid in ctx.exact_dups:
                chk.expect(pid not in kept, f"dedup:{role}: exact duplicate {pid} kept")


def library_checks(ctx, greedy_titles):
    """Checks outside the timed region through the library API."""
    from c2q import corpus, retrieval
    from c2q.decode import beam_search, greedy_decode
    from c2q.numerics import Rng
    from c2q.train import load_checkpoint
    from c2q.vocab import Vocabulary

    chk = ctx.checks
    vocab = Vocabulary.load(ctx.files["vocab"])
    if greedy_titles is not None:
        role, titles = greedy_titles
        params, hyper, _ = load_checkpoint(ctx.files["init_ckpt"], expected_vocab_hash=ctx.vocab_hash)
        for pid, title in list(zip(ctx.role_ids[role], titles))[:GREEDY_SAMPLE]:
            snip = ctx.snippets[pid]
            tokens = corpus.tokenize_code(snip["code"], snip["lang"])
            greedy = " ".join(greedy_decode(tokens, params, vocab, hyper))
            beam1 = " ".join(beam_search(tokens, params, vocab, hyper, k=1)[0].tokens)
            chk.expect(greedy == beam1, f"greedy != beam_search(k=1) on snippet {pid}")
            chk.expect(greedy == title, f"second decode of snippet {pid} differs from the timed one")
    if ctx.exact_dups:
        background = [ctx.pairs[i] for i in ctx.role_ids["background"]]
        index = retrieval.TfidfIndex([(p["id"], p["code_tokens"], p["title_tokens"])
                                      for p in background])
        E = Rng(ctx.seed).uniform(-0.1, 0.1, (len(vocab), EMBED_DIM))
        for test_id, src_id in ctx.exact_dups.items():
            tokens = ctx.pairs[test_id]["code_tokens"]
            hit = index.query(tokens)
            chk.expect(hit.matched and ctx.pairs[hit.doc_id]["code_tokens"] == tokens,
                       f"ir: exact duplicate {test_id} matched {hit.doc_id}")
            sim = retrieval.code_similarity(
                retrieval.embed_code(tokens, E, vocab),
                retrieval.embed_code(ctx.pairs[src_id]["code_tokens"], E, vocab))
            chk.expect(sim == 1.0, f"dedup: exact duplicate {test_id} similarity {sim!r}")


def input_sizes(ctx, corpus):
    vocab = set()
    with open(ctx.files["vocab"], encoding="utf-8") as fh:
        fh.readline()
        vocab.update(line.rstrip("\n") for line in fh)
    sizes = {"documents": len(corpus.posts), "background": len(ctx.role_ids["background"]),
             "V": len(vocab) + 4}
    for role in ctx.workload.roles:
        pairs = [ctx.pairs[i] for i in ctx.role_ids[role]]
        src = [len(p["code_tokens"]) for p in pairs]
        tgt = [len(p["title_tokens"]) for p in pairs]
        toks = [t for p in pairs for t in p["code_tokens"]]
        sizes[role] = {"pairs": len(pairs), "source_mean": statistics.fmean(src),
                       "source_max": max(src), "title_mean": statistics.fmean(tgt),
                       "title_max": max(tgt),
                       "oov_share": sum(t not in vocab for t in toks) / len(toks)}
    if ctx.workload.exact_dups or ctx.workload.near_dups:
        n = len(ctx.role_ids["test"])
        sizes["test"]["exact_duplicate_share"] = len(corpus.exact_dups) / n
        sizes["test"]["near_duplicate_share"] = len(corpus.near_dups) / n
    return sizes


def provenance(args):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "env": {k: os.environ.get(k) for k in BLAS_ENV + ("C2Q_THREADS",)},
            "git_commit": commit, "platform": platform.platform()}


def throughput(reps, wall=False):
    """Items per (scaled, or with ``wall`` wall-clock) second over all of a
    kind's commands in the run. Commands are interleaved across the run, so
    this averages the machine's drift over the whole run instead of one
    stretch of it."""
    return sum(r.items for r in reps) / sum(r.timing.wall if wall else r.seconds for r in reps)


@contextlib.contextmanager
def tracing_on(ctx, tracer):
    """Commands run inside this block are traced."""
    ctx.tracer = tracer
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        ctx.tracer = None


def run_workload(args, c2q):
    import gen
    import speed

    wl = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    ctx = Context(workload=wl, seed=args.seed, work=work, c2q=c2q, checks=Checks(),
                  speed=speed.Speedometer(ticks=not args.trace))
    try:
        corpus = gen.make_corpus(args.seed, wl.background, wl.roles,
                                 exact_dups=wl.exact_dups, near_dups=wl.near_dups)
        ctx.files["posts"] = ctx.path("posts.jsonl")
        corpus.write(ctx.files["posts"])
        ctx.role_ids = dict(corpus.roles)
        ctx.exact_dups = corpus.exact_dups
        for post in corpus.posts:
            code = post["body"].split("<code>\n", 1)[1].split("\n</code>", 1)[0]
            ctx.snippets[post["id"]] = {"code": code, "lang": post["lang"]}
        return measure(args, ctx, corpus)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, ctx, corpus):
    wl = ctx.workload
    traced = bool(args.trace)
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        with tracing_on(ctx, tracer):
            setups = [ctx.speed.timed(lambda: run_setup(ctx, 0))[1]]
    else:
        setups = [ctx.speed.timed(lambda rep=rep: run_setup(ctx, rep))[1]
                  for rep in range(wl.setup_reps)]
    if ctx.checks.failures:
        return finish(args, ctx, {}, {})
    write_role_files(ctx)
    from c2q.vocab import Vocabulary
    ctx.vocab_hash = Vocabulary.load(ctx.files["vocab"]).content_hash()
    sizes = input_sizes(ctx, corpus)
    # The benchmark's own records (tens of thousands of posts and pairs)
    # would otherwise be rescanned by every full garbage collection inside
    # the program's commands, which a real c2q process does not pay for.
    gc.collect()
    gc.freeze()

    plan = [(kind, "target" if kind in wl.targets else "probe") for kind in KINDS]
    if traced:
        # One untraced command per target is the reference for the tracing
        # overhead; then a fixed number of commands with every c2q function
        # wrapped, so per-layer totals do not depend on the code's speed.
        results = run_plan(ctx, [p for p in plan if p[1] == "target"], 0.0, {"target": 1})
        with tracing_on(ctx, tracer):
            traced_results = run_plan(ctx, plan, 0.0, TRACED_REPS)
        final = traced_results
    else:
        results = final = run_plan(ctx, plan, args.seconds)
    setup_times = [ctx.speed.scaled(t) for t in setups]
    for kind, rep in ((k, r) for reps in (results, final) for k, rs in reps.items() for r in rs):
        rep.seconds = ctx.speed.scaled(rep.timing, SENSITIVITY.get(kind, 1.0))
    report = {"inputs": sizes, "setup_s_reps": setup_times,
              "setup_wall_s_reps": [t.wall for t in setups],
              "reps": {k: [[r.items, r.seconds, r.timing.wall, r.timing.start, r.timing.end]
                           for r in v] for k, v in results.items()},
              "wall_per_s": {KINDS[k][0]: throughput(v, wall=True) for k, v in results.items()},
              "reference_loops": ctx.speed.samples}

    greedy = None
    if final["greedy"][0].stdout:
        role = roles(ctx, "greedy", dict(plan)["greedy"])[0]
        greedy = (role, final["greedy"][0].stdout.split("\n")[:-1])
        report["greedy_titles_sha256"] = hashlib.sha256(
            final["greedy"][0].stdout.encode("utf-8")).hexdigest()
    try:
        library_checks(ctx, greedy)
    except Exception:  # an exception in a check is a failed check
        ctx.checks.expect(False, "library checks raised: " + traceback.format_exc()[-500:])

    if traced:
        import layers
        overhead = statistics.median(
            throughput(results[k]) / throughput(traced_results[k]) - 1.0
            for k in wl.targets)
        layers.self_checks(ctx, tracer)
        metrics = layers.per_layer_metrics(tracer, overhead)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        report["spans"] = os.path.relpath(spans_path, ROOT)
        report["spans_dropped"] = tracer.spans_dropped
        return finish(args, ctx, metrics, report)

    metrics = {"setup_s": (statistics.median(setup_times), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    for kind, (name, unit) in KINDS.items():
        metrics[name] = (throughput(results[kind]), unit)
    losses = [json.loads(r.stdout.strip().splitlines()[-1])["final_val_loss"]
              for r in results["train"] if r.stdout]
    metrics["train_val_loss"] = (statistics.median(losses) if losses else float("nan"), "nats")
    return finish(args, ctx, metrics, report)


def finish(args, ctx, metrics, report):
    checks = ctx.checks
    report["failures"] = checks.failures
    report["provenance"] = provenance(args)
    attempted = max(1, checks.attempted)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("inputs " + json.dumps(report.get("inputs", {})))
    print("provenance " + json.dumps(report["provenance"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if "wall_per_s" in report:
        print("unscaled wall-clock " + json.dumps(report["wall_per_s"]))
    print(f"failed_ratio {len(checks.failures) / attempted:.6g} failed/attempted "
          f"({len(checks.failures)}/{attempted})")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, **report}, fh, indent=1)
    result = {"correct": not checks.failures, "attempted": attempted,
              "failed": len(checks.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload in a fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
        status |= proc.returncode
    print(json.dumps(total))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in SINGLE_THREAD_ENV:  # before anything imports numpy
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, import_c2q())


if __name__ == "__main__":
    sys.exit(main())
