"""Behavioral acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line.
Training-based checks use small fixed corpora with pinned seeds so they are
deterministic and finish on a desktop CPU.
"""

import contextlib
import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from c2q import metrics, retrieval
from c2q.cli import run
from c2q.corpus import QCPair
from c2q.decode import _beam, beam_search, greedy_decode
from c2q.model import (ABLATION_PRESETS, EncodedExample, Hyperparams,
                       encode, decode_step, encode_example, init_parameters,
                       sequence_loss)
from c2q.numerics import Rng, Tensor, use_dtype
from c2q.train import TrainConfig, train
from c2q.vocab import END, ExtendedVocab, build_vocab


@contextlib.contextmanager
def criterion(number, name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, \
        f"criterion {number} took {elapsed:.1f}s (budget {budget_seconds}s)"
    print(f"[criterion {number}] {name}: PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 1. gradient correctness


def _toy_example():
    tokens = [f"t{i}" for i in range(16)]
    vocab = build_vocab([tokens * 2], min_freq=0)
    assert len(vocab) == 20
    hyper = Hyperparams(embed_dim=8, hidden=8)
    ev = ExtendedVocab(vocab, ["zz"])
    example = EncodedExample(id=0, base_ids=[4, 5, 1, 6],
                             ext_ids=[4, 5, 20, 6], ev=ev,
                             target_ids=[5, 20, 3])
    return example, hyper, len(vocab)


def _numeric_grads(example, params, hyper, eps):
    numeric = {}
    for name, t in params.items():
        g = np.zeros_like(t.data)
        if t.data.shape:
            for idx in np.ndindex(*t.data.shape):
                orig = t.data[idx]
                t.data[idx] = orig + eps
                up = float(sequence_loss(example, params, hyper)[0].data)
                t.data[idx] = orig - eps
                down = float(sequence_loss(example, params, hyper)[0].data)
                t.data[idx] = orig
                g[idx] = (up - down) / (2 * eps)
        else:
            orig = float(t.data)
            t.data = np.asarray(orig + eps)
            up = float(sequence_loss(example, params, hyper)[0].data)
            t.data = np.asarray(orig - eps)
            down = float(sequence_loss(example, params, hyper)[0].data)
            t.data = np.asarray(orig)
            g = np.asarray((up - down) / (2 * eps))
        numeric[name] = g
    return numeric


def _rel_norm_error(a, n, floor=1e-4):
    a = np.asarray(a, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    return np.linalg.norm(a - n) / max(np.linalg.norm(a),
                                       np.linalg.norm(n), floor)


@pytest.mark.oracle
def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness", 30):
        # finite differences need the doubled-precision mode to be
        # meaningful; the single-precision analytic gradient is compared
        # against the same double-precision numeric baseline
        with use_dtype(np.float64):
            example, hyper, vocab_size = _toy_example()
            params = init_parameters(hyper, vocab_size, Rng(0))
            loss, _ = sequence_loss(example, params, hyper)
            loss.backward()
            analytic64 = {k: t.grad.copy() for k, t in params.items()}
            numeric = _numeric_grads(example, params, hyper, eps=1e-5)
            values = {k: t.data.copy() for k, t in params.items()}

        with use_dtype(np.float32):
            example32, hyper32, _ = _toy_example()
            params32 = init_parameters(hyper32, vocab_size, Rng(0))
            for k, t in params32.items():
                t.data = values[k].astype(np.float32)
            loss, _ = sequence_loss(example32, params32, hyper32)
            loss.backward()
            analytic32 = {k: t.grad.copy() for k, t in params32.items()}

        for name in numeric:
            err64 = _rel_norm_error(analytic64[name], numeric[name])
            assert err64 < 1e-5, f"{name}: doubled-precision error {err64:.2e}"
            err32 = _rel_norm_error(analytic32[name], numeric[name])
            assert err32 < 1e-3, f"{name}: single-precision error {err32:.2e}"


# ---------------------------------------------------------------------------
# 2. distribution invariants


def test_criterion_2_distribution_invariants():
    with criterion(2, "distribution invariants", 10):
        rng = Rng(1234)
        steps_done = 0
        model_seed = 0
        while steps_done < 1000:
            model_seed += 1
            tokens = [f"v{i}" for i in range(12)]
            vocab = build_vocab([tokens * 2], min_freq=0)
            hyper = Hyperparams(embed_dim=6, hidden=6)
            params = init_parameters(hyper, len(vocab), Rng(model_seed))
            src_len = int(rng.integers(2, 8))
            pool = tokens + [f"oov{model_seed}_{j}" for j in range(3)]
            source = [pool[rng.integers(0, len(pool))] for _ in range(src_len)]
            from c2q.vocab import encode_source
            base_ids, ext_ids, ev = encode_source(source, vocab)
            enc = encode(base_ids, params, hyper)
            state, cov = enc.s0, Tensor(np.zeros(len(base_ids)))
            prev = 2  # START
            for t in range(1, 21):
                step = decode_step(prev, state, enc, cov, ext_ids, ev,
                                   params, hyper)
                p = step.p_star.data
                assert abs(float(p.sum()) - 1.0) < 1e-6
                assert abs(float(step.a.data.sum()) - 1.0) < 1e-6
                assert abs(float(step.cov_next.data.sum()) - t) < 1e-4
                pcg = float(step.p_cg.data)
                assert 0.0 <= pcg <= 1.0
                prev = int(np.argmax(p[:len(vocab)]))
                state, cov = step.state, step.cov_next
                steps_done += 1
                if steps_done >= 1000:
                    break


# ---------------------------------------------------------------------------
# 3. memorization


def _memorization_corpus():
    verbs = ["sort", "parse", "merge", "split",
             "read", "write", "join", "filter"]
    nouns = ["list", "file", "dict", "string",
             "array", "table", "json", "csv"]
    pairs = []
    for i in range(32):
        v, n = verbs[i % 8], nouns[(i // 8 + i) % 8]
        code = [v, "(", n, ")", ";", "x", "=", str(i % 7), n]
        title = ["how", "to", v, "a", n, "?"]
        pairs.append(QCPair(id=i, lang="python", code_tokens=code,
                            title_tokens=title))
    return pairs


def _train_corpus(pairs, hyper, config, min_freq=0):
    vocab = build_vocab([p.code_tokens for p in pairs]
                        + [p.title_tokens for p in pairs], min_freq=min_freq)
    examples = [encode_example(p, vocab) for p in pairs]
    params, log = train(examples, [], hyper, config)
    return vocab, examples, params, log


@pytest.mark.slow
def test_criterion_3_memorization():
    with criterion(3, "memorization", 300):
        pairs = _memorization_corpus()
        hyper = Hyperparams(embed_dim=64, hidden=64, max_decode_len=10)
        config = TrainConfig(lr=0.5, batch_size=4, epochs=100,
                             grad_clip_norm=5.0, seed=3)
        vocab, examples, params, log = _train_corpus(pairs, hyper, config)
        assert log[-1].step <= 2000
        logps = [lp for ex in examples
                 for lp in sequence_loss(ex, params, hyper)[1]]
        nll = -sum(logps) / len(logps)
        assert nll < 0.1, f"per-token NLL {nll:.4f}"
        exact = sum(greedy_decode(p.code_tokens, params, vocab, hyper)
                    == p.title_tokens for p in pairs)
        assert exact >= 0.9 * len(pairs), f"{exact}/{len(pairs)} exact titles"


# ---------------------------------------------------------------------------
# 4. copy-mechanism efficacy


def _sentinel_corpus():
    pairs = []
    for i in range(16):
        sentinel = f"qq{i}zz"
        pos = i % 4 + 1
        code = ["def", "(", ")", "x", ":", "return"]
        code = code[:pos] + [sentinel] + code[pos:]
        title = ["how", "to", "call", sentinel, "?"]
        pairs.append(QCPair(id=i, lang="python", code_tokens=code,
                            title_tokens=title))
    return pairs


@pytest.mark.slow
def test_criterion_4_copy_efficacy():
    with criterion(4, "copy-mechanism efficacy", 300):
        pairs = _sentinel_corpus()
        accuracy = {}
        for name, epochs in (("full", 150), ("atten", 150)):
            hyper = Hyperparams(embed_dim=32, hidden=32,
                                ablation=ABLATION_PRESETS[name],
                                max_decode_len=8)
            config = TrainConfig(lr=0.5, batch_size=4, epochs=epochs,
                                 grad_clip_norm=5.0, seed=5)
            # min_freq=2 keeps only tokens seen 3+ times, so each sentinel
            # (one code + one title occurrence) is guaranteed OOV
            vocab, _, params, _ = _train_corpus(pairs, hyper, config,
                                                min_freq=2)
            assert all(p.title_tokens[3] not in vocab for p in pairs)
            hits = 0
            for p in pairs:
                out = greedy_decode(p.code_tokens, params, vocab, hyper)
                if len(out) > 3 and out[3] == p.title_tokens[3]:
                    hits += 1
            accuracy[name] = hits / len(pairs)
        assert accuracy["full"] >= 0.95, f"full model {accuracy['full']:.2f}"
        assert accuracy["atten"] == 0.0, f"no-copy model {accuracy['atten']:.2f}"


# ---------------------------------------------------------------------------
# 5. coverage efficacy


REPEAT_PATTERN = [0, 1, 2, 3, 4, 0, 2, 4, 1, 3, 0, 4]


def _stress_corpus():
    rng = Rng(31)
    base = [f"w{i}" for i in range(24)]
    pairs = []
    for i in range(12):
        src = [str(t) for t in rng.sample(base, 5)]
        tgt = [src[j] for j in REPEAT_PATTERN]
        pairs.append(QCPair(id=i, lang="python", code_tokens=src,
                            title_tokens=tgt))
    return pairs


def _repeated_trigrams(seqs):
    total = 0
    for s in seqs:
        trigrams = [tuple(s[i:i + 3]) for i in range(len(s) - 2)]
        total += len(trigrams) - len(set(trigrams))
    return total


COVERAGE_SEEDS = (1, 5)
COVERAGE_ABLATIONS = ("atten", "atten+coverage")


def _coverage_run(pairs, name, seed):
    """Criterion 5's training of one ablation at one seed: (hyper, vocab,
    examples, params, repeated trigrams of the greedy titles)."""
    hyper = Hyperparams(embed_dim=32, hidden=32,
                        ablation=ABLATION_PRESETS[name],
                        max_decode_len=12)
    config = TrainConfig(lr=0.5, batch_size=4, epochs=300,
                         grad_clip_norm=5.0, seed=seed)
    vocab, examples, params, _ = _train_corpus(pairs, hyper, config)
    outs = [greedy_decode(p.code_tokens, params, vocab, hyper,
                          max_len=12) for p in pairs]
    return hyper, vocab, examples, params, _repeated_trigrams(outs)


@pytest.mark.slow
def test_criterion_5_coverage_efficacy():
    with criterion(5, "coverage efficacy", 300):
        pairs = _stress_corpus()
        repeats = dict.fromkeys(COVERAGE_ABLATIONS, 0)
        penalty_checked = False
        for seed in COVERAGE_SEEDS:
            for name in repeats:
                hyper, vocab, examples, params, count = _coverage_run(pairs, name, seed)
                repeats[name] += count
                if name == "atten+coverage" and not penalty_checked:
                    penalty_checked = True
                    ex = examples[0]
                    enc = encode(ex.base_ids, params, hyper)
                    state = enc.s0
                    cov = Tensor(np.zeros(len(ex.base_ids)))
                    prev = 2  # START
                    for target in ex.target_ids:
                        step = decode_step(prev, state, enc, cov, ex.ext_ids,
                                           ex.ev, params, hyper)
                        penalty = float(np.minimum(step.a.data,
                                                   step.cov.data).sum())
                        assert 0.0 <= penalty <= 1.0 + 1e-6
                        prev = min(target, len(vocab) - 1)
                        state, cov = step.state, step.cov_next
        assert repeats["atten+coverage"] < repeats["atten"], repeats


# ---------------------------------------------------------------------------
# 6. metric oracles


def _brute_force_lcs(a, b):
    for r in range(min(len(a), len(b)), 0, -1):
        for combo in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(tok in it for tok in sub):
                return r
    return 0


def test_criterion_6_metric_oracles():
    with criterion(6, "metric oracles", 10):
        score = metrics.bleu([["the", "cat"]], [["the", "cat", "sat"]], n=1)
        assert score == pytest.approx(0.6065, abs=1e-4)
        assert metrics.bleu([["a", "b"]], [["a", "b"]], 2) == pytest.approx(1.0)
        rl = metrics.rouge_l([["a", "b", "c", "d"]], [["a", "c", "b", "d"]])
        assert rl.f1 == pytest.approx(0.75)
        assert metrics.rouge_n([["a", "b"]], [["a", "c"]], 1).f1 == \
            pytest.approx(0.5)

        rng = Rng(99)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(500):
            a = [alphabet[rng.integers(0, 4)]
                 for _ in range(rng.integers(0, 9))]
            b = [alphabet[rng.integers(0, 4)]
                 for _ in range(rng.integers(0, 9))]
            assert metrics.lcs_length(a, b) == _brute_force_lcs(a, b)


# ---------------------------------------------------------------------------
# 7. clone-detection behavior


def test_criterion_7_clone_detection():
    with criterion(7, "clone detection", 5):
        tokens = [f"c{i}" for i in range(12)]
        vocab = build_vocab([tokens * 2], min_freq=0)
        E = Rng(17).uniform(-1, 1, (len(vocab), 16))
        dup = ["c1", "c2", "c3", "c4"]
        train_pairs = [QCPair(id=1, lang="python", code_tokens=dup,
                              title_tokens=["how", "to", "x", "?"]),
                       QCPair(id=2, lang="python",
                              code_tokens=["c5", "c6", "c7"],
                              title_tokens=["how", "to", "y", "?"])]
        test_pairs = [QCPair(id=10, lang="python", code_tokens=list(dup),
                             title_tokens=["how", "to", "x", "?"]),
                      QCPair(id=11, lang="python",
                             code_tokens=["c8", "c9", "c10", "c11"],
                             title_tokens=["how", "to", "z", "?"])]
        clean, removed, report = retrieval.dedup_testset(
            train_pairs, test_pairs, E, vocab, delta=0.8)
        assert [p.id for p in removed] == [10]
        assert sum(report.buckets.values()) == len(test_pairs)
        same = retrieval.code_similarity(
            retrieval.embed_code(dup, E, vocab),
            retrieval.embed_code(list(dup), E, vocab))
        assert same == 1.0


# ---------------------------------------------------------------------------
# 8. beam correctness


class _TableStepper:
    """Row stepper reading next-token distributions from a history table;
    each hypothesis' state is its history of emitted ids."""

    def __init__(self, table, vocab_size):
        self.table = table
        self.vocab_size = vocab_size

    def __call__(self, prevs, states, covs):
        histories = [(state or ()) + ((prev,) if prev != 2 else ())  # 2 is START
                     for prev, state in zip(prevs, states)]
        logp = np.full((len(histories), self.vocab_size), math.log(1e-12))
        for row, history in enumerate(histories):
            for tid, prob in self.table[history].items():
                logp[row, tid] = math.log(prob)
        return logp, histories, covs, [None] * len(histories)


def test_criterion_8_beam_correctness():
    with criterion(8, "beam correctness", 30):
        for seed in range(100):
            tokens = [f"w{i}" for i in range(10)]
            vocab = build_vocab([tokens * 2], min_freq=0)
            hyper = Hyperparams(embed_dim=5, hidden=5, max_decode_len=6)
            params = init_parameters(hyper, len(vocab), Rng(seed))
            rng = Rng(seed + 500)
            source = [vocab.id_to_token[rng.integers(4, len(vocab))]
                      for _ in range(4)] + [f"rare{seed}"]
            greedy = greedy_decode(source, params, vocab, hyper)
            beam = beam_search(source, params, vocab, hyper, k=1)
            assert beam[0].tokens == greedy

        a, b = 4, 5
        table = {
            (): {a: 0.6, b: 0.4},
            (a,): {END: 0.3, 6: 0.25, 7: 0.25, 8: 0.2},
            (b,): {END: 0.9, 6: 0.1},
        }
        pool = _beam(_TableStepper(table, 10), None, None, k=2, max_len=2)
        sequences = [h.token_ids for h in pool]
        assert [b, END] in sequences and [a, END] in sequences
        assert sequences.index([b, END]) < sequences.index([a, END])
        by_seq = {tuple(h.token_ids): h for h in pool}
        assert math.exp(by_seq[(b, END)].logprob) == pytest.approx(0.36)
        assert math.exp(by_seq[(a, END)].logprob) == pytest.approx(0.18)


# ---------------------------------------------------------------------------
# 9. end-to-end pipeline


def test_criterion_9_end_to_end(tmp_path, capsys):
    with criterion(9, "end-to-end pipeline", 600):
        data = str(tmp_path / "data")
        tiny = ["--embed-dim", "32", "--hidden", "32", "--max-len", "12"]
        assert run(["preprocess", "--input", "data/sample_posts.jsonl",
                    "--out-dir", data, "--val-count", "10",
                    "--test-count", "10", "--seed", "1"]) == 0
        vocab_path = os.path.join(data, "vocab.txt")
        assert run(["build-vocab", "--pairs",
                    os.path.join(data, "train.jsonl"), "--out", vocab_path,
                    "--min-freq", "1"]) == 0
        ckpt = os.path.join(data, "model.ckpt")
        assert run(["train", "--train-pairs",
                    os.path.join(data, "train.jsonl"),
                    "--val-pairs", os.path.join(data, "val.jsonl"),
                    "--vocab", vocab_path, "--checkpoint", ckpt,
                    "--epochs", "2", "--batch-size", "8",
                    "--lr", "0.1"] + tiny) == 0
        eval_out = os.path.join(data, "scores.json")
        assert run(["evaluate", "--checkpoint", ckpt, "--vocab", vocab_path,
                    "--test-pairs", os.path.join(data, "test.jsonl"),
                    "--greedy", "--out", eval_out]) == 0
        dedup_out = os.path.join(data, "clean_test.jsonl")
        dedup_report = os.path.join(data, "dedup.json")
        assert run(["dedup", "--train-pairs",
                    os.path.join(data, "train.jsonl"),
                    "--test-pairs", os.path.join(data, "test.jsonl"),
                    "--vocab", vocab_path, "--checkpoint", ckpt,
                    "--out-pairs", dedup_out, "--report", dedup_report]) == 0
        snippets = tmp_path / "snippets.jsonl"
        snippets.write_text('{"code": "for i in range(10): print(i)"}\n')
        assert run(["retrieve", "--train-pairs",
                    os.path.join(data, "train.jsonl"),
                    "--vocab", vocab_path, "--checkpoint", ckpt,
                    "--input", str(snippets), "--top", "2"]) == 0
        capsys.readouterr()

        with open(os.path.join(data, "preprocess_report.json")) as fh:
            pre = json.load(fh)
        assert {"posts", "skipped", "rejected", "train", "val",
                "test"} <= set(pre)
        with open(eval_out) as fh:
            scores = json.load(fh)
        assert {"bleu1", "bleu2", "bleu3", "bleu4", "rouge1", "rouge2",
                "rougeL", "pairs"} == set(scores)
        for key in ("bleu1", "bleu2", "bleu3", "bleu4"):
            assert 0.0 <= scores[key] <= 1.0
        for key in ("rouge1", "rouge2", "rougeL"):
            assert set(scores[key]) == {"p", "r", "f"}
        with open(dedup_report) as fh:
            dd = json.load(fh)
        assert {"kept", "removed", "buckets"} <= set(dd)
        assert dd["kept"] + dd["removed"] == pre["test"]


# ---------------------------------------------------------------------------
# 10. ablation and threshold sweeps


def test_criterion_10_ablation_and_threshold_sweeps():
    with criterion(10, "ablation and threshold sweeps", 300):
        pairs = _memorization_corpus()
        for name in ("basic", "atten", "atten+copy", "atten+coverage"):
            hyper = Hyperparams(embed_dim=16, hidden=16,
                                ablation=ABLATION_PRESETS[name],
                                max_decode_len=10)
            config = TrainConfig(lr=0.1, batch_size=8, epochs=2, seed=1)
            _, _, _, log = _train_corpus(pairs, hyper, config)
            assert all(np.isfinite(e.train_loss) for e in log), name

        streams = [p.code_tokens for p in pairs] + \
                  [p.title_tokens for p in pairs]
        sizes = [len(build_vocab(streams, min_freq=t)) for t in (1, 5, 100)]
        assert sizes == sorted(sizes, reverse=True) or \
            all(a >= b for a, b in zip(sizes, sizes[1:]))
