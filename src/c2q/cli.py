"""Command-line pipeline: preprocess, build-vocab, train, generate,
evaluate, ir-baseline, dedup, retrieve.

Exit codes: 0 success, 1 usage error, 2 data/format error or out of
memory. Errors print a single machine-parseable line to stderr. A flat
key=value config file can seed any flag; command-line flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import corpus, metrics, retrieval
from .corpus import DataError, SplitSpec
from .decode import beam_search, greedy_decode_full, resolve_unk
from .files import replace_atomically
from .model import ABLATION_PRESETS, MAX_DECODE_LEN, Hyperparams, encode_example
from .numerics import Rng
from .train import (CheckpointError, TrainConfig, TrainingDivergedError,
                    load_checkpoint, train)
from .vocab import SPECIALS, Vocabulary, VocabFormatError, build_vocab, is_utf8

EXIT_OK, EXIT_USAGE, EXIT_DATA = 0, 1, 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fail(kind, message):
    print(f"error kind={kind} message={json.dumps(message)}", file=sys.stderr)


def _at_least(low, value):
    if not low <= value < math.inf:  # also false for NaN
        raise argparse.ArgumentTypeError(f"must be finite and >= {low}, got {value}")
    return value


def _count(text):
    """argparse type for counts (beam width, dims, epochs, top-k): an int >= 1."""
    return _at_least(1, int(text))


def _decode_len(text):
    """argparse type for --max-len: an int in 1..MAX_DECODE_LEN."""
    value = _count(text)
    if value > MAX_DECODE_LEN:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_DECODE_LEN}, got {value}")
    return value


def _vocab_size(text):
    """argparse type for --max-size: an int that leaves room for the specials."""
    return _at_least(len(SPECIALS), int(text))


def _size(text):
    """argparse type for split sizes and frequency cut-offs: an int >= 0."""
    return _at_least(0, int(text))


def _amount(text):
    """argparse type for rates, weights and thresholds: a finite float >= 0."""
    return _at_least(0.0, float(text))


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _boolean(text):
    """Config value of an on/off flag such as ``--greedy``."""
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected true/false, yes/no or 1/0, got {text!r}") from None


def _read_config(path):
    values = {}
    with corpus._open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not is_utf8(line):
                raise DataError(f"{path}:{lineno}: bytes that are not UTF-8")
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _apply_config(subparser, path):
    """Config file values become the subcommand's defaults; flags win."""
    values = _read_config(path)
    known = {a.dest for a in subparser._actions}
    unknown = set(values) - known
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    defaults = {}
    for action in subparser._actions:
        if action.dest in values and action.dest != "config":
            conv = _boolean if action.nargs == 0 else action.type or str
            try:
                value = conv(values[action.dest])
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"invalid choice {value!r}")
                defaults[action.dest] = value
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise DataError(f"config key {action.dest}: {exc}") from exc
    subparser.set_defaults(**defaults)


def _atomic_write_json(obj, path):
    with replace_atomically(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _add_common(p, seed=False):
    p.add_argument("--config", help="flat key=value config file")
    if seed:
        p.add_argument("--seed", type=int, default=0)


def _hyper_flags(p):
    p.add_argument("--embed-dim", type=_count, default=300)
    p.add_argument("--hidden", type=_count, default=256)
    p.add_argument("--lambda-cov", type=_amount, default=1.0)
    p.add_argument("--ablation", choices=sorted(ABLATION_PRESETS), default="full")
    p.add_argument("--max-len", type=_decode_len, default=16)


def _hyper_from_args(args):
    return Hyperparams(embed_dim=args.embed_dim, hidden=args.hidden,
                       lambda_cov=args.lambda_cov,
                       ablation=ABLATION_PRESETS[args.ablation],
                       max_decode_len=args.max_len)


def build_parser():
    parser = _Parser(prog="c2q", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    subparsers = {}

    def add_parser(name, **kw):
        subparsers[name] = sub.add_parser(name, **kw)
        return subparsers[name]

    p = add_parser("preprocess", help="RawPost JSONL -> filtered QCPair splits")
    _add_common(p, seed=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-score", type=int, default=1)
    p.add_argument("--val-count", type=_size, default=0)
    p.add_argument("--test-count", type=_size, default=0)

    p = add_parser("build-vocab", help="vocabulary from training pairs")
    _add_common(p)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-freq", type=_size, default=1)
    p.add_argument("--max-size", type=_vocab_size, default=None)

    p = add_parser("train", help="train the model")
    _add_common(p, seed=True)
    _hyper_flags(p)
    p.add_argument("--train-pairs", required=True)
    p.add_argument("--val-pairs")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--lr", type=_amount, default=0.01)
    p.add_argument("--batch-size", type=_count, default=32)
    p.add_argument("--epochs", type=_count, default=30)
    p.add_argument("--grad-clip", type=_amount, default=5.0,
                   help="global gradient norm cap; 0 disables")

    p = add_parser("generate", help="snippets (file or stdin) -> titles")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", help="JSONL of snippets; default stdin")
    p.add_argument("--lang", choices=corpus.LANGS, default="python")
    p.add_argument("--beam", type=_count, default=10)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--max-len", type=_decode_len, default=None)

    p = add_parser("evaluate", help="model + test pairs -> score report JSON")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--test-pairs", required=True)
    p.add_argument("--beam", type=_count, default=10)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--out", help="write the JSON report here as well")

    p = add_parser("ir-baseline", help="TF-IDF nearest-neighbor baseline")
    _add_common(p)
    p.add_argument("--train-pairs", required=True)
    p.add_argument("--test-pairs", required=True)
    p.add_argument("--out")

    p = add_parser("dedup", help="clone-detect test snippets against train")
    _add_common(p, seed=True)
    p.add_argument("--train-pairs", required=True)
    p.add_argument("--test-pairs", required=True)
    p.add_argument("--out-pairs", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--delta", type=_amount, default=0.8)
    p.add_argument("--checkpoint", help="use this model's embedding matrix")
    p.add_argument("--vocab", required=True)
    p.add_argument("--embed-dim", type=_count, default=300,
                   help="dimension of the random embedding when no checkpoint")
    p.add_argument("--raw-embeddings", action="store_true",
                   help="skip L2 normalization (fidelity mode)")

    p = add_parser("retrieve", help="top-k similar questions for a snippet")
    _add_common(p, seed=True)
    p.add_argument("--train-pairs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--top", type=_count, default=3)
    p.add_argument("--input", help="JSONL of snippets; default stdin")
    p.add_argument("--lang", choices=corpus.LANGS, default="python")
    p.add_argument("--checkpoint")
    p.add_argument("--embed-dim", type=_count, default=300)
    return parser, subparsers


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_preprocess(args):
    posts = corpus.read_posts(args.input)
    candidates, skips = corpus.extract_pairs(posts, args.min_score)
    warnings = []
    pairs = [corpus.make_pair(c, warnings) for c in candidates]
    kept, rejected = corpus.filter_pairs(pairs)
    train_set, val_set, test_set = corpus.split_dataset(
        kept, SplitSpec(args.val_count, args.test_count, args.seed))
    os.makedirs(args.out_dir, exist_ok=True)
    corpus.write_pairs(train_set, os.path.join(args.out_dir, "train.jsonl"))
    corpus.write_pairs(val_set, os.path.join(args.out_dir, "val.jsonl"))
    corpus.write_pairs(test_set, os.path.join(args.out_dir, "test.jsonl"))
    report = {"posts": len(posts),
              "skipped": {"low_score": skips.low_score, "no_code": skips.no_code,
                          "empty_title": skips.empty_title,
                          "malformed_markers": skips.malformed_markers},
              "rejected": rejected, "tokenizer_warnings": len(warnings),
              "train": len(train_set), "val": len(val_set), "test": len(test_set)}
    _atomic_write_json(report, os.path.join(args.out_dir, "preprocess_report.json"))
    print(json.dumps(report))
    return EXIT_OK


def _cmd_build_vocab(args):
    pairs = corpus.read_pairs(args.pairs)
    streams = [p.code_tokens for p in pairs] + [p.title_tokens for p in pairs]
    vocab = build_vocab(streams, min_freq=args.min_freq, max_size=args.max_size)
    vocab.save(args.out)
    print(json.dumps({"vocab_size": len(vocab), "file": args.out}))
    return EXIT_OK


def _cmd_train(args):
    vocab = Vocabulary.load(args.vocab)
    hyper = _hyper_from_args(args)
    train_pairs = corpus.read_pairs(args.train_pairs)
    val_pairs = corpus.read_pairs(args.val_pairs) if args.val_pairs else []
    train_examples = [encode_example(p, vocab) for p in train_pairs]
    val_examples = [encode_example(p, vocab) for p in val_pairs]
    config = TrainConfig(lr=args.lr, batch_size=args.batch_size,
                         epochs=args.epochs,
                         grad_clip_norm=args.grad_clip,
                         seed=args.seed, checkpoint_path=args.checkpoint)
    _, log = train(train_examples, val_examples, hyper, config,
                   vocab_hash=vocab.content_hash(),
                   log_fn=lambda e: print(
                       f"epoch={e.epoch} step={e.step} "
                       f"train_loss={e.train_loss:.4f} "
                       f"val_loss={'-' if e.val_loss is None else f'{e.val_loss:.4f}'} "
                       f"sec={e.seconds:.1f}", file=sys.stderr))
    print(json.dumps({"checkpoint": args.checkpoint, "steps": log[-1].step,
                      "final_train_loss": log[-1].train_loss,
                      "final_val_loss": log[-1].val_loss}))
    return EXIT_OK


def _generate_one(tokens, params, vocab, hyper, args, max_len):
    if args.greedy:
        decoded, attns = greedy_decode_full(tokens, params, vocab, hyper, max_len)
    else:
        results = beam_search(tokens, params, vocab, hyper, k=args.beam,
                              max_len=max_len)
        decoded, attns = results[0].tokens, results[0].attn
    if not hyper.copy and hyper.attention:
        decoded = resolve_unk(decoded, attns, tokens)
    return " ".join(decoded)


def _cmd_generate(args):
    vocab = Vocabulary.load(args.vocab)
    params, hyper, _ = load_checkpoint(args.checkpoint,
                                       expected_vocab_hash=vocab.content_hash())
    titles = [_generate_one(s, params, vocab, hyper, args, args.max_len)
              for s in corpus.read_snippets(args.input, args.lang)]
    for title in titles:
        print(title)
    return EXIT_OK


def _cmd_evaluate(args):
    vocab = Vocabulary.load(args.vocab)
    params, hyper, _ = load_checkpoint(args.checkpoint,
                                       expected_vocab_hash=vocab.content_hash())
    pairs = corpus.read_pairs(args.test_pairs)
    if not pairs:
        raise DataError("evaluate: empty test set")
    candidates = [_generate_one(p.code_tokens, params, vocab, hyper, args, None).split()
                  for p in pairs]
    references = [p.title_tokens for p in pairs]
    report = metrics.score_report(candidates, references)
    if args.out:
        _atomic_write_json(report, args.out)
    print(json.dumps(report))
    return EXIT_OK


def _cmd_ir_baseline(args):
    train_pairs = corpus.read_pairs(args.train_pairs)
    test_pairs = corpus.read_pairs(args.test_pairs)
    if not train_pairs or not test_pairs:
        raise DataError("ir-baseline: empty train or test set")
    index = retrieval.TfidfIndex([(p.id, p.code_tokens, p.title_tokens)
                                  for p in train_pairs])
    candidates = []
    for pair in test_pairs:
        result = index.query(pair.code_tokens)
        candidates.append(list(result.title) if result.matched else [])
    report = metrics.score_report(candidates, [p.title_tokens for p in test_pairs])
    if args.out:
        _atomic_write_json(report, args.out)
    print(json.dumps(report))
    return EXIT_OK


def _embedding_matrix(args, vocab):
    if args.checkpoint:
        params, _, _ = load_checkpoint(args.checkpoint,
                                       expected_vocab_hash=vocab.content_hash())
        return params["E"].data
    rng = Rng(args.seed)
    return rng.uniform(-0.1, 0.1, (len(vocab), args.embed_dim))


def _cmd_dedup(args):
    train_pairs = corpus.read_pairs(args.train_pairs)
    test_pairs = corpus.read_pairs(args.test_pairs)
    vocab = Vocabulary.load(args.vocab)
    E = _embedding_matrix(args, vocab)
    clean, _, report = retrieval.dedup_testset(
        train_pairs, test_pairs, E, vocab, delta=args.delta,
        normalize=not args.raw_embeddings)
    corpus.write_pairs(clean, args.out_pairs)
    summary = dataclasses.asdict(report)
    _atomic_write_json(summary, args.report)
    print(json.dumps(summary))
    return EXIT_OK


def _cmd_retrieve(args):
    train_pairs = corpus.read_pairs(args.train_pairs)
    vocab = Vocabulary.load(args.vocab)
    E = _embedding_matrix(args, vocab)
    snippets = corpus.read_snippets(args.input, args.lang)
    embedded = retrieval.embed_corpus(train_pairs, E, vocab)
    results = [retrieval.topk_similar(tokens, embedded, args.top) for tokens in snippets]
    for result in results:
        for title, sim, doc_id in result:
            print(f"{sim:.4f}\t{doc_id}\t{' '.join(title)}")
    return EXIT_OK


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "build-vocab": _cmd_build_vocab,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "ir-baseline": _cmd_ir_baseline,
    "dedup": _cmd_dedup,
    "retrieve": _cmd_retrieve,
}


def run(argv):
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _apply_config(subparsers[args.command], args.config)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        _fail("usage", str(exc))
        return EXIT_USAGE
    except (DataError, VocabFormatError, CheckpointError,
            TrainingDivergedError, OSError, IndexError, ValueError) as exc:
        _fail("data", str(exc))
        return EXIT_DATA
    except MemoryError as exc:  # e.g. a dimension flag far beyond this machine
        _fail("memory", str(exc) or "out of memory")
        return EXIT_DATA


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
