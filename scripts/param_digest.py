"""Print one sha256 of the trained parameters per ablation.

Trains a few clipped SGD steps for every ablation preset from fixed
synthetic pairs, at toy dims (16/16, a 40-token vocabulary) and at the
paper's dims (300/256, a 5,000-token vocabulary, 32 pairs with 64-token
sources and 8-10-token titles), and prints ``dims ablation sha256 loss``
per line, where loss is the last step's training loss in full ``repr``.
The digest is of the parameters as reloaded from the checkpoint ``train``
writes to a temporary file, so it also covers the checkpoint's round trip.
Every source holds tokens outside the vocabulary, so the copy path runs.
Running it on two checkouts shows whether a change moves any trained bit,
and whether it moves a loss value's rounding. It is a measuring tool, not
a test.

    PYTHONPATH=src python scripts/param_digest.py [--steps 2] [--dims toy paper]
"""

import argparse
import hashlib
import os
import tempfile

from c2q.corpus import QCPair
from c2q.model import ABLATION_PRESETS, Hyperparams, encode_example
from c2q.numerics import Rng
from c2q.train import TrainConfig, load_checkpoint, train
from c2q.vocab import build_vocab

# name -> (embed, hidden, vocabulary size with the 4 specials, pairs, source
# length, title lengths)
DIMS = {
    "toy": (16, 16, 40, 8, 12, (3, 5)),
    "paper": (300, 256, 5000, 32, 64, (8, 9, 10)),
}


def examples(vocab_size, n_pairs, src_len, title_lens):
    """Encoded synthetic pairs over a vocabulary of ``vocab_size`` ids; each
    source ends with a token of its own, which the vocabulary leaves out."""
    words = [f"w{i}" for i in range(vocab_size - 4)]
    vocab = build_vocab([words], min_freq=0)
    rng = Rng(7)
    pairs = []
    for i in range(n_pairs):
        code = [words[rng.integers(0, len(words))] for _ in range(src_len - 1)] + [f"oov{i}"]
        title = [code[rng.integers(0, src_len)] if rng.integers(0, 2) else
                 words[rng.integers(0, len(words))]
                 for _ in range(title_lens[i % len(title_lens)])]
        pairs.append(QCPair(id=i, lang="python", code_tokens=code, title_tokens=title))
    return [encode_example(p, vocab) for p in pairs]


def digest(params):
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--steps", type=int, default=2, help="SGD steps per ablation")
    ap.add_argument("--dims", nargs="+", choices=sorted(DIMS), default=["toy", "paper"])
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = os.path.join(tmp, "model.ckpt")
        for dims in args.dims:
            embed, hidden, vocab_size, n_pairs, src_len, title_lens = DIMS[dims]
            data = examples(vocab_size, n_pairs, src_len, title_lens)
            # one batch per epoch, so each epoch is one step; with no
            # validation set the last step's parameters are written
            config = TrainConfig(lr=0.5, batch_size=n_pairs, epochs=args.steps, seed=7,
                                 checkpoint_path=checkpoint)
            for name in sorted(ABLATION_PRESETS):
                hyper = Hyperparams(embed_dim=embed, hidden=hidden,
                                    ablation=ABLATION_PRESETS[name])
                _, log = train(data, [], hyper, config)
                params = load_checkpoint(checkpoint)[0]
                print(dims, name, digest(params), repr(log[-1].train_loss), flush=True)


if __name__ == "__main__":
    main()
