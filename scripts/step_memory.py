"""Print what one paper-dims SGD step holds in memory, phase by phase.

Runs one clipped SGD step (``train._sgd_step``, the step ``train`` takes)
at the paper's dims (300/256, a 5,000-token vocabulary) on
``param_digest.py``'s 32 synthetic pairs, then one validation pass over the
same pairs, under ``tracemalloc``. It prints:

- traced current and peak memory after the parameters are built and after
  forward, backward, clipping, the update and validation, each peak taken
  over that phase alone, with the process's ``ru_maxrss`` so far;
- the bytes the forward graph holds, per op kind: each node's value and
  what its backward closure keeps, each owning array counted once (a view
  counts as its base), under the op that made it; parameters left out.

The phases are read by wrapping the functions the step calls
(``train._losses``, ``Tensor.backward``, ``train.clip_global_norm``), so
the step itself runs unchanged. ``tracemalloc`` adds its own bookkeeping to
``ru_maxrss``. It is a measuring tool, not a test.

    PYTHONPATH=src python scripts/step_memory.py [--ablation full] [--seed 7]
"""

import argparse
import collections
import functools
import resource
import tracemalloc

import numpy as np

from c2q import numerics as nm
from c2q import train as train_module
from c2q.model import ABLATION_PRESETS, Hyperparams, init_parameters
from c2q.numerics import Rng, Tensor
from c2q.train import TrainConfig
from param_digest import DIMS, examples

MB = 2 ** 20


def _base(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _closure_arrays(fn, seen):
    """Every array a backward closure keeps, through nested closures,
    tuples, lists and tensors."""
    stack = [fn]
    while stack:
        obj = stack.pop()
        if isinstance(obj, Tensor):
            obj = obj.data
        if isinstance(obj, np.ndarray):
            yield _base(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and id(obj) not in seen:
            seen.add(id(obj))
            stack.extend(cell.cell_contents for cell in getattr(obj, "__closure__", None) or ())


def graph_bytes(roots, params):
    """Bytes the graph below ``roots`` holds, per op kind (the function
    that built the node; ``leaf`` for a tensor without a backward)."""
    nodes, seen, stack = [], set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    owner = {id(_base(t.data)): None for t in params.values()}  # not counted
    held = collections.Counter()

    def count(arr, kind):
        if id(arr) not in owner:
            owner[id(arr)] = arr  # kept alive, so no id is reused while counting
            held[kind] += arr.nbytes

    def kind_of(node):
        return node._backward.__qualname__.split(".")[0] if node._backward else "leaf"

    for node in nodes:  # values first: an array counts under the op that made it
        count(_base(node.data), kind_of(node))
    closures_seen = set()
    for node in nodes:
        if node._backward is not None:
            for arr in _closure_arrays(node._backward, closures_seen):
                count(arr, kind_of(node))
    return held, len(nodes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--ablation", choices=sorted(ABLATION_PRESETS), default="full")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    embed, hidden, vocab_size, n_pairs, src_len, title_lens = DIMS["paper"]
    data = examples(vocab_size, n_pairs, src_len, title_lens)
    hyper = Hyperparams(embed_dim=embed, hidden=hidden, ablation=ABLATION_PRESETS[args.ablation])
    config = TrainConfig(lr=0.5, batch_size=n_pairs, epochs=1, seed=args.seed)

    rows = []

    def phase(name):
        current, peak = tracemalloc.get_traced_memory()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows.append((name, current / MB, peak / MB, rss))
        tracemalloc.reset_peak()

    graph = {}

    def after(name, fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            out = fn(*a, **kw)
            if name == "forward":
                out = list(out)  # _losses builds each title's graph as it is read
                graph["held"], graph["nodes"] = graph_bytes(out, params)
            phase(name)
            return out
        return wrapper

    def before(name, fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            phase(name)
            return fn(*a, **kw)
        return wrapper

    tracemalloc.start()
    params = init_parameters(hyper, vocab_size, Rng(args.seed))
    phase("parameters")
    step_fns = (train_module._losses, nm.Tensor.backward, train_module.clip_global_norm)
    train_module._losses = after("forward", step_fns[0])
    nm.Tensor.backward = after("backward", step_fns[1])
    train_module.clip_global_norm = after("clip", before("graph freed", step_fns[2]))
    try:
        train_module._sgd_step(data, params, hyper, config)
    finally:
        train_module._losses, nm.Tensor.backward, train_module.clip_global_norm = step_fns
    phase("update")
    train_module.mean_loss(data, params, hyper, config.batch_size)
    phase("validation")
    tracemalloc.stop()

    param_mb = sum(t.data.nbytes for t in params.values()) / MB
    print(f"paper dims, {args.ablation}, {n_pairs} pairs: parameters {param_mb:.1f} MB, "
          f"forward graph {graph['nodes']} nodes")
    print(f"{'after':<12} {'current_mb':>10} {'peak_mb':>8} {'maxrss_mb':>9}")
    for name, current, peak, rss in rows:
        print(f"{name:<12} {current:10.1f} {peak:8.1f} {rss:9.1f}")
    print(f"forward graph, {sum(graph['held'].values()) / MB:.1f} MB held:")
    for kind, nbytes in graph["held"].most_common():
        print(f"  {kind:<18} {nbytes / MB:8.1f} MB")


if __name__ == "__main__":
    main()
