"""Print acceptance criterion 5's repeated-trigram counts and margin, as is
and with every initial weight moved one ulp.

Criterion 5 trains the ``atten`` and ``atten+coverage`` ablations at two
seeds on a stress corpus of repeating titles, and passes when the coverage
model's greedy titles repeat fewer trigrams in total. This script trains
them exactly as the criterion does (its corpus, settings and trigram count
are imported from ``tests/test_acceptance.py``), once unperturbed and then
``--runs N`` times with every initial weight moved one ulp up or down, the
direction drawn from a seeded random stream per run. The perturbation
wraps the ``init_parameters`` that ``train`` calls, so the initial draws
and the shuffle stream that follows them are unchanged. Each
run prints the counts per seed and ablation, the totals and the margin
(``atten`` minus ``atten+coverage``; the criterion needs it above 0). A
margin that shrinks or flips under one-ulp moves says how close the
criterion sits to the rounding of the code it judges. It is a measuring
tool, not a test.

    PYTHONPATH=src python scripts/criterion5_margin.py [--runs 3] [--seed 0]
"""

import argparse
import pathlib
import sys

import numpy as np

from c2q import train as train_module

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from test_acceptance import (COVERAGE_ABLATIONS, COVERAGE_SEEDS,  # noqa: E402
                             _coverage_run, _stress_corpus)


def one_ulp(init, rng):
    """``init`` with every weight it draws moved one ulp towards +inf or
    -inf, by a coin of ``rng``. The zero biases stay zero."""
    def perturbed(*args):
        params = init(*args)
        for t in params.values():
            direction = np.where(rng.integers(0, 2, t.data.shape), np.inf, -np.inf)
            moved = np.nextafter(t.data, direction.astype(t.data.dtype))
            t.data[...] = np.where(t.data != 0, moved, t.data)
        return params

    return perturbed


def margin_run(label, pairs):
    repeats = {name: [] for name in COVERAGE_ABLATIONS}
    for seed in COVERAGE_SEEDS:
        for name in COVERAGE_ABLATIONS:
            repeats[name].append(_coverage_run(pairs, name, seed)[-1])
    totals = {name: sum(counts) for name, counts in repeats.items()}
    per_seed = " ".join(f"{name}={'+'.join(map(str, counts))}" for name, counts in repeats.items())
    print(f"{label} seeds={','.join(map(str, COVERAGE_SEEDS))} {per_seed} "
          f"margin={totals['atten'] - totals['atten+coverage']}", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=3, help="perturbed runs after the unperturbed one")
    ap.add_argument("--seed", type=int, default=0, help="seed of the perturbation directions")
    args = ap.parse_args(argv)
    pairs = _stress_corpus()
    margin_run("unperturbed", pairs)
    init = train_module.init_parameters
    try:
        for run in range(args.runs):
            rng = np.random.default_rng([args.seed, run])
            train_module.init_parameters = one_ulp(init, rng)
            margin_run(f"one-ulp run={run}", pairs)
    finally:
        train_module.init_parameters = init


if __name__ == "__main__":
    main()
