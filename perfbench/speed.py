"""Machine speed, read while the benchmark runs from a fixed reference loop.

The benchmark was built on a shared machine whose speed drifts by 30-50%
over tens of seconds, in CPU time as much as in wall time (other tenants
share the cores, caches and memory bus), so whole runs read faster or
slower in every metric at once. The benchmark therefore times a fixed
reference loop between every two commands (``BURST`` loops) and, from a
timer signal, once every ``TICK_S`` during a command (that loop's time is
taken out of the command's). A command's wall time is scaled by
``NOMINAL_S`` over the trimmed mean of the loop times from ``WINDOW_S``
before it starts to ``WINDOW_S`` after it ends. A scaled second is a
second of the machine running at the speed at which the reference loop
takes ``NOMINAL_S``.

The loop mixes, in four parts of about equal time, what c2q spends its
time on: small numpy kernels at paper dims (a 256x300 matvec, tanh, a
5000-way softmax over a 10 MB output matrix); Python objects in cache
(JSON round trips, string splitting, dict counting); Python objects out of
cache (dict lookups over a slice of a 100,000-document token corpus, as
``embed_code`` and TF-IDF walk 20,000 pairs); and numpy out of cache
(distances to a slice of a 20,000 x 300 matrix, dedup's 48 MB). Out of
cache matters because the shared 105 MB L3 makes the large-working-set
commands speed up most when the neighbours are quiet. Of the mixes
tried, that one followed greedy decoding, ``embed_code``, dedup's
distances, TF-IDF queries and JSON parsing at full size best on the build
machine: over 1.5-second windows it left 5-9% of their drift unexplained,
against 9-14% for the raw times. It is the benchmark's own code, so no
change to c2q moves it.
"""

from __future__ import annotations

import json
import signal
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_S = 0.016   # time of one loop on the build machine
BURST = 3           # loops timed before and after each command
FRESH_S = 0.5       # loops timed this recently also serve as the next "before"
TICK_S = 1.0        # period of the single loops timed inside a command
WINDOW_S = 0.25     # loops this close to a command scale its time
TRIM = 0.1          # share of the slowest and of the fastest loops left out
DOCS = 100_000      # documents of the out-of-cache corpus
DOC_SLICE = 550     # documents per loop
ROW_SLICE = 1000    # matrix rows per loop


@dataclass
class Timing:
    start: float        # perf_counter at the start of the command
    end: float
    wall: float         # seconds, the in-command loops taken out


class Speedometer:
    """Reference-loop times and the scaling they give each command."""

    def __init__(self, ticks=True):
        self.ticks = ticks and hasattr(signal, "setitimer")
        rng = np.random.default_rng(0)
        self._A = rng.uniform(-0.1, 0.1, (256, 300))
        self._W = rng.uniform(-0.1, 0.1, (5000, 256))
        self._x = rng.uniform(-1.0, 1.0, 300)
        self._matrix = rng.uniform(-1.0, 1.0, (DOCS // 5, 300))     # 48 MB
        words = np.array([f"w{j}" for j in range(DOCS)], dtype=object)
        self._docs = words[rng.integers(0, DOCS, (DOCS, 16))].tolist()
        self._known = {w: j for j, w in enumerate(words[::2].tolist())}
        self._turn = 0
        words = [f"w{i % 97}" for i in range(64)]
        self._records = [{"id": i, "code": " ".join(words[i % 7:]), "lang": "python"}
                         for i in range(12)]
        self.samples = []   # (perf_counter at the loop's end, loop seconds)
        self.loop()  # warm-up: first-touch page faults and lazy imports

    def loop(self):
        total = 0.0
        for _ in range(4):
            s = np.tanh(self._A @ self._x)
            for _ in range(8):
                s = s * 0.5 + np.exp(-s * s) * 0.1
            logits = self._W @ s
            p = np.exp(logits - logits.max())
            total += float((p / p.sum())[0])
        for _ in range(12):
            for rec in self._records:
                back = json.loads(json.dumps(rec))
                counts = {}
                for tok in back["code"].split():
                    counts[tok] = counts.get(tok, 0) + 1
                total += len(counts)
        # each loop takes the next slice, so the large parts come from memory
        self._turn += 1
        at = self._turn * DOC_SLICE % (DOCS - DOC_SLICE)
        for doc in self._docs[at:at + DOC_SLICE]:
            for tok in doc:
                if self._known.get(tok) is not None:
                    total += 1
        at = self._turn * ROW_SLICE % (len(self._matrix) - ROW_SLICE)
        rows = self._matrix[at:at + ROW_SLICE]
        total += float(np.linalg.norm(rows - self._x, axis=1).min())
        return total

    def _sample(self):
        start = time.perf_counter()
        self.loop()
        end = time.perf_counter()
        self.samples.append((end, end - start))
        return end - start

    def burst(self):
        for _ in range(BURST):
            self._sample()

    def timed(self, fn):
        """(result of fn(), Timing). Loops are timed before and after
        ``fn`` and, every TICK_S, inside it."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] > FRESH_S:
            self.burst()
        paused = 0.0

        def tick(signum, frame):
            nonlocal paused
            paused += self._sample()

        if self.ticks:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            if self.ticks:
                signal.signal(signal.SIGALRM, previous)
        self.burst()
        return result, Timing(start, end, end - start - paused)

    def scaled(self, timing, sensitivity=1.0):
        """The wall time of ``timing`` at the nominal machine speed, for a
        command whose speed moves ``sensitivity`` times as much as the
        loop's (in logs)."""
        near = sorted(s for t, s in self.samples
                      if timing.start - WINDOW_S <= t <= timing.end + WINDOW_S)
        cut = int(len(near) * TRIM)
        kept = near[cut:len(near) - cut]
        return timing.wall * (NOMINAL_S * len(kept) / sum(kept)) ** sensitivity
