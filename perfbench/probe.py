"""Host-speed probe: a fixed piece of work that never calls the program.

run.py starts this as a child process and, between timed ops, writes
one line to its stdin; it answers with the probe's duration in seconds.
It exits when stdin closes.
"""
import sys
import time

import numpy as np


class Probe:
    """The same three kinds of work as mimufusion's: 3x3 matrix products
    and float arithmetic in the interpreter, parsing CSV text, and bulk
    (n, 3, 3) array products."""

    def __init__(self):
        rng = np.random.default_rng(0)
        c, s = np.cos(0.1), np.sin(0.1)
        self.step = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        self.lines = [f"{i}," + ",".join(f"{x:.17g}" for x in rng.standard_normal(6))
                      for i in range(4000)]
        self.block = rng.standard_normal((20000, 3, 3))

    def __call__(self):
        start = time.perf_counter()
        rot, acc = np.eye(3), 0.0
        for i in range(20000):
            rot = rot @ self.step
            acc += i * 0.5
        for _ in range(2):
            np.asarray([[float(x) for x in line.split(",")[1:]] for line in self.lines])
        for _ in range(9):
            m = self.block @ self.block
            np.einsum("tki,tkj->ij", m, m)
        return time.perf_counter() - start


if __name__ == "__main__":
    probe = Probe()
    for _ in sys.stdin:
        print(repr(probe()), flush=True)
