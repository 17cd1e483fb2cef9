"""Fixed pieces of work that measure how fast the machine is right now.

On a shared host the speed of one process drifts by 10 to 30% over seconds
to minutes, and wall time drifts with it.  ``run.py`` runs passes of a
yardstick just before and after every timed step and divides the step's
wall time by the median pass around it, so the drift cancels while a change
to mphp does not: no yardstick imports or calls mphp.

Three kinds, so that each timed step is held against work of the kind that
dominates it:

* ``slot``: like the per-slot path -- a seeded generator per "user",
  complex steering vectors, small products, a small Hermitian eigenvalue
  solve and a linear solve, on arrays small enough that the interpreter's
  overhead matters as much as the arithmetic;
* ``dense``: like the long-term design -- full eigendecompositions of one
  128 x 128 complex Hermitian matrix, where LAPACK does nearly all the work;
* ``import``: a fresh interpreter that imports ``scipy.stats``, like the
  set-up probe, whose time is mostly that same import today.

``slot`` and ``dense`` take about 0.25 s a pass and ``import`` about 1.5 s
on a 2-core x86-64 VM.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

SLOT_ROUNDS = 1500
DENSE_ROUNDS = 46
ANTENNAS = np.arange(64.0)
IDENTITY = np.eye(16)
ONES = np.ones(16)


def _dense_matrix(size: int = 128) -> np.ndarray:
    rng = np.random.default_rng(7)
    x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return x @ x.conj().T / size


DENSE = _dense_matrix()


def slot_work(rounds: int = SLOT_ROUNDS) -> float:
    """The ``slot`` yardstick; returns a checksum so nothing is optimised away."""
    total = 0.0
    for index in range(rounds):
        rng = np.random.default_rng([7, index])
        angles = rng.uniform(-1.0, 1.0, 6)
        steering = np.exp(1j * np.pi * np.outer(ANTENNAS, np.sin(angles)))
        gains = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        h = steering @ gains
        gram = np.outer(h, h.conj())[:16, :16] + IDENTITY
        total += float(np.linalg.eigvalsh(gram)[-1])
        x = np.linalg.solve(gram, ONES)
        total += sum(float(v.real) for v in x[:4])
    return total


def dense_work(rounds: int = DENSE_ROUNDS) -> float:
    """The ``dense`` yardstick; returns a checksum so nothing is optimised away."""
    total = 0.0
    for _ in range(rounds):
        values, vectors = np.linalg.eigh(DENSE)
        total += float(values[-1]) + float(abs(vectors[0, 0]))
    return total


def import_work() -> None:
    """The ``import`` yardstick: a fresh interpreter imports scipy.stats."""
    subprocess.run([sys.executable, "-c", "import scipy.stats"], check=True, capture_output=True, timeout=120)


KINDS = {"slot": slot_work, "dense": dense_work, "import": import_work}


def measure(kind: str) -> float:
    """Wall seconds of one pass of the ``kind`` yardstick."""
    work = KINDS[kind]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
