"""Machine-speed probes: fixed work outside ohlab, timed between the ops.

The benchmark runs on a shared 2-CPU box whose speed drifts by tens of
percent over minutes: 20 s bracket-ladder runs a few minutes apart gave
median ops from 0.55 s to 0.86 s.  That drift would swamp the differences
between commits.  So every untraced run times a probe between its ops (and
in each set-up interpreter once it is ready) and reports its times at the reference speed:
time x reference / median probe time, and rates inversely.  Each workload
has the probe that does its kind of work, because the drift does not slow
every kind alike (two-thread LAPACK suffers most).  The raw values and the
speed factors are in each run's details.
"""

import statistics
import time

import numpy

SHARE = 0.03   # probe for about this share of the time measured

_rng = numpy.random.default_rng(0)
_A = _rng.random((1024, 1024))
_H = _rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))
_H = _H + _H.conj().T


def _interpreter():
    s = 0
    for i in range(150_000):
        s += i * i


def _arrays():
    for _ in range(2):
        (1.0 / (_A * _A + (1.0 - _A))).sum()


def _lapack():
    z = numpy.random.default_rng(1).standard_normal((256, 512)).view(complex)
    q, _ = numpy.linalg.qr(z)
    numpy.linalg.eigvalsh(q @ _H @ q.conj().T)


# kind: (work, reference seconds).  The references are the median probe
# times in the workers (and, for the interpreter, in set-up) over the
# baseline runs on the 2-CPU box, so reported times are close to the raw
# ones at that box's typical speed.
KINDS = {
    "interpreter": (_interpreter, 0.0142),
    "arrays": (_arrays, 0.021),
    "lapack": (_lapack, 0.0366),
}


def probe_for(kind: str, seconds: float, out: list) -> None:
    """Append probe times to ``out`` until they sum to SHARE of ``seconds``
    (at least one probe)."""
    work = KINDS[kind][0]
    spent = 0.0
    while spent < SHARE * seconds or not spent:
        start = time.perf_counter()
        work()
        out.append(time.perf_counter() - start)
        spent += out[-1]


def slowdown(kind: str, samples) -> float:
    """Median probe time over the reference: above 1 means a slow period."""
    return statistics.median(samples) / KINDS[kind][1]
