"""Property tests: the closed-form solve against two independent references.

Cyclic reduction halves the horizon level by level, so its index
bookkeeping meets a different odd/even pattern at every N.  The instances
cover N from 2 to 70, with extra weight on powers of two and their
neighbours, p from 1 to 4, q from 0 to 3, trajectory counts below p+q as
long as the pooled data still determine the fit (N * L >= p+q for generic
Gaussian samples), and scalar, zoned and per-instant schedules with
weights from 1e-3 to 1e3.  Hypothesis runs derandomized and without an
example database, so every run checks the same examples.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ltvkit import LambdaSchedule, assemble_stacked, cosmic_solve, oracle_solve

from _cases import dense_reference_solution, random_dataset

_EDGES = sorted({n for k in range(1, 7) for n in (2**k - 1, 2**k, 2**k + 1) if 2 <= n <= 70})

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                     suppress_health_check=[HealthCheck.too_slow])


def _weight(draw):
    return 10.0 ** draw(st.floats(-3.0, 3.0))


@st.composite
def instances(draw):
    n = draw(st.one_of(st.sampled_from(_EDGES), st.integers(2, 70)))
    p = draw(st.integers(1, 4))
    q = draw(st.integers(0, 3))
    m = p + q
    ell = draw(st.integers(-(-m // n), 2 * m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = assemble_stacked(random_dataset(rng, p, q, n, ell))
    kind = draw(st.sampled_from(["scalar", "zoned", "per_instant"]))
    if kind == "scalar":
        sched = LambdaSchedule.scalar(_weight(draw))
    elif kind == "zoned":
        starts = draw(st.sets(st.integers(2, n - 1), max_size=4)) if n > 2 else set()
        sched = LambdaSchedule.zoned([(k, _weight(draw)) for k in [1, *sorted(starts)]])
    else:
        sched = LambdaSchedule.per_instant([_weight(draw) for _ in range(n - 1)])
    return data, sched


def scaled_gap(c_a, c_b):
    return float(np.linalg.norm(c_a - c_b)) / (1.0 + float(np.linalg.norm(c_b)))


@_SETTINGS
@given(instances())
def test_closed_form_matches_dense_references(instance):
    data, sched = instance
    c = cosmic_solve(data, sched).model.C
    assert c.shape == (data.N, data.width, data.p)
    assert scaled_gap(c, dense_reference_solution(data, sched)) <= 1e-8
    assert scaled_gap(c, oracle_solve(data, sched).model.C) <= 1e-8
