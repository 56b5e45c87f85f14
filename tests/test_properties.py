"""Property tests for invariants the rest of the package relies on.

Examples are drawn deterministically (``derandomize``), so a run of the
suite is repeatable; each property still sees a broad spread of inputs.
"""

import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mlasce import kernels
from mlasce.artifact import emulator_to_doc, load_artifact, save_artifact
from mlasce.design import mice_scores
from mlasce.emulator import FidelityLadder, Level, mlasce_run, predict_batch
from mlasce.errors import FactorizationError
from mlasce.gp import GPModel, posterior_batch
from mlasce.kernels import SUPPORTED_NU, KernelSpec, chol_factor
from mlasce.planner import _round_counts
from oracles import corr_matrix

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def designs(draw, max_n=12):
    """(n, d) points on a coarse lattice, so exact duplicates are common."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n))
    coords = st.sampled_from(np.linspace(0.0, 1.0, 6)) | unit
    return draw(arrays(float, (n, d), elements=coords))


@st.composite
def feasible_rounding(draw):
    L = draw(st.integers(1, 5))
    t = draw(arrays(float, L, elements=st.floats(0.1, 100.0)))
    n = draw(arrays(float, L, elements=st.floats(0.0, 1000.0)))
    # Feasible: one run per level fits.
    budget = float(np.sum(t)) * (1.0 + draw(st.floats(0.0, 10.0)))
    return n, t, budget


@PROPERTY
@given(feasible_rounding())
def test_round_counts_positive_and_within_budget(case):
    n, t, budget = case
    counts = _round_counts(n, t, budget)
    assert np.all(counts >= 1)
    assert counts @ t <= budget * (1.0 + 1e-9)


@PROPERTY
@given(
    X=designs(),
    nu=st.sampled_from(SUPPORTED_NU),
    lam=st.floats(0.05, 5.0),
    shift=st.floats(-1e-3, 1e-3),
    jitter0=st.sampled_from([0.0, 1e-14, 1e-8, 1e-3]),
    max_jitter=st.sampled_from([1e-10, 1e-6, 1e-4]),
)
def test_chol_factor_jitter_bounded_in_both_modes(X, nu, lam, shift, jitter0, max_jitter):
    A = corr_matrix(X, KernelSpec(nu=nu, lam=lam, sigma2=1.0))
    A[np.diag_indices_from(A)] -= shift
    results = []
    for in_place in (False, True):
        def refill():
            return np.array(A, order="F")

        try:
            with mock.patch.object(kernels, "_JITTER_MAX", max_jitter):
                if in_place:
                    fac = chol_factor(refill(), jitter0=jitter0, refill=refill)
                else:
                    fac = chol_factor(A, jitter0=jitter0)
        except FactorizationError as exc:
            assert exc.jitter > max_jitter
            results.append((None, exc.jitter))
        else:
            assert 0.0 <= fac.jitter <= max_jitter
            results.append((np.tril(fac.lower), fac.jitter))
    # Both modes reach the same outcome with bitwise the same lower factor.
    (ref, ref_jitter), (got, got_jitter) = results
    assert got_jitter == ref_jitter
    assert (got is None) == (ref is None)
    assert got is None or np.array_equal(got, ref)


@PROPERTY
@given(
    X=designs(),
    Xq=arrays(float, (20, 3), elements=unit),
    nu=st.sampled_from(SUPPORTED_NU),
    lam=st.floats(0.05, 5.0),
    sigma2=st.floats(1e-3, 1e3),
    nugget=st.sampled_from([0.0, 1e-12]) | st.floats(1e-8, 1e-1),
    seed=st.integers(0, 2 ** 16),
)
def test_posterior_variance_within_prior(X, Xq, nu, lam, sigma2, nugget, seed):
    y = np.random.default_rng(seed).normal(size=len(X))
    spec = KernelSpec(nu=nu, lam=lam, sigma2=sigma2, nugget=nugget)
    model = GPModel.from_spec(X, y, spec)
    _, var = posterior_batch(model, np.vstack([Xq[:, :X.shape[1]], X]))
    assert np.all(var >= 0.0)
    assert np.all(var <= sigma2 * (1.0 + nugget))


@PROPERTY
@given(
    cands=designs(max_n=24),
    X=arrays(float, (4, 3), elements=unit),
    nu=st.sampled_from(SUPPORTED_NU),
    lam=st.floats(0.05, 5.0),
    sigma2=st.floats(1e-3, 1e3),
    tau_bar=st.floats(1e-2, 10.0),
)
def test_mice_scores_within_conditional_variance_bounds(cands, X, nu, lam, sigma2, tau_bar):
    # The conditional variance of a candidate given the rest lies in
    # [tau_bar, 1 + tau_bar] (times sigma2), so its score lies in
    # [num / ((1 + tau_bar) sigma2), num / (tau_bar sigma2)]. design._select
    # prunes candidates on the upper end.
    X = X[:, :cands.shape[1]]
    y = np.arange(len(X), dtype=float)
    model = GPModel.from_spec(X, y, KernelSpec(nu=nu, lam=lam, sigma2=sigma2, nugget=1e-8))
    num = posterior_batch(model, cands)[1]
    scores = mice_scores(model, cands, tau_bar)
    assert np.all(scores >= num / ((1.0 + tau_bar) * sigma2) * (1.0 - 1e-12))
    assert np.all(scores <= num / (tau_bar * sigma2) * (1.0 + 1e-12))


RUNS = settings(max_examples=40, deadline=None, derandomize=True)


def _simulator(level):
    """A smooth level-dependent function of a point in [0, pi]^d."""
    return lambda x: float(np.sum(np.sin((level + 1.0) * x))) + 0.5 ** level * float(x[0])


@st.composite
def run_args(draw):
    """(ladder, mlasce_run keyword arguments) for a small random run."""
    L = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    costs = np.cumsum(draw(arrays(float, L, elements=st.floats(0.5, 8.0))))
    ladder = FidelityLadder(
        levels=tuple(Level(_simulator(l), float(c), 0.5 ** l) for l, c in enumerate(costs)),
        domain=(np.zeros(d), np.full(d, math.pi)),
    )
    increments = costs + np.r_[0.0, costs[:-1]]
    # From the opening cost (one run per level) to about 15 picks more.
    budget = float(increments.sum() + draw(st.floats(0.0, 15.0)) * increments.mean())
    weights = draw(st.none() | arrays(float, L, elements=st.floats(0.1, 10.0)))
    return ladder, dict(
        budget=budget,
        nu=draw(st.lists(st.sampled_from(SUPPORTED_NU), min_size=L, max_size=L)),
        a=None if weights is None else weights.tolist(),
        seed=draw(st.integers(0, 2 ** 16)),
        n_grid=draw(st.integers(11, 41)),
    )


@RUNS
@given(run_args())
def test_run_invariants(case):
    # The paper's run invariants on drawn ladders: the budget holds, the
    # ledger accounts for every run, no level repeats a point, a rerun is
    # the same document, and a saved artifact predicts as the run does.
    ladder, kwargs = case
    em = mlasce_run(ladder, **kwargs)
    assert em.spent <= kwargs["budget"] + 1e-9  # _pick's affordability slack
    assert math.fsum(e.cost for e in em.ledger) == pytest.approx(em.spent, rel=1e-9)
    assert [sum(e.level == lv.level for e in em.ledger) for lv in em.levels] == em.counts
    for lv in em.levels:
        xs = [e.x for e in em.ledger if e.level == lv.level]
        assert len(set(xs)) == len(xs)
        assert np.unique(lv.model.X, axis=0).shape[0] == lv.model.n
    doc = json.dumps(emulator_to_doc(em), sort_keys=True)
    assert json.dumps(emulator_to_doc(mlasce_run(ladder, **kwargs)), sort_keys=True) == doc
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_artifact(em, path)
        loaded = load_artifact(path)
    d = ladder.domain[0].size
    xq = np.random.default_rng(kwargs["seed"]).uniform(0.0, math.pi, size=(25, d))
    for got, want in zip(predict_batch(loaded, xq), predict_batch(em, xq)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
