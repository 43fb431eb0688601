"""SeriesHamiltonian reads its gradient and Hessian from stacked term
tables; the reference is each derivative series evaluated on its own, and a
read over a stack of points equals the reads at each point.  Each builtin
system's pickle is pinned, so a change to what a factory builds shows up in
one test run."""

import hashlib
import pickle

import numpy as np
from hypothesis import given, settings

from conftest import sample_points, small_series
from driftbench.series import Domain, FourierTaylorSeries, split_by_modes
from driftbench.steepness import action_ball_grid
from driftbench.systems import BUILTIN_SYSTEMS, SeriesHamiltonian

# SHA-256 of pickle.dumps(factory(1e-3), protocol=4) when these were last set
# (Python 3.11.7, numpy 2.4.6); they change only with a re-baseline stated in
# CHANGES.md
SYSTEM_PICKLES = {
    "pendulum": "b1218fa1af20e5553635a889acff83bbfe59d5b3ecc9c08768348281c7591458",
    "quasiconvex": "a146c5c52df080922129ad89b56614b0174f178d6006a5bbe7954a428c94ef4e",
    "linear": "d94d3b95504a15f0590a5c43e3088a3ef49ad3b04fb4a829c1ab398c7c22855b",
    "degenerate": "fd4fa47ee2fb4c595454dcacdd5ebf99fc5eabb9e93622bb664b853fae806d79",
}


def _assert_matches_reference(h):
    series = h.series
    n = series.domain.n
    grad = [series.partial_action(j) for j in range(n)]
    hess = [[g.partial_action(j) for j in range(n)] for g in grad]
    thetas, actions = sample_points(n, count=4)

    def close(new, ref):
        # relative to the value, with the floor 1 that evaluate uses
        assert abs(new - ref) <= 1e-14 * max(1.0, abs(ref)), (new, ref)

    for th, ac in zip(thetas, actions):
        for j in range(n):
            close(h.grad(ac)[j], grad[j].evaluate(th, ac))
            for i in range(n):
                close(h.hess(ac)[j, i], hess[j][i].evaluate(th, ac))
    many = h.grad(actions)
    assert many.shape == (len(actions), n)
    for row, ac in zip(many, actions):
        for j in range(n):
            close(row[j], grad[j].evaluate(thetas[0], ac))
    assert h.hess(actions).shape == (len(actions), n, n)


@given(small_series(d_max=3))
@settings(max_examples=60, deadline=None)
def test_average_part_matches_reference(s):
    avg, _ = split_by_modes(s)
    _assert_matches_reference(SeriesHamiltonian(avg))


def test_degenerate_toy_matches_reference():
    # the degenerate toy and every other builtin, read through h_action
    for factory in BUILTIN_SYSTEMS.values():
        _assert_matches_reference(factory(0.0).h_action)


def _assert_stack_equals_points(h, points):
    grads, hessians = h.grad(points), h.hess(points)
    for p, g, H in zip(points, grads, hessians):
        assert np.array_equal(g, h.grad(p))
        assert np.array_equal(H, h.hess(p))


def test_stacked_reads_equal_point_reads():
    # the builtins, and the Morse inputs of the drift_series_eval benchmark:
    # the degenerate toy and averages h = |I|^2/2 + a I_1^3 + b I_2^3 with
    # |a|, |b| <= 0.002, on the grids 33 and 65 that check_morse reads
    for factory in BUILTIN_SYSTEMS.values():
        h = factory(0.0).h_action
        n = h.series.domain.n
        _assert_stack_equals_points(h, action_ball_grid(n, h.series.domain.R, 9))
    d = Domain(2, 1.0)
    rng = np.random.default_rng(0)
    cubic = []
    for a, b in rng.uniform(-0.002, 0.002, (4, 2)):
        cubic.append(SeriesHamiltonian(
            FourierTaylorSeries.monomial(d, (2, 0), 0.5, 2, 3)
            + FourierTaylorSeries.monomial(d, (0, 2), 0.5, 2, 3)
            + FourierTaylorSeries.monomial(d, (3, 0), float(a), 2, 3)
            + FourierTaylorSeries.monomial(d, (0, 3), float(b), 2, 3)
        ))
    for h in cubic + [BUILTIN_SYSTEMS["degenerate"](1e-3).h_action]:
        for res in (33, 65):
            _assert_stack_equals_points(h, action_ball_grid(2, 1.0, res))


def test_builtin_systems_pickle_as_pinned():
    digests = {name: hashlib.sha256(pickle.dumps(factory(1e-3), protocol=4)).hexdigest()
               for name, factory in BUILTIN_SYSTEMS.items()}
    assert digests == SYSTEM_PICKLES
