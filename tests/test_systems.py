"""SeriesHamiltonian reads its gradient and Hessian from stacked term
tables; the reference is each derivative series evaluated on its own."""

from hypothesis import given, settings

from conftest import sample_points, small_series
from driftbench.series import split_by_modes
from driftbench.systems import BUILTIN_SYSTEMS, SeriesHamiltonian


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
    many = h.grad_many(actions)
    assert many.shape == (len(actions), n)
    for row, ac in zip(many, actions):
        for j in range(n):
            close(row[j], grad[j].evaluate(thetas[0], ac))


@given(small_series(d_max=3))
@settings(max_examples=60, deadline=None)
def test_average_part_matches_reference(s):
    avg, _ = split_by_modes(s)
    _assert_matches_reference(SeriesHamiltonian(avg))


def test_degenerate_toy_matches_reference():
    # the degenerate toy and every other builtin, read through h_action
    for factory in BUILTIN_SYSTEMS.values():
        _assert_matches_reference(factory(0.0).h_action)
