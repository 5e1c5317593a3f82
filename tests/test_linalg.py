"""Numerical kernel tests against hand-computed values."""

import math

import numpy as np
import pytest

from previewnash import linalg, potential
from previewnash.linalg import (
    AllZeroError,
    NonSquareError,
    Tolerances,
    as_matrix,
    as_vector,
    cholesky_pd,
    singular_extremes,
    solve_linear,
    spectral_radius_est,
    sym_eig,
    symmetrize,
    two_norm,
)

from conftest import make_aligned_game


def test_default_tolerances_are_frozen_constants():
    t = linalg.DEFAULT_TOLERANCES
    assert t.pd_pivot == 1e-10
    assert t.symmetry == 1e-8
    assert t.mat_eq == 1e-8
    assert t.spectral_margin == 1e-6
    with pytest.raises(Exception):
        t.pd_pivot = 1.0  # frozen dataclass


def test_as_matrix_coercion_and_shape_pin():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64 and m.shape == (2, 2)
    as_matrix([[1, 2]], 1, 2)
    with pytest.raises(ValueError):
        as_matrix([[1, 2]], 2, 2)
    with pytest.raises(ValueError):
        as_matrix([[1, 2]], 1, 3)
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])


def test_as_vector_flattens_and_pins_length():
    v = as_vector([[1.0], [2.0]], length=2)
    assert v.shape == (2,)
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], length=3)
    with pytest.raises(ValueError):
        as_vector([np.nan])


@pytest.mark.parametrize("value", [
    np.array([["1", "2"]]),
    np.array([[True, False]]),
    np.array([[1.0, "2"]], dtype=object),
    [[1.0, "2"]],
    [[1.0, b"2"]],
    [(1.0, True)],
    [[1.0, np.bool_(False)]],
    [np.array([1.0, 2.0]), np.array([True, False])],
], ids=["str_array", "bool_array", "object_array", "text", "bytes", "bool_in_tuple", "numpy_bool",
        "list_of_arrays"])
def test_matrix_readers_refuse_numeric_text_and_booleans(value):
    # numpy reads all of these as numbers; JSON has no such numbers
    with pytest.raises(ValueError, match="^m: entries must be numbers, got "):
        as_matrix(value, name="m")
    with pytest.raises(ValueError, match="^v: entries must be numbers, got "):
        as_vector(value, name="v")


def test_matrix_readers_take_integer_arrays_and_lists_of_arrays():
    assert as_matrix(np.array([[1, 2]], dtype=np.int64)).tolist() == [[1.0, 2.0]]
    assert as_matrix(np.array([[1, 2]], dtype=np.uint8)).tolist() == [[1.0, 2.0]]
    assert as_matrix([np.array([1.0, 2.0]), [3, np.float32(4.0)]]).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert as_matrix(np.array([[1, 2.5]], dtype=object)).tolist() == [[1.0, 2.5]]


def test_symmetrize():
    s = symmetrize([[1.0, 4.0], [2.0, 1.0]])
    assert np.array_equal(s, [[1.0, 3.0], [3.0, 1.0]])


def test_symmetrize_keeps_an_exactly_symmetric_input_past_half_the_float_range():
    big = np.array([[1e308, -1e308], [-1e308, 1e308]])
    with np.errstate(over="raise"):
        assert np.array_equal(symmetrize(big), big)
        assert symmetrize(big) is not big
    assert np.array_equal(symmetrize(np.stack([big, -big])), np.stack([big, -big]))


def test_non_finite_pivots_fail_the_stacked_certificate():
    # LAPACK factors a matrix of infinities to an infinite diagonal
    stack = np.stack([np.eye(2), np.full((2, 2), np.inf), np.diag([np.inf, 1.0])])
    assert not linalg._all_pd(stack, 1e-10)
    assert linalg._not_pd(stack, 1e-10) == [1, 2]


def test_pivot_ratio_floor_fails_only_the_nearly_singular_matrix():
    # pivots 1e20 and 16384 both pass pd_pivot, but their ratio is 1.6e-16
    near = np.array([[1e20, 1e20], [1e20, 1e20 + 16384.0]])
    stack = np.stack([np.eye(2), near, np.diag([1.0, 1e-3])])
    assert linalg._not_pd(stack, 1e-10) == []
    assert linalg._not_pd(stack, 1e-10, 1e-15) == [1]
    assert cholesky_pd(near) == (True, 16384.0)  # the public check is unchanged


def test_asymmetry_past_the_float_range_is_infinite():
    stack = np.stack([np.array([[1.0, 1e308], [-1e308, 1.0]]), np.array([[1.0, 2.0], [0.0, 1.0]])])
    with np.errstate(over="raise"):
        assert linalg._asymmetry(stack).tolist() == [np.inf, 2.0]


def test_two_norm_vector_and_matrix():
    assert two_norm([3.0, 4.0]) == 5.0
    assert two_norm([[3.0, 0.0], [0.0, 4.0]]) == 4.0


def test_cholesky_pd_reports_min_pivot():
    check = cholesky_pd([[4.0, 2.0], [2.0, 5.0]])
    assert check.is_pd
    assert check.min_pivot == pytest.approx(4.0)  # pivots are 4 and 5 - 1


def test_cholesky_pd_rejects_semidefinite():
    check = cholesky_pd([[1.0, 1.0], [1.0, 1.0]])
    assert not check.is_pd
    assert abs(check.min_pivot) < 1e-12


def test_cholesky_pd_symmetrizes_first():
    # (M + M')/2 = [[1, 5], [5, 1]], second pivot 1 - 25 < 0
    check = cholesky_pd([[1.0, 10.0], [0.0, 1.0]])
    assert not check.is_pd
    assert check.min_pivot == pytest.approx(-24.0)


def test_cholesky_pd_edge_cases():
    empty = cholesky_pd(np.zeros((0, 0)))
    assert empty.is_pd and empty.min_pivot == math.inf
    assert not cholesky_pd([[1e-12]]).is_pd
    assert cholesky_pd([[1e-12]], tol=1e-14).is_pd
    with pytest.raises(NonSquareError):
        cholesky_pd(np.zeros((2, 3)))


def test_sym_eig_ascending():
    vals = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0, 3.0])


def test_singular_extremes_rectangular():
    ext = singular_extremes([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
    assert ext.sigma_max == pytest.approx(4.0)
    assert ext.sigma_min_pos == pytest.approx(3.0)


def test_singular_extremes_skips_zero_directions():
    ext = singular_extremes([[1.0, 0.0], [0.0, 0.0]])
    assert ext.sigma_max == pytest.approx(1.0)
    assert ext.sigma_min_pos == pytest.approx(1.0)
    with pytest.raises(AllZeroError):
        singular_extremes(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        singular_extremes([1.0, 2.0])


def test_spectral_radius_est_diagonal_exact():
    assert spectral_radius_est(np.diag([0.5, -0.25])) == pytest.approx(0.5, rel=1e-12)


def test_spectral_radius_est_rotation():
    c, s = 0.9 * math.cos(0.7), 0.9 * math.sin(0.7)
    rot = [[c, -s], [s, c]]
    assert spectral_radius_est(rot) == pytest.approx(0.9, rel=1e-6)


def test_spectral_radius_est_handles_large_and_degenerate_input():
    assert spectral_radius_est([[2.0]]) == pytest.approx(2.0, rel=1e-12)
    assert spectral_radius_est([[1e8]]) == pytest.approx(1e8, rel=1e-9)
    assert spectral_radius_est(np.zeros((3, 3))) == 0.0
    assert spectral_radius_est([[0.0, 1.0], [0.0, 0.0]]) == 0.0  # nilpotent
    assert spectral_radius_est(np.zeros((0, 0))) == 0.0
    with pytest.raises(NonSquareError):
        spectral_radius_est(np.zeros((2, 3)))


def test_spectral_radius_est_scales_a_matrix_whose_norm_overflows():
    # ||M||_2 passes the float range, so dividing by it gave the zero matrix and radius 0
    assert spectral_radius_est(np.full((2, 2), 1e308)) == math.inf  # radius 2e308
    assert spectral_radius_est([[1.5e308, 1.5e308], [0.0, 0.0]]) == pytest.approx(1.5e308, rel=0.01)
    assert spectral_radius_est([[1e308, 1e308], [-1e308, -1e308]]) == 0.0  # nilpotent


def test_spectral_radius_est_accuracy_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        exact = float(np.max(np.abs(np.linalg.eigvals(a))))
        if exact < 1e-3:
            continue
        est = spectral_radius_est(a)
        # ||M^128||^(1/128) upper-bounds the radius; ill-conditioned
        # eigenbases inflate it by kappa^(1/128) at most
        assert est >= exact * (1.0 - 1e-9)
        assert est == pytest.approx(exact, rel=0.08)


def test_solve_linear():
    x = solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert np.allclose(x, [1.0, 2.0])
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    inv = solve_linear(a, np.eye(2))
    assert np.allclose(a @ inv, np.eye(2))
    with pytest.raises(NonSquareError):
        solve_linear(np.zeros((2, 3)), np.zeros(2))


def test_tolerance_override_object():
    t = Tolerances(pd_pivot=1e-6)
    assert not cholesky_pd([[1e-7]], tol=t.pd_pivot).is_pd


@pytest.mark.parametrize("name", ["pd_pivot", "symmetry", "mat_eq", "spectral_margin"])
@pytest.mark.parametrize("value", [-1.0, -1e9, math.nan, math.inf, -math.inf])
def test_tolerances_must_be_finite_and_non_negative(name, value):
    with pytest.raises(ValueError, match=f"tolerance {name} must be finite and non-negative"):
        Tolerances(**{name: value})


def test_zero_tolerances_are_accepted():
    assert Tolerances(pd_pivot=0.0, symmetry=0.0, mat_eq=0.0, spectral_margin=0.0).pd_pivot == 0.0


def test_stacked_pd_verdict_matches_cholesky_pd():
    rng = np.random.default_rng(12)
    for k in (1, 2, 3, 5):
        basis = [np.linalg.qr(rng.normal(size=(k, k)))[0] for _ in range(40)]
        mats = np.stack([q @ np.diag(rng.uniform(-0.3, 2.0, size=k)) @ q.T for q in basis])
        sym = (mats + mats.transpose(0, 2, 1)) / 2.0
        verdicts = [cholesky_pd(m).is_pd for m in mats]
        assert 0 < sum(verdicts) < len(verdicts)
        assert [linalg._all_pd(s, 1e-10) for s in sym] == verdicts
        assert linalg._all_pd(sym, 1e-10) == all(verdicts)
        passing = sym[np.array(verdicts)]
        assert linalg._all_pd(passing, 1e-10)
        # a pivot above zero but not above the tolerance still fails
        assert not linalg._all_pd(passing, 1e3)


@pytest.mark.parametrize("failing", [0, 1, 7, 40])
def test_halving_finds_every_matrix_the_stacked_verdict_rejects(failing):
    rng = np.random.default_rng(13)
    basis = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(40)]
    bad = rng.permutation(40)[:failing]
    low = np.where(np.isin(np.arange(40), bad), -0.3, 0.2)
    mats = np.stack([q @ np.diag([lo, 1.0, 2.0]) @ q.T for q, lo in zip(basis, low)])
    sym = (mats + mats.transpose(0, 2, 1)) / 2.0
    assert linalg._not_pd(sym, 1e-10) == [g for g in range(40) if not linalg._all_pd(sym[g], 1e-10)]
    assert sorted(linalg._not_pd(sym, 1e-10)) == sorted(bad.tolist())


# ------------------------------------------- stacked pivots and screened norms

@np.errstate(over="ignore", invalid="ignore")
def _reference_cholesky_pd(m, tol=1e-10):
    """The one-matrix pure-Python factorization `cholesky_pd` ran before its
    stacked scan: the reference it is pinned to bit for bit."""
    s = symmetrize(m)
    n = s.shape[0]
    lower = np.zeros((n, n))
    min_pivot = math.inf
    for i in range(n):
        pivot = s[i, i] - lower[i, :i] @ lower[i, :i]
        min_pivot = min(min_pivot, float(pivot))
        if not pivot > tol:
            return False, min_pivot
        lower[i, i] = math.sqrt(pivot)
        if i + 1 < n:
            lower[i + 1:, i] = (s[i + 1:, i] - lower[i + 1:, :i] @ lower[i, :i]) / lower[i, i]
    return True, min_pivot


def _special_matrix(kind, scale, seed, k, l):
    """One matrix of a kind the screens and the pivot scan must get exactly right."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(-1.0, 1.0, size=(k, l))
    if kind == "zero":
        g = np.zeros((k, l))
    elif kind == "rank1":  # ||M||_F = ||M||_2
        g = np.outer(g[:, 0], g[0])
    elif kind == "spd" and k == l:
        g = g @ g.T + 0.1 * np.eye(k)
    elif kind == "symmetric" and k == l:  # M + M' overflows at 1e308 scale, M itself does not
        g = (g + g.T) / 2.0
    elif kind in ("nan", "inf"):
        g[rng.integers(k), rng.integers(l)] = np.nan if kind == "nan" else -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        return g * scale


def _stacks(st, square):
    kinds = st.sampled_from(["zero", "rank1", "dense", "spd", "symmetric", "nan", "inf"])
    scales = st.sampled_from([1e-200, 1e-9, 1.0, 3.0, 1e150, 1e300, 1.5e308])
    entry = st.tuples(kinds, scales, st.integers(0, 2 ** 32 - 1))
    dims = st.tuples(st.integers(1, 6), st.integers(1, 6))
    return dims.flatmap(lambda kl: st.lists(entry, min_size=1, max_size=8).map(
        lambda es: np.stack([_special_matrix(*e, kl[0], kl[0] if square else kl[1]) for e in es])))


def _same(a, b):
    return repr(np.asarray(a).tolist()) == repr(np.asarray(b).tolist())


def test_stacked_pivots_are_cholesky_pd_bit_for_bit():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(stack=_stacks(st, square=True), tol=st.sampled_from([0.0, 1e-10, 1.0]))
    def check(stack, tol):
        want = [_reference_cholesky_pd(m, tol) for m in stack]
        is_pd, min_pivot = linalg._pivots(stack, tol)
        assert _same(list(zip(is_pd.tolist(), min_pivot.tolist())), want)
        assert _same([tuple(cholesky_pd(m, tol)) for m in stack], want)

    check()


def test_stacked_pivots_match_on_random_definite_and_indefinite_matrices():
    rng = np.random.default_rng(14)
    for k in range(2, 17):
        g = rng.uniform(-1.0, 1.0, size=(60, k, k))
        mats = g @ g.transpose(0, 2, 1) + rng.uniform(-0.5, 0.5, size=(60, 1, 1)) * np.eye(k)
        mats[::3] += rng.uniform(-1e-3, 1e-3, size=(20, k, k))  # asymmetric ones too
        want = [_reference_cholesky_pd(m) for m in mats]
        assert 0 < sum(ok for ok, _ in want) < len(want)
        is_pd, min_pivot = linalg._pivots(mats, 1e-10)
        assert list(zip(is_pd.tolist(), min_pivot.tolist())) == want
    # the stacks A1 and A4 scan on a game of the benchmark's dense size
    spec = make_aligned_game(rng, n=16, m=4, T=40, a_norm=1.05)
    for stack in (spec.costs.Q, potential._joint_weights(spec.costs.R1, spec.costs.R2)):
        is_pd, min_pivot = linalg._pivots(stack, 1e-10)
        assert list(zip(is_pd.tolist(), min_pivot.tolist())) == [_reference_cholesky_pd(m) for m in stack]


def _exact_norms(stack):
    """One SVD per matrix, the norm every screen stands in for; None if LAPACK refuses."""
    try:
        return np.linalg.norm(stack, 2, axis=(-2, -1))
    except np.linalg.LinAlgError:
        return None


def test_screened_norms_decide_what_exact_norms_decide():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(stack=_stacks(st, square=False),
                      factor=st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-12, 2.0]),
                      floor=st.sampled_from([0.0, 1e-300, 1e-8, 1.0]))
    def check(stack, factor, floor):
        exact = _exact_norms(stack)
        if exact is None:
            with pytest.raises(np.linalg.LinAlgError):
                linalg._two_norms(stack, floor)
            return
        with np.errstate(over="ignore", invalid="ignore"):  # a norm near the float range, scaled
            scaled = np.fmax(floor, exact * factor)
        for ceiling in (floor, scaled):
            got = linalg._two_norms(stack, ceiling)
            assert _same(got > ceiling, exact > ceiling)
            assert _same(np.fmax(ceiling, got), np.fmax(ceiling, exact))

    check()


def test_screened_maxima_are_the_exact_maxima():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(stack=_stacks(st, square=False), rows=st.integers(1, 3))
    def check(stack, rows):
        stack = np.stack([np.roll(stack, r, axis=0) for r in range(rows)])  # (rows, S, k, l)
        exact = _exact_norms(stack)
        if exact is None:
            with pytest.raises(np.linalg.LinAlgError):
                linalg._max_two_norms(stack)
            return
        got = linalg._max_two_norms(stack)
        assert got.shape == (rows, stack.shape[1] + 1)
        # A1's maximum, and verify_equivalence's (Python's max keeps a leading NaN)
        assert _same(np.fmax.reduce(got, axis=1, initial=0.0), np.fmax.reduce(exact, axis=1, initial=0.0))
        assert _same([max(row) for row in got.tolist()], [max(row) for row in exact.tolist()])

    check()
