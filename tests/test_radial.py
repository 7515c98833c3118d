import math
import struct
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from profiles import constant, from_callable
from tmlab import radial
from tmlab.errors import InvalidInputError, SingularEvaluationError
from tmlab.forms import eval_J, orlicz_integral
from tmlab.potentials import LerayPotential, sample
from tmlab.radial import (RadialFunction, RadialGrid, derivative, exact_sum,
                          gradient_norm_sq, integral_weighted, lp_norm)
from tmlab.probe import moser_function


def test_default_grid_grading(grid):
    nodes = grid.nodes
    assert len(grid) == 4096
    assert nodes[0] == pytest.approx(1e-8, rel=1e-12)
    assert 1.0 - nodes[-2] == pytest.approx(1e-8, rel=1e-6)
    assert nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0)
    # geometric clustering: bounded ratios at both ends
    left_ratios = nodes[1:100] / nodes[:99]
    assert np.all(left_ratios < 1.02)
    right_gaps = 1.0 - nodes[-100:-1]
    assert np.all(right_gaps[1:] / right_gaps[:-1] > 0.97)


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        RadialGrid([0.5])
    with pytest.raises(InvalidInputError):
        RadialGrid([0.5, 0.4, 1.0])
    with pytest.raises(InvalidInputError):
        RadialGrid([0.0, 1.0])
    with pytest.raises(InvalidInputError):
        RadialGrid([0.1, 0.9])  # must end at 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_nodes(bad):
    # The message names the real defect, not a side effect such as
    # "not increasing".
    for nodes in ([bad, 0.5, 1.0], [0.1, bad, 1.0]):
        with pytest.raises(InvalidInputError, match="finite"):
            RadialGrid(nodes)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_function_rejects_non_finite_values(bad):
    grid = RadialGrid([0.25, 0.5, 1.0])
    for i in range(3):
        vals = [1.0, 0.5, 0.0]
        vals[i] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            RadialFunction(grid, vals, dirichlet=False)


def test_gradient_norm_examples(grid):
    assert gradient_norm_sq(RadialFunction.zero(grid)) == 0.0
    ramp = from_callable(grid, lambda r: 1.0 - r)
    assert gradient_norm_sq(ramp) == pytest.approx(math.pi, abs=1e-10)
    m = moser_function(grid, 64)
    assert gradient_norm_sq(m) == pytest.approx(1.0, abs=1e-3)


def test_gradient_needs_two_nodes():
    with pytest.raises(InvalidInputError):
        RadialGrid([1.0])


def test_lp_norm_examples(grid):
    one = constant(grid, 1.0)
    assert lp_norm(one, 2) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    assert lp_norm(RadialFunction.zero(grid), 3) == 0.0
    ramp = from_callable(grid, lambda r: 1.0 - r)
    assert lp_norm(ramp, 1) == pytest.approx(math.pi / 3.0, abs=1e-5)
    with pytest.raises(InvalidInputError):
        lp_norm(one, 0.5)


def test_integral_weighted_examples(grid):
    one = constant(grid, 1.0)
    assert integral_weighted(one, sample(np.zeros_like, grid.sample_r)) == 0.0
    assert integral_weighted(one, sample(np.ones_like, grid.sample_r)) == \
        pytest.approx(math.pi, abs=1e-12)


def test_integral_weighted_leray_oracle(grid):
    # sqrt(log 1/r) against the borderline Hardy weight, truncated at the
    # last interior node; oracle is the closed form of the L-substitution.
    u = from_callable(
        grid, lambda r: np.sqrt(np.log(1.0 / np.minimum(r, 1 - 1e-16))))
    r_lo, eps_edge = grid.nodes[0], grid.nodes[-2]
    pot = LerayPotential()

    def w(r):
        return np.where((r >= r_lo) & (r < eps_edge), pot(r), 0.0)

    disc = integral_weighted(u, sample(w, grid.sample_r))
    oracle = (math.pi / 2.0) * math.log(math.log(1.0 / grid.nodes[0])
                                        / math.log(1.0 / eps_edge))
    assert disc == pytest.approx(oracle, rel=1e-4)


def test_integral_weighted_singular_report(grid):
    def bad(r):
        out = np.ones_like(r)
        out[r > 0.5] = np.inf
        return out

    with pytest.raises(SingularEvaluationError) as err:
        sample(bad, grid.sample_r)
    assert err.value.abscissa > 0.5


def test_integral_weighted_linear_and_monotone(grid):
    rng = np.random.default_rng(5)
    vals = rng.uniform(0, 1, len(grid))
    vals[-1] = 0.0
    u = RadialFunction(grid, vals)
    w1 = lambda r: np.exp(-r)
    w2 = lambda r: np.exp(-r) + 0.3 * r
    a = integral_weighted(u, sample(w1, grid.sample_r))
    b = integral_weighted(u, sample(lambda r: 0.3 * r, grid.sample_r))
    c = integral_weighted(u, sample(w2, grid.sample_r))
    assert c == pytest.approx(a + b, rel=1e-12)
    assert a <= c


def test_derivative_examples(grid):
    const = constant(grid, 4.0)
    assert np.all(derivative(const) == 0.0)
    ramp = from_callable(grid, lambda r: 1.0 - r)
    assert np.allclose(derivative(ramp), -1.0)
    u = from_callable(
        grid, lambda r: np.sqrt(np.log(1.0 / np.minimum(r, 1 - 1e-16))))
    a, b = grid.nodes[100], grid.nodes[101]
    expected = (u.values[101] - u.values[100]) / (b - a)
    assert derivative(u)[100] == expected


def test_scaling_exactness(grid):
    rng = np.random.default_rng(1)
    vals = rng.normal(size=len(grid))
    vals[-1] = 0.0
    u = RadialFunction(grid, vals)
    c = -3.7
    assert gradient_norm_sq(u.scaled(c)) == \
        pytest.approx(c * c * gradient_norm_sq(u), rel=1e-14)
    assert lp_norm(u.scaled(c), 3) == \
        pytest.approx(abs(c) * lp_norm(u, 3), rel=1e-12)


def test_gradient_refinement_second_order():
    exact = math.pi**3 / 8.0 + math.pi / 2.0  # energy of cos(pi r / 2)
    errs = []
    for n in (512, 1024, 2048):
        g = RadialGrid.default(n)
        u = from_callable(g, lambda r: np.cos(math.pi * r / 2))
        errs.append(abs(gradient_norm_sq(u) - exact))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_dirichlet_flag_enforced(grid):
    vals = np.ones(len(grid))
    with pytest.raises(InvalidInputError):
        RadialFunction(grid, vals, dirichlet=True)


def test_interpolation_constant_left_of_first_node(grid):
    u = from_callable(grid, lambda r: 1.0 - r)
    assert u(grid.nodes[0] / 10.0) == u.values[0]


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=50)
@given(st.lists(_finite, min_size=1, max_size=200),
       st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=200))
def test_csv_roundtrip(values, radii):
    grid = RadialGrid(np.append(np.unique(radii), 1.0))
    vals = np.resize(np.array(values), len(grid))
    u = RadialFunction(grid, vals, dirichlet=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prof.csv"
        u.to_csv(path)
        v = RadialFunction.from_csv(path)
    assert np.array_equal(v.grid.nodes, u.grid.nodes)
    assert np.array_equal(v.values, u.values)
    assert np.array_equal(np.signbit(v.values), np.signbit(u.values))
    assert v.dirichlet == (vals[-1] == 0.0)


def _outcome(total, x):
    """The bits of total(x), or the type of the exception it raises."""
    try:
        return struct.pack("<d", total(x))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _as_terms(parts):
    """Terms with exact cancellation (x next to -x) and repeated values."""
    values, mirror, repeat = parts
    x = list(values) + [-v for v in values[:mirror]]
    return np.array(x * repeat, dtype=float)


# Mixed magnitudes from subnormal to 1e300, signed zeros, and ties.
_sum_terms = st.tuples(
    st.lists(st.one_of(_finite,
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.5,
                                        2.0 ** -53, 2.0 ** -106, 1.0, 1e300,
                                        -1e300]),
                       st.floats(-1e-300, 1e-300)),
             max_size=300),
    st.integers(0, 300), st.integers(1, 3)).map(_as_terms)


@settings(deadline=None)
@given(_sum_terms)
def test_exact_sum_is_fsum(x):
    assert _outcome(exact_sum, x) == _outcome(math.fsum, x)


@st.composite
def _tie_terms(draw):
    """Up to 4096 terms summing to a head plus (nearly) half its ulp.

    The half ulp is split into a few exact pieces, nudged by zero or by a
    tiny amount either way, and hidden among cancelling pairs of other
    magnitudes, all shuffled: an exact tie, or a total just off one, is
    too close to call for the one-pass test and goes to math.fsum."""
    n = draw(st.integers(2, 4096))
    head = draw(st.floats(1.0, 2.0, exclude_max=True)) \
        * 2.0 ** draw(st.integers(-60, 60))
    half = draw(st.sampled_from([1.0, -1.0])) * math.ulp(head) / 2.0
    pieces = draw(st.integers(1, 6))
    tail = [half * 2.0 ** -j for j in range(1, pieces)]
    tail.append(half * 2.0 ** (1 - pieces))
    nudge = draw(st.sampled_from([0.0, 1.0, -1.0])) \
        * abs(half) * 2.0 ** -draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fill = max((n - len(tail) - 2) // 2, 0)
    pairs = head * rng.uniform(-1.0, 1.0, fill) \
        * 2.0 ** rng.integers(-80, 1, fill)
    x = np.concatenate([[head, nudge], tail, pairs, -pairs])
    return rng.permutation(x)


@settings(deadline=None)
@given(_tie_terms())
def test_exact_sum_is_fsum_at_ties(x):
    assert _outcome(exact_sum, x) == _outcome(math.fsum, x)


@pytest.mark.parametrize("x", [[], [1.5], [-0.0], [-0.0] * 7, [0.0, -0.0],
                               [1.0, 2.0 ** -53, 2.0 ** -53],
                               [1.0, 2.0 ** -53, 2.0 ** -106],
                               [1e308, 1e308], [1e308, 1e308, -1e308]])
def test_exact_sum_edge_cases(x):
    x = np.array(x, dtype=float)
    assert _outcome(exact_sum, x) == _outcome(math.fsum, x)


def _fsum_calls(x) -> list:
    """The argument of each math.fsum call that exact_sum(x) makes."""
    calls = []

    def fsum(values):
        calls.append(values)
        return math.fsum(values)

    proxy = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                     if not k.startswith("_")})
    proxy.fsum = fsum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radial, "math", proxy)
        total = exact_sum(x)
    assert _outcome(lambda _: total, x) == _outcome(math.fsum, x)
    return calls


@st.composite
def _quadrature_terms(draw):
    """Same-sign terms f(r) * area on a default grid of 16..4096 nodes,
    f = exp(c u^2) with u a seeded random profile (J's terms)."""
    grid = RadialGrid.default(draw(st.integers(16, 4096)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = draw(st.floats(0.0, 60.0))
    u = rng.uniform(0.0, 1.0, len(grid))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return sign * np.exp(c * u * u) * grid.cap_areas


@settings(deadline=None, max_examples=60)
@given(_quadrature_terms())
def test_exact_sum_is_fsum_on_quadrature_terms(x):
    assert _outcome(exact_sum, x) == _outcome(math.fsum, x)


@settings(deadline=None)
@given(st.lists(st.floats(1e-200, 1e200), min_size=1, max_size=500),
       st.integers(0, 2 ** 32 - 1))
def test_exact_sum_is_fsum_next_to_negated_neighbours(values, seed):
    # x beside -x (1 + 2^-52): the total is ~2^-52 of the terms, so the
    # one-pass test cannot round it and math.fsum does.
    x = np.array(values)
    terms = np.concatenate([x, -x * (1.0 + 2.0 ** -52)])
    terms = np.random.default_rng(seed).permutation(terms)
    assert _outcome(exact_sum, terms) == _outcome(math.fsum, terms)


@settings(deadline=None)
@given(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=300),
       st.lists(st.integers(-2 ** 30, 2 ** 30), max_size=20))
def test_exact_sum_is_fsum_with_subnormal_residuals(tiny, normal):
    # Multiples of 2^-1074 (subnormal up to 2^-1022) beside a few normal
    # terms near 2^-1000: once the normal parts are peeled off, the
    # residual's error bound is subnormal and math.fsum decides.
    x = np.array([math.ldexp(float(t), -1074) for t in tiny]
                 + [math.ldexp(float(t), -1030) for t in normal])
    assert _outcome(exact_sum, x) == _outcome(math.fsum, x)


def test_exact_sum_pass_counts(grid):
    # The package's own quadratures are decided by the one-pass test's
    # two fsum calls, with no math.fsum over the terms ...
    form_terms = []
    for k in (2, 64, 2 ** 14):
        u = moser_function(grid, k)
        s = u.samples()
        form_terms.append(np.exp(4.0 * math.pi * s * s) * grid.cap_areas)
        d = derivative(u)
        form_terms.append(d * d * grid.cell_areas)
        form_terms.append(LerayPotential()(grid.sample_r) * s * s
                          * grid.cap_areas)
    for x in form_terms:
        calls = _fsum_calls(x)
        assert len(calls) == 2 and all(c is not x for c in calls)
    # ... while cancelling sums fall back to math.fsum(x).
    x = np.geomspace(1e-3, 1e3, 4096)
    for terms in (np.concatenate([x, -x * (1.0 + 2.0 ** -52)]),
                  np.concatenate([x, -x])):
        assert _fsum_calls(terms)[-1] is terms


def test_exact_sum_near_tie_goes_to_fsum():
    # 1 + 2^-53 + 2^-100 rounds up, but only 2^-100 above the tie: inside
    # the bracket 2 (n + 1) n 2^-106 sigma = 12 * 2^-102 (sigma = 16), so
    # the one-pass test cannot round it and math.fsum(x) does.
    x = np.array([1.0, 2.0 ** -53 + 2.0 ** -100])
    calls = _fsum_calls(x)
    assert len(calls) == 3 and calls[-1] is x
    assert exact_sum(x) == 1.0 + 2.0 ** -52


@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_exact_sum_non_finite_like_fsum(values):
    x = np.array(values)
    assert _outcome(exact_sum, x) == _outcome(math.fsum, x)


@st.composite
def _kernel_inputs(draw):
    """A profile of either sign on a default grid of 16..4096 nodes, with
    a peak from 1e-3 to 12 (4 pi u^2 crosses EXP_OVERFLOW above 7.47),
    V samples of both signs over six decades, an Orlicz scale and an
    exponent p."""
    grid = RadialGrid.default(draw(st.integers(16, 4096)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = draw(st.floats(1e-3, 12.0)) * rng.uniform(-0.5, 1.0, len(grid))
    if draw(st.booleans()):
        vals[-1] = 0.0
    ws = rng.normal(0.0, 1.0, len(grid)) * 10.0 ** rng.uniform(-3, 3,
                                                               len(grid))
    return (RadialFunction(grid, vals, dirichlet=False), ws,
            draw(st.floats(0.05, 20.0)), draw(st.floats(1.0, 8.0)))


def _bits(f, *args):
    """The bytes of f(*args) (a float or an array), or the exception type."""
    try:
        out = f(*args)
    except FloatingPointError as exc:
        return type(exc)
    return np.asarray(out, dtype=float).tobytes()


@settings(deadline=None, max_examples=80)
@given(_kernel_inputs())
def test_kernels_match_their_old_expressions(inputs):
    u, ws, t, p = inputs
    for new, old, args in (
            (RadialFunction.samples, oracles.samples_concat, ()),
            (derivative, oracles.derivative_diff, ()),
            (gradient_norm_sq, oracles.gradient_norm_sq_expr, ()),
            (integral_weighted, oracles.integral_weighted_expr, (ws,)),
            (eval_J, oracles.eval_J_expr, ()),
            (orlicz_integral, oracles.orlicz_integral_expr, (t,)),
            (lp_norm, oracles.lp_norm_expr, (p,))):
        assert _bits(new, u, *args) == _bits(old, u, *args), new.__name__
