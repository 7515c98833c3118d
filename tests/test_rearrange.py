import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (check_equimeasurable, distribution_function_broadcast,
                     hardy_littlewood_gap, measure_density, mu_integral,
                     polya_szego_gap, rearrange_decreasing_loop, step_profile)

from profiles import constant, from_callable
from tmlab import rearrange
from tmlab.errors import InvalidInputError
from tmlab.forms import PotentialRemainder, eval_J, eval_Q
from tmlab.potentials import GammaPotential
from tmlab.radial import RadialFunction, RadialGrid
from tmlab.rearrange import (MEASURES, distribution_function,
                             rearrange_decreasing)
from tmlab.sampling import nonneg_profile


def test_measure_cumulatives():
    hyp = MEASURES["hyperbolic"]
    euc = MEASURES["euclidean"]
    r = np.array([0.3, 0.9, 0.999])
    assert np.allclose(hyp.M(r), 4 * math.pi * r**2 / (1 - r**2), rtol=1e-12)
    assert np.allclose(euc.M(r), math.pi * r**2, rtol=1e-15)
    assert np.allclose(hyp.M_inv(hyp.M(r)), r, rtol=1e-14)
    assert np.allclose(euc.M_inv(euc.M(r)), r, rtol=1e-14)


def test_measure_records_name_themselves():
    # The repr names the measure and holds no function address; only the
    # hyperbolic measure drops the rim cell.
    assert [repr(m) for m in MEASURES.values()] == [
        "RadialMeasure(name='hyperbolic', truncated=True)",
        "RadialMeasure(name='euclidean', truncated=False)"]


def test_nonincreasing_input_fixed_point(grid):
    f = from_callable(grid, lambda r: (1 - r) ** 2)
    fs = rearrange_decreasing(f, MEASURES["hyperbolic"])
    assert np.max(np.abs(fs(grid.nodes) - f.values)) < 1e-10


def test_constant_fixed_point(grid):
    f = constant(grid, 2.5)
    fs = rearrange_decreasing(f, MEASURES["hyperbolic"])
    assert np.all(fs.values == 2.5)


def test_negative_input_rejected(grid):
    vals = -np.ones(len(grid))
    vals[-1] = 0.0
    with pytest.raises(InvalidInputError):
        rearrange_decreasing(RadialFunction(grid, vals), MEASURES["euclidean"])


def test_euclidean_ramp_closed_form(grid):
    # f(r) = r rearranges to sqrt(1 - r^2): mu{f > t} = pi (1 - t^2)
    f = RadialFunction(grid, grid.nodes.copy(), dirichlet=False)
    fs = rearrange_decreasing(f, MEASURES["euclidean"])
    rr = np.linspace(0.0, 0.99, 500)
    assert np.max(np.abs(fs(rr) - np.sqrt(1 - rr**2))) < 1e-5


def test_equimeasurability_examples(grid):
    rng = np.random.default_rng(23)
    f = step_profile(rng)
    fs = rearrange_decreasing(f, MEASURES["hyperbolic"])
    assert check_equimeasurable(f, fs, MEASURES["hyperbolic"], 300) < 1e-6
    # scaling changes the level sets
    f2 = RadialFunction(f.grid, 2.0 * f.values)
    assert check_equimeasurable(f, f2, MEASURES["hyperbolic"], 300) > 1e-3


# Few distinct values, each repeated, make plateaus (constant cells) and
# levels exactly at node values common.
_df_values = st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                st.floats(0.0, 10.0)),
                      min_size=1, max_size=200)
_df_radii = st.one_of(
    st.sampled_from([16, 64, 1024]),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
             min_size=1, max_size=300))


@settings(deadline=None, max_examples=60)
@given(_df_values, st.integers(1, 4), _df_radii,
       st.lists(st.floats(-1.0, 12.0), max_size=40),
       st.sampled_from(["hyperbolic", "euclidean"]), st.booleans())
def test_distribution_function_agrees_with_broadcast(values, repeat, radii,
                                                     extra, kind, strict):
    # The sweep sums the same nonnegative terms as the broadcast in
    # another order: recursive summation of at most `cells` terms bounds
    # the difference by cells * 2^-52 relative.  A wrong tie rule moves a
    # whole cell's dM, far outside it.
    grid = (RadialGrid.default(radii) if isinstance(radii, int)
            else RadialGrid(np.append(np.unique(radii), 1.0)))
    vals = np.resize(np.repeat(values, repeat), len(grid))
    f = RadialFunction(grid, vals, dirichlet=False)
    levels = np.concatenate([vals, extra,
                             np.linspace(0.0, np.max(vals), 17)])
    measure = MEASURES[kind]
    got = distribution_function(f, measure, levels, strict)
    with np.errstate(over="ignore"):  # crossings of cells far from t
        want = distribution_function_broadcast(f, measure, levels, strict)
    cells = len(grid) - 1
    assert np.all(np.abs(got - want) <= cells * 2.0**-52 * want)
    assert np.array_equal(got[want == 0.0], want[want == 0.0])


def test_distribution_function_memory():
    # O(levels + cells + straddled pairs) floats, 1-2 MB here; a block of
    # the (levels x cells) matrix for 256 levels would alone take 8.4 MB.
    f = nonneg_profile(np.random.default_rng(0), RadialGrid.default(4096))
    levels = np.unique(np.concatenate(
        [np.linspace(0.0, np.max(f.values), 2048), f.values]))[::-1]
    assert levels.size == 6142  # rearrange_decreasing's sampled levels
    tracemalloc.start()
    try:
        distribution_function(f, MEASURES["hyperbolic"], levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("levels", [1, 0, -3])
def test_level_count_below_two_rejected(grid, levels):
    f = from_callable(grid, lambda r: 1 - r)
    with pytest.raises(InvalidInputError, match="levels"):
        check_equimeasurable(f, f, MEASURES["hyperbolic"], levels=levels)


def test_rearrange_bit_identical_to_loop():
    # Plateau levels batched into one non-strict call and the running-
    # maximum mask reproduce the per-level loop bit for bit.
    rng = np.random.default_rng(59)
    profiles = [step_profile(rng) for _ in range(40)]
    profiles.append(nonneg_profile(np.random.default_rng(0),
                                   RadialGrid.default(4096)))
    for f in profiles:
        for measure in (MEASURES["hyperbolic"], MEASURES["euclidean"]):
            got = rearrange_decreasing(f, measure)
            want = rearrange_decreasing_loop(f, measure)
            assert got.grid.nodes.tobytes() == want.grid.nodes.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
            assert got.dirichlet == want.dirichlet


def test_no_rim_cell_ulps_wide():
    # The Euclidean M_inv of the whole disk may round one or two ulps
    # below 1; kept beside the appended 1.0 it made a rim cell that wide
    # (58 of these 300).
    rng = np.random.default_rng(0)
    profiles = [step_profile(rng) for _ in range(300)]
    for measure in (MEASURES["hyperbolic"], MEASURES["euclidean"]):
        for f in profiles:
            nodes = rearrange_decreasing(f, measure).grid.nodes
            assert 1.0 - nodes[-2] >= 4.0 * np.finfo(float).epsneg
            assert nodes[-1] == 1.0


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
@example(39695)
def test_rearrangement_equimeasurable(seed):
    # f# is exact at its sampled levels and linear in r between them, so
    # off those levels the measures differ by a level-sampling error:
    # below 1e-6 on most step profiles, 1.26e-6 at seed 815.  At seed
    # 39695 a shallow ramp between two close plateaus left the equispaced
    # levels 0.005 apart in rho (1.0e-4) until such gaps got more levels.
    f = step_profile(np.random.default_rng(seed))
    fs = rearrange_decreasing(f, MEASURES["hyperbolic"])
    assert check_equimeasurable(f, fs, MEASURES["hyperbolic"], 300) < 1e-5


def test_equimeasurability_level_refinement(grid_1024, monkeypatch):
    # Smooth interior maximum: levels cluster like sqrt near the top, so
    # the deviation is level-sampling controlled and must shrink under
    # refinement (node values dominate until the level grid is finer).
    f = from_callable(
        grid_1024, lambda r: np.exp(-((r - 0.45) / 0.2) ** 2) * (1 - r))
    devs = []
    for levels in (512, 2048, 8192):
        monkeypatch.setattr(rearrange, "LEVELS", levels)
        fs = rearrange_decreasing(f, MEASURES["hyperbolic"])
        devs.append(check_equimeasurable(f, fs, MEASURES["hyperbolic"], 777))
    assert devs[1] < 5e-3
    assert devs[2] < 0.6 * devs[1] < 0.6 * devs[0]


def _hl_gap(f, g, measure):
    return hardy_littlewood_gap(f, rearrange_decreasing(f, measure),
                                g, rearrange_decreasing(g, measure), measure)


def _ps_gap(f):
    return polya_szego_gap(f, rearrange_decreasing(f, MEASURES["hyperbolic"]))


def test_hardy_littlewood_examples():
    # both nonincreasing: equality case
    g0 = RadialGrid.default(512)
    f = from_callable(g0, lambda r: (1 - r))
    h = from_callable(g0, lambda r: (1 - r) ** 3)
    assert abs(_hl_gap(f, h, MEASURES["euclidean"])) < 1e-8
    # opposing monotonicity: strict gain, hand-computable
    nodes = np.array([1e-6, 0.8, 0.8 + 1e-9, 1.0])
    inc = RadialFunction(RadialGrid(nodes), np.array([0.0, 0.0, 1.0, 1.0]),
                         dirichlet=False)
    dec = RadialFunction(RadialGrid(nodes), np.array([1.0, 1.0, 0.0, 0.0]),
                         dirichlet=True)
    gap = _hl_gap(inc, dec, MEASURES["euclidean"])
    # f# occupies sqrt(1-0.64) = 0.6: overlap with g# is the disk r < 0.6
    assert gap == pytest.approx(math.pi * 0.36, rel=1e-6)


def test_hardy_littlewood_sweep():
    rng = np.random.default_rng(31)
    for _ in range(200):
        f = step_profile(rng)
        h = step_profile(rng)
        assert _hl_gap(f, h, MEASURES["hyperbolic"]) >= -1e-6


def test_polya_szego_examples():
    g0 = RadialGrid.default(512)
    mono = from_callable(g0, lambda r: (1 - r) ** 2)
    assert abs(_ps_gap(mono)) < 1e-8
    # two-bump profile strictly relaxes
    nodes = np.array([1e-4, 0.2, 0.21, 0.3, 0.31, 0.6, 0.61, 0.7, 0.71, 1.0])
    vals = np.array([1.0, 1.0, 0.2, 0.2, 0.2, 0.2, 1.4, 1.4, 0.0, 0.0])
    two = RadialFunction(RadialGrid(nodes), vals, dirichlet=True)
    assert _ps_gap(two) > 1.0


def test_polya_szego_sweep():
    rng = np.random.default_rng(41)
    for _ in range(200):
        f = step_profile(rng)
        assert _ps_gap(f) >= -1e-4


def test_lp_preservation():
    rng = np.random.default_rng(43)
    hyp = MEASURES["hyperbolic"]
    for _ in range(50):
        f = step_profile(rng)
        fs = rearrange_decreasing(f, hyp)
        for p in (1, 2, 4):
            a = mu_integral(f, hyp, p)
            b = mu_integral(fs, hyp, p)
            assert abs(a - b) < 1e-3 * max(1.0, a)


def test_idempotence():
    rng = np.random.default_rng(47)
    hyp = MEASURES["hyperbolic"]
    for _ in range(10):
        f = step_profile(rng)
        fs = rearrange_decreasing(f, hyp)
        fss = rearrange_decreasing(fs, hyp)
        rr = np.linspace(0.0, 0.97, 400)
        assert np.max(np.abs(fss(rr) - fs(rr))) < 1e-10


def test_radial_reduction_chain(grid):
    # class-V remainder: rearrangement does not decrease the exponential
    # integral and does not increase the form value
    rng = np.random.default_rng(53)
    form = PotentialRemainder(GammaPotential(0.5))
    hyp = MEASURES["hyperbolic"]
    for _ in range(15):
        f = step_profile(rng)
        fs = rearrange_decreasing(f, hyp)
        q_f = eval_Q(form, f)
        q_fs = eval_Q(form, fs)
        assert q_fs <= q_f + 1e-3 * max(1.0, abs(q_f))
        j_f = eval_J(f)
        j_fs = eval_J(fs)
        assert j_f <= j_fs + 1e-3 * max(1.0, j_f)


def test_mu_integral_hyperbolic_rim_tail():
    # dmu ~ 2 pi dr / (1 - r)^2 at the rim: int f^p dmu is finite iff
    # f(1) = 0 and p > 1.  The rim cell's tail sum is off by 3e-6 relative
    # at p = 1.5, 6e-10 at p = 2 and 1e-16 at p = 3.
    from scipy.integrate import quad

    hyp = MEASURES["hyperbolic"]
    grid = RadialGrid.default(1024)
    f = from_callable(grid, lambda r: 1.0 - r)
    for p, rel in ((1.5, 1e-5), (3.0, 1e-12)):
        want = quad(lambda r: (1.0 - r) ** p * measure_density(hyp, r),
                    0.0, 1.0, epsrel=1e-13, limit=200)[0]
        assert mu_integral(f, hyp, p) == pytest.approx(want, rel=rel)
    # Closed form: 8 pi int_0^1 r / (1 + r)^2 dr = 8 pi (log 2 - 1/2).
    assert mu_integral(f, hyp, 2.0) == pytest.approx(
        8.0 * math.pi * (math.log(2.0) - 0.5), rel=1e-8)
    assert mu_integral(f, hyp, 1.0) == math.inf
    half = RadialFunction(grid, 1.0 - 0.5 * grid.nodes, dirichlet=False)
    assert mu_integral(half, hyp, 2.0) == math.inf
