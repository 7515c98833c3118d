"""Independent oracles for the test suite.

The analytic oracles are computed without touching the package's
quadrature or solver paths: Bessel values come from the power series,
zeros from bisection on that series, the stretch of V = -c from scipy's
i0e and quad, exponential integrals from 1-D Simpson quadrature after
the log substitution L = log(1/r), and the disk extremal's J* from
scipy's DOP853 shooting of its Euler-Lagrange equation.

The comparison checks in the middle are the classical facts that the
package's outputs must satisfy: the Jacobi identity of a ground state,
and equimeasurability, Hardy-Littlewood and Polya-Szego for the
rearrangement (with a seeded step-profile sampler, a rearranged
potential and mu-integrals by 4-point Gauss against the measure's
density).  They read the package's distribution function, Dirichlet
energy and form on purpose: what they compare is the package's own
discrete objects.  The Hardy-Littlewood and Polya-Szego gaps take the
rearranged profiles from the caller, so each profile is rearranged once.

The reference loops at the end are plain copies of kernels the package
now computes with less work; the package's versions must agree with them
bit for bit, except the RK45 shooter, which the Magnus shooter must
match to within the adaptive integrator's own accuracy, the cell-by-cell
shooting recurrence, which the prefix product must match to roundoff
(1e-12 relative away from lambda_1), the Thomas solve, which the
closed-form stiffness solve must match to roundoff, and the broadcast
distribution function, which the sorted sweep sums in another order and
must match to cells * 2^-52 relative.
The two-fit growth classifier is the probe verdict as it was when an
exponential fit competed with the power fit and a flat window had its
own early return; the one-fit classifier must give the same verdict on
the Moser and ground-state sweeps of the catalogue.
Both the Thomas solve and the lambda_p descent copy work on the
Dirichlet-reduced stiffness built here from the grid's cell geometry,
not on the package's tridiagonal operator.  The descent copy recomputes
the descent direction on every step, accepted or rejected.
"""

import math

import numpy as np

from tmlab import forms
from tmlab.errors import (InvalidInputError, NodalSolutionError,
                          SingularEvaluationError, StepFailureError)
from tmlab.groundstate import (GroundStateResult, _magnus_propagators,
                               _shooting_mesh)
from tmlab.potentials import TabulatedPotential
from tmlab.probe import (BOUNDED, DIVERGENT, FIT_WINDOW, INCONCLUSIVE,
                         MIN_DIVERGENT_SLOPE, MIN_GROWTH_ROWS,
                         RESIDUAL_RATIO, SLOPE_DECAY_RATIO, STRONG_SLOPE,
                         LambdaPEstimate, _pav_nonincreasing,
                         estimate_lambda_1)
from tmlab.radial import (RadialFunction, RadialGrid, exact_sum,
                          gradient_norm_sq, lp_norm, one_minus_r_sq)
from tmlab.rearrange import (MEASURES, distribution_function,
                             rearrange_decreasing)


def bessel_j0(x: float) -> float:
    """J_0 by its power series (adequate for |x| <= 12)."""
    q = -0.25 * x * x
    term = 1.0
    total = 1.0
    for m in range(1, 40):
        term *= q / (m * m)
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1.0):
            break
    return total


def j0_first_zero() -> float:
    """First positive zero of J_0 by bisection."""
    lo, hi = 2.0, 3.0
    flo = bessel_j0(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = bessel_j0(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = fm
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


LAMBDA_1 = j0_first_zero() ** 2  # first Dirichlet eigenvalue of the disk


def disk_extremal() -> tuple[float, float]:
    """(a*, J*) of the radial extremal of sup { J(u) : |grad u|_2^2 <= 1 }
    on the disk (Carleson-Chang 1986; Flucher 1992).

    The extremal solves -Delta u = mu u exp(4 pi u^2), u(1) = 0.  In
    t = log r that is v_tt = -e^(2t) v exp(4 pi v^2); shoot it with scipy's
    DOP853 from v = a, v_t = 0 to the first zero t = log R, carrying the
    energy 2 pi int v_t^2 dt and J = (2 pi / R^2) int exp(4 pi v^2) e^(2t) dt
    (both dilation invariant after u(x) = v(log(R |x|))), and find the
    root of energy(a) = 1.  The energy crosses 1 once below its peak near
    a = 1.12, inside the bracket [0.5, 1].
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    t0 = -25.0  # e^(2 t0) ~ 2e-22: the start's curvature is below rtol

    def rhs(t, y):
        g = math.exp(4.0 * math.pi * y[0] ** 2 + 2.0 * t)
        return [y[1], -g * y[0], y[1] ** 2, g]

    def hit_zero(t, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    def shoot(a):
        # J's integral over t < t0, where v = a, enters in closed form.
        y0 = [a, 0.0, 0.0, 0.5 * math.exp(4.0 * math.pi * a * a + 2.0 * t0)]
        sol = solve_ivp(rhs, (t0, 10.0), y0, method="DOP853", rtol=1e-12,
                        atol=1e-14, events=hit_zero)
        t_end, (_, _, e, j) = sol.t_events[0][0], sol.y_events[0][0]
        return 2.0 * math.pi * e, 2.0 * math.pi * j * math.exp(-2.0 * t_end)

    a = brentq(lambda a: shoot(a)[0] - 1.0, 0.5, 1.0, xtol=1e-14,
               rtol=1e-14)
    return a, float(shoot(a)[1])


def negative_constant_log_s1(c: float) -> float:
    """log s(1) of the stretch for V = -c, c > 0, in closed form.

    phi = I_0(sqrt(c) r) / I_0(sqrt(c)) (max 1, at the rim), so
    log s(1) = int_{1/e}^1 dr / (r phi(r)^2).  With a = sqrt(c) and
    i0e(x) = e^-x I_0(x), 1/phi^2 = (i0e(a) / i0e(a r))^2 e^(2 a (1 - r));
    scipy's quad integrates it with e^(2 a (1 - 1/e)) factored out, which
    stays in range for c < 3e5.
    """
    from scipy.integrate import quad
    from scipy.special import i0e

    a = math.sqrt(c)
    r0 = math.exp(-1.0)
    val, _ = quad(lambda r: (i0e(a) / i0e(a * r)) ** 2
                  * math.exp(-2.0 * a * (r - r0)) / r, r0, 1.0,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return val * math.exp(2.0 * a * (1.0 - r0))


def lane_emden_lambda_p(p: float) -> float:
    """lambda_p = inf { |grad u|_2^2 : ||u||_p = 1 } on the disk, p > 2.

    The minimizer is the positive radial solution of -Delta w = w^(p-1),
    w(1) = 0 (Gidas-Ni-Nirenberg 1979; C.-S. Lin 1994), and testing the
    equation with w gives |grad w|_2^2 = int_B w^p, so lambda_p =
    (int_B w^p)^(1 - 2/p).  Shoot v'' + v'/r = -v^(p-1) with scipy's
    DOP853 from v(0) = 1, v'(0) = 0 to the first zero R, carrying
    int v^p r dr; w(r) = R^(2/(p-2)) v(R r) then has
    int_B w^p = 2 pi R^(4/(p-2)) int_0^R v^p r dr.
    """
    from scipy.integrate import solve_ivp

    # Below r0 the series v = 1 - r^2/4 + O(r^4) is exact to rounding.
    r0 = 1e-6

    def rhs(r, y):
        v = y[0]
        return [y[1], -y[1] / r - abs(v) ** (p - 2.0) * v, abs(v) ** p * r]

    def hit_zero(r, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    y0 = [1.0 - 0.25 * r0 * r0, -0.5 * r0, 0.5 * r0 * r0]
    sol = solve_ivp(rhs, (r0, 50.0), y0, method="DOP853", rtol=1e-12,
                    atol=1e-14, events=hit_zero)
    big_r, integral = sol.t_events[0][0], sol.y_events[0][0][2]
    mass = 2.0 * math.pi * big_r ** (4.0 / (p - 2.0)) * integral
    return float(mass ** (1.0 - 2.0 / p))


def simpson(f, a: float, b: float, n: int = 20001) -> float:
    """Composite Simpson rule (n odd)."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(a, b, n)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                            + 2.0 * y[2:-1:2].sum()))


def moser_j_oracle(k: int, coeff: float, r_min: float = 1e-8) -> float:
    """J of the Moser plateau profile by 1-D quadrature in L = log(1/r).

    Plateau (r < 1/k): area times the constant exponential.  Ramp: Simpson
    in L of exp(coeff L^2 / (2 pi log k)) * exp(-2L).  The center disk
    r < r_min is excluded, matching the grid convention.
    """
    lk = math.log(k)
    plateau = math.pi * (1.0 / k**2 - r_min**2) \
        * math.exp(coeff * lk / (2.0 * math.pi))

    def integrand(L):
        return np.exp(coeff * L * L / (2.0 * math.pi * lk) - 2.0 * L)

    ramp = 2.0 * math.pi * simpson(integrand, 0.0, lk)
    return plateau + ramp


def gamma_moser_psi(g: float, k: int, r_min: float = 1e-8) -> float:
    """psi(m_k) = int_B V u^2 for the damped Leray weight gamma:g, in
    closed form in L = log(1/r).

    With V = 1 / (4 r^2 L^2 max(L^g, 1)) and 2 pi m_k^2 = min(l, L^2 / l),
    l = log k, the integral is
        [int_0^l dL / max(L^g, 1) + l^2 int_l^L0 dL / (L^2 max(L^g, 1))]
        / (4 l),
    with the center disk r < r_min (L > L0 = log(1/r_min)) excluded,
    matching the grid convention.  Needs 1 <= l <= L0.
    """
    lk, L0 = math.log(k), math.log(1.0 / r_min)
    assert 1.0 <= lk <= L0
    head = 1.0 + (math.log(lk) if g == 1.0
                  else (lk ** (1.0 - g) - 1.0) / (1.0 - g))
    tail = (lk ** (-1.0 - g) - L0 ** (-1.0 - g)) / (1.0 + g)
    return (head + lk * lk * tail) / (4.0 * lk)


def leray_sqrt_log_residual(r: np.ndarray) -> np.ndarray:
    """Pointwise defect of phi = sqrt(log 1/r) in -(1/r)(r phi')' = V phi
    for the borderline Hardy weight, from closed-form derivatives."""
    L = np.log(1.0 / r)
    lhs = 1.0 / (4.0 * r * r * L ** 1.5)
    rhs = (1.0 / (4.0 * r * r * L * L)) * np.sqrt(L)
    return lhs - rhs


# The comparison checks: the classical facts that the package's outputs
# must satisfy, read by the acceptance tests (c04, c07) and the module
# tests.  No command calls them, so they live here.

MAX_STEPS = 5  # step_profile has 1..MAX_STEPS plateau edges
STEP_SUPPORT = (0.02, 0.9)  # radii where plateau edges fall
STEP_VMAX = 2.0  # plateau levels are drawn from [0, STEP_VMAX]
STEP_RAMP = 1e-3  # width of the ramp after each plateau edge


def step_profile(rng: np.random.Generator) -> RadialFunction:
    """Random nonnegative step profile on its own compact grid.

    Plateau boundaries are drawn inside STEP_SUPPORT and connected by
    ramps of width STEP_RAMP; the profile vanishes identically beyond the
    support (so hyperbolic integrals stay finite).
    """
    lo, hi = STEP_SUPPORT
    n_steps = int(rng.integers(1, MAX_STEPS + 1))
    edges = np.sort(rng.uniform(lo, hi, n_steps))
    # Enforce a gap so ramps do not overlap.
    for i in range(1, edges.size):
        edges[i] = max(edges[i], edges[i - 1] + 3.0 * STEP_RAMP)
    edges = edges[edges < hi]
    if edges.size == 0:
        edges = np.array([0.5 * (lo + hi)])
    levels = rng.uniform(0.0, STEP_VMAX, edges.size + 1)
    levels[-1] = 0.0
    nodes = [edges[0] * 0.1]
    vals = [levels[0]]
    for e, nxt in zip(edges, levels[1:]):
        nodes.extend([e, e + STEP_RAMP])
        vals.extend([vals[-1], nxt])
    nodes.append(1.0)
    vals.append(0.0)
    return RadialFunction(RadialGrid(np.asarray(nodes)),
                          np.asarray(vals), dirichlet=True)


def jacobi_identity_residual(gs: GroundStateResult,
                             u: RadialFunction) -> float:
    """Relative defect of Q_V(u) = 2 pi int phi^2 ((u/phi)')^2 r dr.

    The right side makes the nonnegativity of Q_V manifest whenever phi is
    a positive solution for V; the residual measures how well the discrete
    quadratures reproduce that identity.
    """
    if not u.dirichlet:
        raise InvalidInputError("Jacobi identity residual needs Dirichlet u")
    if u.grid is not gs.phi.grid and not (u.grid == gs.phi.grid):
        raise InvalidInputError("u must live on the ground-state grid")
    phi = gs.phi.values
    w = u.values / phi
    slopes = np.diff(w) / u.grid.widths
    phi_mid = 0.5 * (phi[:-1] + phi[1:])
    transformed = exact_sum(phi_mid**2 * slopes**2 * u.grid.cell_areas)
    q = forms.eval_Q(forms.PotentialRemainder(gs.potential), u)
    return abs(q - transformed) / max(1.0, abs(q))


def rearranged_potential(pot, grid: RadialGrid) -> TabulatedPotential:
    """Monotone replacement for a radial potential.

    Forms g(r) = (1 - r^2)^2 * V(r), replaces g by its
    decreasing rearrangement with respect to the hyperbolic measure of the
    Poincare disk, and divides by (1 - r^2)^2.  The result is tabulated,
    passes check_class_v by construction, and is idempotent: already
    monotone g comes back unchanged up to interpolation error.
    """
    r = grid.nodes
    rr = np.minimum(r, 1.0 - 1e-14)  # g is evaluated up to r = 1
    g_vals = np.asarray(pot(rr), dtype=float) * one_minus_r_sq(rr) ** 2
    if not np.all(np.isfinite(g_vals)):
        i = int(np.argmax(~np.isfinite(g_vals)))
        raise SingularEvaluationError(r[i], g_vals[i])
    g = RadialFunction(grid, g_vals, dirichlet=False)
    g_sharp = rearrange_decreasing(g, MEASURES["hyperbolic"])
    # Tabulate on the union with the build grid: the class-V screen then
    # reads exact table values at its nodes, so monotonicity survives.
    out_r = np.union1d(g_sharp.grid.nodes, grid.nodes)
    rr_out = np.minimum(out_r, 1.0 - 1e-14)
    v_out = g_sharp(out_r) / one_minus_r_sq(rr_out) ** 2
    return TabulatedPotential(out_r, np.maximum(v_out, 0.0))


def check_equimeasurable(f: RadialFunction, g: RadialFunction, measure,
                         levels: int) -> float:
    """max over sampled levels t of |mu{f > t} - mu{g > t}|.

    Levels are strict cell midpoints of (0, max value), avoiding the exact
    jump values of either profile.
    """
    if levels < 2:
        raise InvalidInputError(f"levels must be at least 2, got {levels}")
    tmax = max(float(np.max(f.values)), float(np.max(g.values)))
    if tmax <= 0.0:
        return 0.0
    t = (np.arange(levels) + 0.5) / levels * tmax
    lf = distribution_function(f, measure, t, strict=True)
    lg = distribution_function(g, measure, t, strict=True)
    return float(np.max(np.abs(lf - lg)))


def measure_density(measure, r):
    """dM/dr of the rearrangement measure."""
    r = np.asarray(r, dtype=float)
    if measure.name == "hyperbolic":
        q = one_minus_r_sq(r)
        return 8.0 * math.pi * r / (q * q)
    return 2.0 * math.pi * r


_GL4_X = np.array([-0.8611363115940526, -0.3399810435848563,
                   0.3399810435848563, 0.8611363115940526])
_GL4_W = np.array([0.34785484513745385, 0.6521451548625461,
                   0.6521451548625461, 0.34785484513745385])
_MU_MAX_WIDTH = 0.005  # widest cell _mu_quadrature integrates unsplit


def _mu_quadrature(F, nodes: np.ndarray, measure) -> float:
    """int F dmu over the cells of `nodes` by 4-point Gauss per cell.

    Cells wider than _MU_MAX_WIDTH are subdivided first so the density's
    curvature cannot leak into the result; the rule is then effectively
    exact for piecewise-polynomial F (products and small powers of
    piecewise-linear profiles).  The center cap, where F is constant,
    uses the exact cap measure.
    """
    refined = [nodes]
    wide = np.diff(nodes) > _MU_MAX_WIDTH
    for i in np.nonzero(wide)[0]:
        m = int(math.ceil((nodes[i + 1] - nodes[i]) / _MU_MAX_WIDTH))
        refined.append(np.linspace(nodes[i], nodes[i + 1], m + 1)[1:-1])
    pts = np.unique(np.concatenate(refined))
    a, b = pts[:-1], pts[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    for x, w in zip(_GL4_X, _GL4_W):
        r = mid + x * half
        total += w * exact_sum(np.asarray(F(r), dtype=float)
                               * measure_density(measure, r) * half)
    return total + float(F(np.asarray([pts[0]]))[0]) * measure.M(pts[0])


def mu_integral(f: RadialFunction, measure, power: float) -> float:
    """int f^power dmu (Gauss per cell against the measure density).

    Hyperbolic measure: the integral runs over [0, nodes[-2]], plus a
    tail estimate of the rim cell where f is nonzero at nodes[-2].  The
    true integral diverges unless f(1) = 0 and power > 1, and math.inf
    is returned in that case.
    """
    nodes = f.grid.nodes
    stop = len(nodes) - 1 - measure.truncated
    total = _mu_quadrature(lambda r: f(r) ** power, nodes[:stop + 1], measure)
    if measure.truncated and f.values[stop] > 0:
        # The density grows like 2 pi / (1 - r)^2 at the rim, so the
        # integral is finite iff f vanishes at r = 1 and power > 1.
        if power <= 1.0 or f.values[-1] != 0:
            return math.inf
        # Tail estimate on the dropped rim cell, f linear to f(1).
        xs = np.geomspace(1e-16, 1.0 - nodes[stop], 64)
        rr = 1.0 - xs
        ft = np.interp(rr, nodes, f.values)
        total += exact_sum(np.diff(measure.M(rr[::-1])) *
                           0.5 * (ft[::-1][:-1]**power + ft[::-1][1:]**power))
    return total


def mu_product_integral(f: RadialFunction, g: RadialFunction,
                        measure) -> float:
    """int f g dmu on the union of the two grids (truncated hyperbolic)."""
    nodes = np.unique(np.concatenate([f.grid.nodes, g.grid.nodes]))
    if measure.truncated:
        nodes = nodes[nodes <= max(f.grid.nodes[-2], g.grid.nodes[-2])]
    return _mu_quadrature(lambda r: f(r) * g(r), nodes, measure)


def hardy_littlewood_gap(f: RadialFunction, fs: RadialFunction,
                         g: RadialFunction, gs: RadialFunction,
                         measure) -> float:
    """int f# g# dmu - int f g dmu (nonnegative up to grid error), with
    fs, gs the rearrangements of f, g under `measure`."""
    return mu_product_integral(fs, gs, measure) - \
        mu_product_integral(f, g, measure)


def polya_szego_gap(f: RadialFunction, fs: RadialFunction) -> float:
    """Dirichlet energy drop from f to its hyperbolic rearrangement fs
    (>= 0 up to grid error)."""
    return gradient_norm_sq(f) - gradient_norm_sq(fs)


def pav_nonincreasing_stack(y: np.ndarray) -> np.ndarray:
    """Plain stack pool-adjacent-violators onto nonincreasing sequences,
    one element per loop turn, on the reversed (nondecreasing) problem.

    The package's projection batches this loop's bookkeeping but keeps its
    merge order and arithmetic, so the two must agree bit for bit.
    """
    z = y[::-1].copy()
    level = z.copy()
    weight = np.ones_like(z)
    j = 0
    idx = np.zeros(z.size, dtype=int)
    for i in range(1, z.size):
        j += 1
        level[j] = z[i]
        weight[j] = 1.0
        idx[j] = i
        while j > 0 and level[j - 1] > level[j]:
            tot = weight[j - 1] + weight[j]
            level[j - 1] = (weight[j - 1] * level[j - 1]
                            + weight[j] * level[j]) / tot
            weight[j - 1] = tot
            j -= 1
    out = np.empty_like(z)
    start = 0
    for b in range(j + 1):
        end = idx[b + 1] if b < j else z.size
        out[start:end] = level[b]
        start = end
    return out[::-1]


def distribution_function_broadcast(f, measure, levels, strict=True):
    """mu{f > t} (strict) or mu{f >= t} for each level t, with the
    crossing radius and M evaluated on every (level, cell) pair of each
    256-level chunk."""
    if np.any(f.values < 0):
        raise InvalidInputError("rearrangement input must be nonnegative")
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    nodes = f.grid.nodes
    vals = f.values
    stop = len(f.grid) - 1 - measure.truncated
    a, b = nodes[:stop], nodes[1:stop + 1]
    fa, fb = vals[:stop], vals[1:stop + 1]
    Ma, Mb = measure.M(a), measure.M(b)
    dM = Mb - Ma
    lo = np.minimum(fa, fb)
    hi = np.maximum(fa, fb)
    const = fa == fb
    decreasing = fa > fb
    cap = measure.M(nodes[0])  # center disk, constant value vals[0]

    out = np.empty(levels.size)
    for start in range(0, levels.size, 256):
        t = levels[start:start + 256][:, None]
        # Sloped cells: full below lo, empty above hi, else split at the
        # linear crossing radius.
        with np.errstate(divide="ignore", invalid="ignore"):
            r_cross = a + (b - a) * (fa - t) / (fa - fb)
        r_cross = np.clip(r_cross, a, b)
        M_cross = measure.M(r_cross)
        part = np.where(decreasing, M_cross - Ma, Mb - M_cross)
        full = (t < lo) if strict else (t <= lo)
        inside = (t < hi) & ~full
        sloped = np.where(full, dM, np.where(inside, part, 0.0))
        # Constant cells contribute all or nothing.
        if strict:
            sloped = np.where(const, np.where(fa > t, dM, 0.0), sloped)
            cap_part = np.where(vals[0] > t[:, 0], cap, 0.0)
        else:
            sloped = np.where(const, np.where(fa >= t, dM, 0.0), sloped)
            cap_part = np.where(vals[0] >= t[:, 0], cap, 0.0)
        out[start:start + 256] = sloped.sum(axis=1) + cap_part
    return out


def rearrange_decreasing_loop(f, measure, levels=2048):
    """rearrange_decreasing with one non-strict distribution_function
    call per plateau level and a Python loop keeping each point whose
    radius exceeds the last kept one (a radius within 4 ulps of 1 is
    the rim, 1.0)."""
    vmin = float(np.min(f.values))
    vmax = float(np.max(f.values))
    if vmax == vmin:
        return RadialFunction(f.grid, f.values.copy(),
                              dirichlet=(vmax == 0.0))
    sample = np.unique(np.concatenate([np.linspace(vmin, vmax, levels),
                                       f.values]))[::-1]
    stop = len(f.grid) - 1 - measure.truncated
    fa, fb = f.values[:stop], f.values[1:stop + 1]
    plateau_vals = set(np.unique(fa[fa == fb]).tolist())
    plateau_vals.add(float(f.values[0]))
    rho_strict = measure.M_inv(
        distribution_function(f, measure, sample, strict=True))
    gap = np.diff(rho_strict)
    wide = np.flatnonzero((gap > 1.0 / levels)
                          & ~np.isin(sample[:-1], list(plateau_vals)))
    if wide.size:
        extra = np.concatenate([np.linspace(sample[j], sample[j + 1],
                                            int(gap[j] * levels) + 2)[1:-1]
                                for j in wide])
        rho_extra = distribution_function(f, measure, extra, strict=True)
        order = np.argsort(np.concatenate([sample, extra]))[::-1]
        sample = np.concatenate([sample, extra])[order]
        rho_strict = np.concatenate(
            [rho_strict, measure.M_inv(rho_extra)])[order]

    rho_pts, val_pts = [], []
    last_rho = 0.0
    for t, rs in zip(sample, rho_strict):
        pair = [(float(rs), float(t))]
        if t in plateau_vals:
            lam_ge = distribution_function(f, measure, [t], strict=False)[0]
            pair.append((float(measure.M_inv(lam_ge)), float(t)))
        for rho, v in pair:
            if rho > 1.0 - 4.0 * np.finfo(float).epsneg:
                rho = 1.0
            if rho > last_rho:
                rho_pts.append(rho)
                val_pts.append(v)
                last_rho = rho
    if not rho_pts:
        return RadialFunction(f.grid, np.full(len(f.grid), vmax),
                              dirichlet=(vmax == 0.0))
    if rho_pts[-1] < 1.0:
        rho_pts.append(1.0)
        val_pts.append(vmin)
    else:
        val_pts[-1] = vmin
    return RadialFunction(RadialGrid(np.asarray(rho_pts)),
                          np.asarray(val_pts), dirichlet=(vmin == 0.0))


def luxemburg_norm_bisection(u, rel_tol=1e-10):
    """Gauge norm by plain bisection, one orlicz_integral per step."""
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        return 0.0
    lo = 1e-12
    hi = max(1.0, 10.0 * peak)
    while forms.orlicz_integral(u, hi) > 1.0:
        hi *= 4.0
        if hi > 1e30:
            raise InvalidInputError("Luxemburg bracket expansion failed")
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if forms.orlicz_integral(u, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def shoot_rk45(pot, grid, rtol=1e-10, atol=1e-12):
    """The adaptive RK45 shooter that the Magnus propagator replaced:
    scipy's solve_ivp in t = log r with a zero-crossing event, one
    Python right-hand-side call (and one potential evaluation) per stage.
    """
    from scipy.integrate import solve_ivp

    nodes = grid.nodes
    # The last node is r = 1 where catalogue potentials may blow up;
    # integrate to the last interior node and extrapolate the final cell.
    t_eval = np.log(nodes[:-1])
    t0, t_end = t_eval[0], t_eval[-1]

    def rhs(t, y):
        r = math.exp(t)
        v = float(pot(np.asarray([r]))[0])
        return [y[1], -r * r * v * y[0]]

    def hit_zero(t, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    sol = solve_ivp(rhs, (t0, t_end), [1.0, 0.0], t_eval=t_eval,
                    rtol=rtol, atol=atol, method="RK45",
                    events=hit_zero, dense_output=False)
    if sol.status == 1:  # zero crossing event
        raise NodalSolutionError(math.exp(float(sol.t_events[0][0])))
    if sol.status != 0:
        raise StepFailureError(sol.message)

    phi_vals = sol.y[0]
    q_vals = sol.y[1]
    # Final cell [nodes[-2], 1]: linear continuation in t.
    dt_last = 0.0 - t_end
    phi_end = phi_vals[-1] + q_vals[-1] * dt_last
    full = np.concatenate([phi_vals, [phi_end]])
    if np.any(full[:-1] <= 0.0):
        i = int(np.argmax(full[:-1] <= 0.0))
        raise NodalSolutionError(nodes[i])
    return RadialFunction(grid, full / np.max(full), dirichlet=False)


def shoot_recurrence(pot, grid):
    """The cell-by-cell shooter that the prefix product replaced: (phi, q)
    carried through the Magnus cell propagators by a Python loop over
    the mesh, stopping at the first nonpositive phi."""
    t_nodes = np.log(grid.nodes[:-1])
    mesh = _shooting_mesh(pot, t_nodes)
    entries = _magnus_propagators(pot, mesh)
    finite = np.isfinite(entries).all(axis=0)
    n_ok = finite.size if finite.all() else int(np.argmin(finite))
    m00, m01, m10, m11 = (e[:n_ok].tolist() for e in entries)
    phi, q = 1.0, 0.0
    phis = [phi]
    for i in range(n_ok):
        prev = phi
        phi, q = m00[i] * phi + m01[i] * q, m10[i] * phi + m11[i] * q
        if phi <= 0.0:
            t_zero = mesh[i] + (mesh[i + 1] - mesh[i]) * prev / (prev - phi)
            raise NodalSolutionError(math.exp(t_zero))
        phis.append(phi)
    if n_ok < finite.size:
        raise StepFailureError(
            f"non-finite propagator on the cell at r = "
            f"{math.exp(mesh[n_ok]):.6g}")

    phi_vals = np.asarray(phis)[np.searchsorted(mesh, t_nodes)]
    # Final cell [nodes[-2], 1]: linear continuation in t.
    phi_end = phi_vals[-1] + q * (0.0 - t_nodes[-1])
    full = np.concatenate([phi_vals, [phi_end]])
    return RadialFunction(grid, full / np.max(full), dirichlet=False)


def reduced_stiffness(grid):
    """(diag, off) of the stiffness on the interior nodes, the Dirichlet
    row and column dropped: cell i couples nodes i and i + 1 with
    coefficient area_i / width_i^2 (the energy sum ke (u_i - u_{i+1})^2)."""
    ke = grid.cell_areas / (grid.widths * grid.widths)
    diag = ke.copy()
    diag[1:] += ke[:-1]
    return diag, -ke[:-1]


def tridiag_product(diag, off, x):
    """(diag, off) x for a symmetric tridiagonal matrix."""
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def thomas_solve(diag, off, b):
    """Solve the symmetric tridiagonal system (diag, off) x = b by the
    Thomas algorithm: elimination, then forward and back sweeps."""
    c = off.tolist()
    d = diag.tolist()
    m = [0.0] * len(d)
    for i in range(1, len(d)):
        m[i] = c[i - 1] / d[i - 1]
        d[i] -= m[i] * c[i - 1]
    x = b.tolist()
    prev = x[0]
    for i in range(1, len(x)):
        prev = x[i] = x[i] - m[i] * prev
    prev = x[-1] = prev / d[-1]
    for i in range(len(x) - 2, -1, -1):
        prev = x[i] = (x[i] - c[i] * prev) / d[i]
    return np.array(x)


def estimate_lambda_p_descent(p, grid, seed=0, n_starts=32, iterations=120):
    """The lambda_p multistart descent as it was before it reused the
    descent direction across rejected steps: g and its norm are formed
    afresh at every step."""
    rng = np.random.default_rng(seed)
    ad, ao = reduced_stiffness(grid)

    def normalized(vals):
        v = _pav_nonincreasing(np.maximum(vals, 0.0))
        v[-1] = 0.0
        u = RadialFunction(grid, v, dirichlet=True)
        nrm = lp_norm(u, p)
        if nrm == 0.0:
            return None
        return u.scaled(1.0 / nrm)

    r = grid.nodes
    starts = [1.0 - r * r]
    _, eig = estimate_lambda_1(grid)
    starts.append(eig.values.copy())
    for _ in range(max(n_starts - 2, 0)):
        c = rng.uniform(0.0, 0.5)
        width = rng.uniform(0.1, 0.8)
        starts.append(np.exp(-((r - c) / width) ** 2) * (1.0 - r))

    minima = []
    best = (math.inf, None)
    for s0 in starts:
        u = normalized(s0)
        if u is None:
            continue
        e = gradient_norm_sq(u)
        step = 0.1
        for _ in range(iterations):
            g = 2.0 * tridiag_product(ad, ao, u.values[:-1])
            g = np.concatenate([g, [0.0]])
            cand = normalized(u.values - step * g / max(np.linalg.norm(g), 1e-300))
            if cand is None:
                break
            ec = gradient_norm_sq(cand)
            if ec < e:
                u, e = cand, ec
                step = min(step * 1.5, 1.0)
            else:
                step *= 0.5
                if step < 1e-10:
                    break
        minima.append(e)
        if e < best[0]:
            best = (e, u)
    vals = np.asarray(minima)
    return LambdaPEstimate(best[0], float(np.max(vals) - np.min(vals)),
                           best[1], minima)


def classify_growth_two_fits(ks, js) -> tuple[str, str, tuple, float]:
    """(verdict, model, params, residual) from the J sweep.

    Overflow anywhere (eval_J's inf) is divergence evidence.  Otherwise
    the sweep is judged on the window of trailing rows: increments must be
    monotone and the local log-log slope d log J / d log k must be
    sustained (power-law or faster) for Divergent; a collapsing slope
    means the sweep is saturating and reads Bounded.
    """
    ks = np.asarray(ks, dtype=float)
    js = np.asarray(js, dtype=float)
    if np.isinf(js).any():
        return DIVERGENT, "overflow", (), 0.0
    if ks.size < MIN_GROWTH_ROWS:
        return INCONCLUSIVE, "short", (), math.nan
    w = min(FIT_WINDOW, ks.size)
    kw, jw = ks[-w:], js[-w:]
    inc = np.diff(jw)
    rel = np.abs(inc) / np.maximum(1.0, np.abs(jw[:-1]))
    if np.all(rel < 1e-9):
        return BOUNDED, "flat", (float(np.mean(jw)),), 0.0
    slopes = (np.diff(np.log(np.maximum(jw, 1e-300)))
              / np.diff(np.log(kw))).tolist()

    # Least-squares fits over the window, residuals in J units.  A sweep
    # that reaches J ~ 1e160 squares to inf: an infinite residual is a
    # legitimate value (the comparisons below order it correctly), not a
    # numerical fault, so the overflow is not reported.
    lk, lj = np.log(kw), np.log(np.maximum(jw, 1e-300))
    b_pow, a_pow = np.polyfit(lk, lj, 1)
    c_exp, a_exp = np.polyfit(kw, lj, 1)
    with np.errstate(over="ignore"):
        const_resid = float(np.sqrt(np.mean((jw - np.mean(jw)) ** 2)))
        pow_resid = float(np.sqrt(np.mean(
            (jw - np.exp(a_pow + b_pow * lk)) ** 2)))
        exp_resid = float(np.sqrt(np.mean(
            (jw - np.exp(a_exp + c_exp * kw)) ** 2)))
    if exp_resid < pow_resid:
        model, params, residual = (
            "exponential", (math.exp(a_exp), float(c_exp)), exp_resid)
    else:
        model, params, residual = (
            "power", (math.exp(a_pow), float(b_pow)), pow_resid)

    grow_window = min(MIN_GROWTH_ROWS, len(inc))
    monotone_growth = bool(np.all(inc[-grow_window:] > 0))
    strong = min(slopes[-3:]) > STRONG_SLOPE
    sustained = (slopes[-1] > MIN_DIVERGENT_SLOPE
                 and slopes[-1] > SLOPE_DECAY_RATIO * slopes[0])
    best_wins = residual < RESIDUAL_RATIO * max(const_resid, 1e-300)
    if monotone_growth and (strong or (sustained and best_wins)):
        return DIVERGENT, model, params, residual
    if not (monotone_growth and sustained):
        return BOUNDED, model, params, residual
    return INCONCLUSIVE, model, params, residual


# The quadrature kernels as they were before they built their terms in
# place, with math.fsum for exact_sum (equal to it bit for bit).

def samples_concat(u):
    v = u.values
    return np.concatenate([v[:1], 0.5 * (v[:-1] + v[1:])])


def derivative_diff(u):
    return np.diff(u.values) / u.grid.widths


def gradient_norm_sq_expr(u):
    s = derivative_diff(u)
    return math.fsum(s * s * u.grid.cell_areas)


def integral_weighted_expr(u, ws):
    s = samples_concat(u)
    return math.fsum(ws * s * s * u.grid.cap_areas)


def eval_J_expr(u, coeff=forms.FOUR_PI):
    s = samples_concat(u)
    expo = coeff * s * s
    if np.max(expo) > forms.EXP_OVERFLOW:
        return math.inf
    return math.fsum(np.exp(expo) * u.grid.cap_areas)


def orlicz_integral_expr(u, t):
    s = samples_concat(u) / t
    expo = forms.FOUR_PI * s * s
    if np.max(expo) > forms.EXP_OVERFLOW:
        return math.inf
    return math.fsum(np.expm1(expo) * u.grid.cap_areas)


def lp_norm_expr(u, p):
    terms = samples_concat(u)
    np.abs(terms, out=terms)
    with np.errstate(over="ignore"):
        np.power(terms, p, out=terms)
        terms *= u.grid.cap_areas
    total = math.fsum(terms)
    if not total < math.inf or (total == 0.0 and u.values.any()):
        raise FloatingPointError(f"||u||_{p:g}")
    return total ** (1.0 / p)


def j_gradient_expr(u):
    """F'(u_s) of the maximizer's J-gradient, F(s) = exp(4 pi s^2)."""
    s = samples_concat(u)
    return np.exp(forms.FOUR_PI * s * s) * 2.0 * forms.FOUR_PI * s
