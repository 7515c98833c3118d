"""Independent oracles for the test suite.

The analytic oracles are computed without touching the package's
quadrature or solver paths: Bessel values come from the power series,
zeros from bisection on that series, exponential integrals from 1-D
Simpson quadrature after the log substitution L = log(1/r), and the disk
extremal's J* from scipy's DOP853 shooting of its Euler-Lagrange equation.

The reference loops at the end are plain copies of kernels the package
now computes with less work; the package's versions must agree with them
bit for bit, except the RK45 shooter, which the Magnus shooter must
match to within the adaptive integrator's own accuracy, the Thomas
solve, which the closed-form stiffness solve must match to roundoff,
and the broadcast distribution function, which the sorted sweep sums in
another order and must match to cells * 2^-52 relative.
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
from tmlab.groundstate import KATO_ALPHA, GroundStateResult
from tmlab.potentials import check_kato
from tmlab.probe import LambdaPEstimate, _pav_nonincreasing, estimate_lambda_1
from tmlab.radial import (RadialFunction, RadialGrid, gradient_norm_sq,
                          lp_norm)
from tmlab.rearrange import _domain_stop, distribution_function


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


def leray_sqrt_log_residual(r: np.ndarray) -> np.ndarray:
    """Pointwise defect of phi = sqrt(log 1/r) in -(1/r)(r phi')' = V phi
    for the borderline Hardy weight, from closed-form derivatives."""
    L = np.log(1.0 / r)
    lhs = 1.0 / (4.0 * r * r * L ** 1.5)
    rhs = (1.0 / (4.0 * r * r * L * L)) * np.sqrt(L)
    return lhs - rhs


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
    stop = _domain_stop(f, measure)
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
    stop = _domain_stop(f, measure)
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
    peak = float(np.max(full))
    full = full / peak
    phi = RadialFunction(grid, full, dirichlet=False)
    try:
        kato_ok = bool(check_kato(pot, KATO_ALPHA).ok)
    except SingularEvaluationError:  # V is not finite on the sampled radii
        kato_ok = False
    return GroundStateResult(pot, phi, float(full[-1]), kato_ok)


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
