"""Trial families and constrained probing of the exponential supremum.

The quantity of interest is

    S = sup { J(u) : Q(u) <= 1 },    J(u) = int_B exp(4 pi u^2) dx,

which is either finite or +infinity.  This module supplies the standard
families of trial profiles, sweeps them to collect evidence, and reads
the growth of J along the sweep from its local slopes to emit a
Bounded / Divergent / Inconclusive verdict:

  * Moser plateau functions m_k, energy-normalized log profiles that
    concentrate at the origin as k grows (the classical extremizing
    family for the 4 pi exponent);
  * the continuous logarithmic cutoffs
        w_k(s) = clip( (2 log k - log s) / log k, 0, 1 )
    in the stretched coordinate s(r) of a ground-state analysis, composed
    back as u_k = phi * w_k(s(r)) (the family that exhibits divergence
    when the stretch is infinite; its planar energy is 2 pi / log k);
  * an energy-gradient ascent over nonincreasing Dirichlet profiles
    (reported strictly as a lower bound for S).

A verdict's ProbeReport names the reading rule that fired, one of
"nodal", "indefinite-direction", "finite-stretch", "overflow", "short"
and "growth-fit" (classify_growth), with the numbers that rule read.

Also here: Rayleigh-quotient estimators for the first Dirichlet
eigenvalue lambda_1 (inverse-power iteration, second-order accurate) and
for the L^p Sobolev constant lambda_p = inf { |grad u|_2^2 : ||u||_p = 1 }
(projected descent with seeded multistarts; an estimate, as its midpoint
||u||_p is not one-sided: 0.8-2.9% above Lane-Emden at n = 512).  They
and the maximizer use the tridiagonal operator of radial (stiffness, the
mass of the cap-and-midpoint sampling, its transpose for the J-gradient,
closed-form stiffness solve); none is built here.

The verdict thresholds, the k-ladder and the search sizes are module
constants; only what a command sets is a parameter.  Only
estimate_lambda_p draws random numbers, from the seed its caller passes
(`lambda --seed`); the maximizer's starts are fixed.  Per-parameter rows
are independent and assembled in deterministic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .forms import FOUR_PI, Remainder, eval_J, eval_Q
from .groundstate import GroundStateResult
from .radial import (RadialFunction, RadialGrid, cell_stiffness, energy_solve,
                     gradient_norm_sq, log_inv, lp_norm, mass, tridiag_apply,
                     tridiagonal, value_gradient)

BOUNDED = "Bounded"
DIVERGENT = "Divergent"
INCONCLUSIVE = "Inconclusive"


# Verdict thresholds: classify_growth's, then the maximizer's.
FIT_WINDOW = 8  # trailing rows the verdict is judged on
# Divergent needs monotone growth and a clearly sustained log-log
# slope; saturating sweeps show the slope collapsing instead.
MIN_DIVERGENT_SLOPE = 0.05
SLOPE_DECAY_RATIO = 0.75
# A log-log slope persistently above this is power growth regardless
# of a mildly drifting rate.
STRONG_SLOPE = 0.3
# A sweep of fewer rows reads Inconclusive: it has too few slopes to tell
# growth from saturation.  Divergent also needs the window's last
# MIN_GROWTH_ROWS increments positive (all four of a five-row sweep).
MIN_GROWTH_ROWS = 5
# A constrained value this far above the classical disk supremum
# (finite at the 4 pi exponent, and above pi (1 + e) ~ 11.68 by
# Carleson-Chang) counts as divergence evidence.
DIVERGENCE_J_THRESHOLD = 1e6

# k = 2^1 .. 2^14 for both trial families; probe --kmax-pow sets 2^1 .. 2^kmax.
K_LADDER = tuple(2 ** m for m in range(1, 15))
# Search sizes: the maximizer's ascent steps (shared by its seven starts);
# estimate_lambda_p's starts and steps per start (its value ends 0.8-2.9%
# above Lane-Emden's for p = 3, 4, 6).
MAXIMIZE_BUDGET = 400
LAMBDA_P_STARTS = 32
LAMBDA_P_STEPS = 120


# ---------------------------------------------------------------------------
# trial families
# ---------------------------------------------------------------------------

def moser_function(grid: RadialGrid, k: int) -> RadialFunction:
    """Energy-normalized plateau profile:

        m_k(r) = (2 pi)^(-1/2) * min( sqrt(log k), log(1/r)/sqrt(log k) ).

    gradient_norm_sq(m_k) = 1 in the continuum; the sampled profile
    reproduces it to a few parts in 1e4 on the default grid.  k runs
    from 2 to 1/nodes[0] (1e8 on the default grid): beyond that the
    plateau r < 1/k lies inside the centre cap, and the sampled profile
    is a truncated log, not m_k.
    """
    k_max = 1.0 / float(grid.nodes[0])
    if not 2 <= k <= k_max:
        raise InvalidInputError(
            f"Moser profile needs 2 <= k <= 1/nodes[0] = {k_max:g}: a larger "
            f"k puts its plateau inside the grid's centre cap")
    lk = math.log(k)
    r = grid.nodes
    vals = np.minimum(math.sqrt(lk),
                      log_inv(r) / math.sqrt(lk)) / math.sqrt(2.0 * math.pi)
    vals[-1] = 0.0
    return RadialFunction(grid, vals, dirichlet=True)


@dataclass
class TrialFamily:
    name: str
    params: list
    make: object  # k -> RadialFunction
    # The ladder stops at a finite stretch s(1): the family is finite, so
    # its growth says nothing about k -> infinity.
    finite_stretch: bool = False


def moser_family(grid: RadialGrid, ks=K_LADDER) -> TrialFamily:
    return TrialFamily("moser", list(ks),
                       lambda k: moser_function(grid, int(k)))


def ground_state_family(gs: GroundStateResult, ks=K_LADDER) -> TrialFamily:
    """u_k = phi * w_k(s(r)) on the ground-state grid, for each k of `ks`
    whose ramp end k^2 lies within the stretch (possibly none, when s(1)
    is finite): 2 log k <= log s at the last interior node, or at r = 1
    for a finite stretch.
    """
    log_s_end = gs.log_s[-2] if gs.s_divergent else gs.log_s_at_1
    ks = [k for k in ks if 2.0 * math.log(k) <= log_s_end]
    grid = gs.phi.grid
    phi = gs.phi.values

    def make(k):
        # w_k = 1 up to s = k, linear in log s down to 0 at s = k^2.
        lk = math.log(k)
        vals = phi * np.clip((2.0 * lk - gs.log_s) / lk, 0.0, 1.0)
        vals[-1] = 0.0
        return RadialFunction(grid, vals, dirichlet=True)

    return TrialFamily("gsapprox", ks, make,
                       finite_stretch=not gs.s_divergent)


# ---------------------------------------------------------------------------
# growth classification
# ---------------------------------------------------------------------------

def classify_growth(ks, js) -> tuple[str, str, dict]:
    """(verdict, rule, evidence) from the J sweep, by the first reading
    rule that fires; the first is cmd_probe's, the next two
    probe_supremum's:

      1. a gsapprox family on an Indefinite potential: Divergent
         ("nodal"), its evidence the shot's `detail`;
      2. a profile with Q <= 0: Divergent ("indefinite-direction");
      3. a family on a finite stretch: Inconclusive ("finite-stretch");
      4. any J overflow (eval_J's inf): Divergent ("overflow");
      5. fewer than MIN_GROWTH_ROWS rows: Inconclusive ("short");
      6. over the last FIT_WINDOW rows, with the last MIN_GROWTH_ROWS
         increments positive (`monotone`), Divergent ("growth-fit") when
         the last three local slopes d log J / d log k exceed
         STRONG_SLOPE (`strong`), or when the last slope is sustained
         (above MIN_DIVERGENT_SLOPE and SLOPE_DECAY_RATIO times the
         window's first: `sustained`); anything else, growth that is
         not monotone or a slope that collapses (the sweep saturates),
         Bounded ("growth-fit").

    Only "growth-fit" has evidence here: the window's `slopes` and the
    three tests above.  The other rules' rows show what decided them.
    """
    ks = np.asarray(ks, dtype=float)
    js = np.asarray(js, dtype=float)
    if np.isinf(js).any():
        return DIVERGENT, "overflow", {}
    if ks.size < MIN_GROWTH_ROWS:
        return INCONCLUSIVE, "short", {}
    w = min(FIT_WINDOW, ks.size)
    jw = js[-w:]
    slopes = (np.diff(np.log(np.maximum(jw, 1e-300)))
              / np.diff(np.log(ks[-w:]))).tolist()
    inc = np.diff(jw)
    grow_window = min(MIN_GROWTH_ROWS, len(inc))
    monotone = bool(np.all(inc[-grow_window:] > 0))
    strong = min(slopes[-3:]) > STRONG_SLOPE
    sustained = (slopes[-1] > MIN_DIVERGENT_SLOPE
                 and slopes[-1] > SLOPE_DECAY_RATIO * slopes[0])
    evidence = {"slopes": slopes, "monotone": monotone, "strong": strong,
                "sustained": sustained}
    if monotone and (strong or sustained):
        return DIVERGENT, "growth-fit", evidence
    return BOUNDED, "growth-fit", evidence


# ---------------------------------------------------------------------------
# probe report
# ---------------------------------------------------------------------------

@dataclass
class ProbeRow:
    k: float
    Q: float
    J: float


@dataclass
class ProbeReport:
    family: str
    form: str
    rows: list
    verdict: str
    rule: str
    evidence: dict


def _on_constraint(form: Remainder, u: RadialFunction, coeff: float
                   ) -> tuple[float, float, RadialFunction]:
    """(Q(u), J of u scaled onto Q = 1 with exponent coefficient `coeff`,
    the scaled u).  The scaling is exact because every remainder here is
    quadratically homogeneous, and J is monotone in |u|, so no profile
    below the boundary Q = 1 scores higher.  A u with Q <= 0 returns
    J = inf and u unscaled: the divergence witness, as J of its large
    multiples blows up.
    """
    q = eval_Q(form, u)
    if q <= 0.0:
        return q, math.inf, u
    u = u.scaled(1.0 / math.sqrt(q))
    return q, eval_J(u, coeff), u


def probe_supremum(form: Remainder, family: TrialFamily,
                   coeff: float = FOUR_PI) -> ProbeReport:
    """Sweep the family, record each profile's Q and its J on Q = 1 with
    exponent coefficient `coeff` (`_on_constraint`).

    A profile with Q <= 0 is immediate divergence evidence (J of its
    large multiples blows up), reported without further fitting.  A
    family on a finite stretch reads Inconclusive: each J is still a
    lower bound for S, but a finite family shows no growth.  Q is eval_Q
    of each profile, so the lower bound holds up to the midpoint
    quadrature of J, which is not one-sided (ROADMAP item 7).  The
    profiles share one grid, so a potential form samples V once per sweep.
    """
    rows: list[ProbeRow] = []
    for k in family.params:
        q, j, _ = _on_constraint(form, family.make(k), coeff)
        rows.append(ProbeRow(float(k), q, j))
        if q <= 0.0:
            return ProbeReport(family.name, form.spec_string(), rows,
                               DIVERGENT, "indefinite-direction", {})
    if family.finite_stretch:
        reading = INCONCLUSIVE, "finite-stretch", {}
    else:
        reading = classify_growth([r.k for r in rows], [r.J for r in rows])
    return ProbeReport(family.name, form.spec_string(), rows, *reading)


# ---------------------------------------------------------------------------
# constrained maximization (lower bound for S)
# ---------------------------------------------------------------------------

@dataclass
class MaximizeResult:
    best_j: float  # above DIVERGENCE_J_THRESHOLD: divergence evidence
    profile: RadialFunction
    iterations: int
    accepted: int = 0  # ascent steps that raised J


def maximize_J_constrained(form: Remainder, grid: RadialGrid
                           ) -> MaximizeResult:
    """Projected gradient ascent of J (exponent 4 pi) over { Q <= 1 }
    intersected with nonnegative nonincreasing Dirichlet profiles.

    The direction is the energy gradient: the nodal gradient g of J
    solved against the Dirichlet stiffness (A w = g, by radial.energy_solve)
    and normalized in the energy norm sqrt(w^T A w); it depends on u
    alone, so rejected steps reuse it.  On the doubly graded grid the
    Euclidean gradient is dominated by the tiny cells; the energy
    gradient weighs cells by the form's own metric.  Every
    start is nonnegative and nonincreasing, and since g >= 0 on that
    cone, so is w and every candidate u + s w: the cone is invariant, so
    no monotone projection is needed.

    Starts and candidates are valued alike, by `_on_constraint`: J on
    Q = 1, or J = inf for a Q <= 0 witness.  The returned value is a
    lower bound for the supremum, never the supremum itself.  The starts
    are fixed, so the search draws no random numbers.

    Stop rule: a start's ascent stops once its J exceeds
    DIVERGENCE_J_THRESHOLD (inf included), and the search stops after
    that start, its best_j the divergence evidence.  J <= 1e6 before
    every gradient bounds area * exp(4 pi u^2) by 1e6 on each cell, so
    the gradient stays finite.
    """
    # Seed with the three best plateau profiles of a quick family sweep
    # (ties to the larger k), so the ascent dominates the best Moser value.
    starts = [(j, u) for _, j, u, _ in sorted(
        (_on_constraint(form, moser_function(grid, k), FOUR_PI) + (k,)
         for k in K_LADDER[:8]),
        key=lambda s: (s[1], s[3]), reverse=True)[:3]]
    r = grid.nodes
    # Then the log spike, the shape that witnesses divergence for
    # borderline Hardy-type remainders, and three Gaussian bumps
    # amp exp(-(r/width)^2) at fixed (width, amp) in [0.05, 0.5] x [0.2, 1.5].
    for vals in [np.sqrt(log_inv(r))] + [
            amp * np.exp(-(r / width) ** 2) for width, amp in (
                (0.3366327592946544, 0.5507227278930314),
                (0.06843808577128761, 0.22148592618708784),
                (0.4159716076401226, 1.3865822504610383))]:
        vals[-1] = 0.0
        starts.append(
            _on_constraint(form, RadialFunction(grid, vals), FOUR_PI)[1:])

    best_j, best_u = -math.inf, starts[0][1]
    iters_used = accepted = 0
    per_start = MAXIMIZE_BUDGET // len(starts)
    ke = cell_stiffness(grid)
    for j, u in starts:
        step, w = 0.05, None
        for _ in range(per_start):
            if j > DIVERGENCE_J_THRESHOLD:
                break
            iters_used += 1
            if w is None:  # a rejected step keeps u, so w stands
                s = u.samples()
                df = FOUR_PI * s  # exp(4 pi s^2) 2 (4 pi) s, in place
                df *= s
                np.exp(df, out=df)
                df *= 2.0
                df *= FOUR_PI
                df *= s
                w, energy = energy_solve(ke, value_gradient(u, df))
            _, jc, cand = _on_constraint(form, RadialFunction(
                grid, u.values + (step / math.sqrt(energy)) * w), FOUR_PI)
            if jc > j:
                u, j, w = cand, jc, None
                accepted += 1
                step = min(step * 2.0, 1.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        if j > best_j:
            best_j, best_u = j, u
        if best_j > DIVERGENCE_J_THRESHOLD:
            break
    return MaximizeResult(best_j, best_u, iters_used, accepted)


# ---------------------------------------------------------------------------
# Rayleigh-quotient estimators
# ---------------------------------------------------------------------------

# Inverse-power steps for lambda_1.  The relative stopping test ends
# the loop after 10-23 steps on the default grids n = 256 .. 16384, well
# within the cap; each step costs about 0.1 ms at n = 4096.
LAMBDA_1_STEPS = 60
LAMBDA_1_TOL = 1e-14


def estimate_lambda_1(grid: RadialGrid) -> tuple[float, RadialFunction]:
    """First Dirichlet eigenvalue of the disk Laplacian by inverse-power
    iteration on the tridiagonal discretization; returns the minimizing
    radial profile alongside.  Each step solves against the
    Dirichlet-reduced stiffness in closed form (radial.energy_solve)."""
    ke = cell_stiffness(grid)
    stiffness = tridiagonal(ke, -1.0)
    unit_mass = mass(grid, np.ones(len(grid)))
    x = 1.0 - grid.nodes ** 2
    lam = math.nan
    for _ in range(LAMBDA_1_STEPS):
        x, _ = energy_solve(ke, tridiag_apply(unit_mass, x))
        x /= math.sqrt(float(x @ tridiag_apply(unit_mass, x)))
        lam, prev = float(x @ tridiag_apply(stiffness, x)), lam
        if abs(lam - prev) < LAMBDA_1_TOL * lam:  # False while prev is nan
            break
    return lam, RadialFunction(grid, x / np.max(np.abs(x)), dirichlet=True)


def _pav_nonincreasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators projection onto nonincreasing sequences.

    The plain stack PAV on the reversed (nondecreasing) problem: each
    element is pushed as a block and pooled with the block below while
    that block's level is higher, by (pw*pl + w*lv) / (pw + w).  Merge
    order and arithmetic are exactly those, so the result is bit-identical
    to the element-by-element loop.  Only the bookkeeping is cut: the
    stack holds pooled blocks alone, as (level, count, end); an element
    that pools nothing stays a singleton block (pw = 1) of the input copy.
    Such an element's successor can pool only if it is a violation
    (smaller than the element), so the loop starts at the violation
    indices and runs on while elements keep pooling.  The loop reads the
    copy through a memoryview, so only the elements it visits (those
    near violations) become Python floats, and it keeps the top pooled
    block in local variables (tl, tw, top), the blocks under it on the
    stack.  Each pooled block is written back into the copy as one slice
    after the loop.
    """
    zr = y[::-1]  # nondecreasing problem
    out = zr.copy()
    z = memoryview(out)
    n = len(out)
    below: list[tuple[float, int, int]] = []
    tl, tw, top = 0.0, 0, -1  # level, count and end of the top pooled block
    i = 0
    for v in (np.flatnonzero(zr[1:] < zr[:-1]) + 1).tolist():
        if v < i:
            continue
        i = v
        while i < n:
            # Pool block [s, i] with the block below: the top pooled
            # block if it ends at s, else the singleton s - 1.
            lv, w, s = z[i], 1, i
            while True:
                if top == s:
                    if not tl > lv:
                        break
                    pl, pw = tl, tw
                    tl, tw, top = below.pop() if below else (0.0, 0, -1)
                elif s:
                    pl = z[s - 1]
                    if not pl > lv:
                        break
                    pw = 1
                else:
                    break
                lv = (pw * pl + w * lv) / (pw + w)
                w += pw
                s -= pw
            i += 1
            if w == 1:
                break
            if top >= 0:
                below.append((tl, tw, top))
            tl, tw, top = lv, w, i
    if top >= 0:
        below.append((tl, tw, top))
    for lv, w, end in below:
        out[end - w:end] = lv
    return out[::-1]


@dataclass
class LambdaPEstimate:
    value: float
    spread: float
    minimizer: RadialFunction
    local_minima: list


def estimate_lambda_p(p: float, grid: RadialGrid, seed: int = 0
                      ) -> LambdaPEstimate:
    """Estimate of lambda_p = inf { |grad u|^2 : ||u||_p = 1 }, p > 2.
    The midpoint ||u||_p is not one-sided (ROADMAP item 7), so the value
    is no certified upper bound: it reads 0.8-2.9% above Lane-Emden for
    p = 3, 4, 6 at n = 512.

    Normalized projected descent over nonnegative Dirichlet profiles with
    seeded multistarts (smooth bumps plus the lambda_1 eigenfunction);
    the spread of the local minima is reported with the best value.
    """
    if p <= 2:
        raise InvalidInputError("lambda_p estimator needs p > 2")
    rng = np.random.default_rng(seed)
    stiffness = tridiagonal(cell_stiffness(grid), -1.0)

    def normalized(vals):
        # Restricting to the monotone cone loses nothing (rearrangement
        # improves the energy and preserves the constraint norm).
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
    for _ in range(LAMBDA_P_STARTS - 2):
        c = rng.uniform(0.0, 0.5)
        width = rng.uniform(0.1, 0.8)
        starts.append(np.exp(-((r - c) / width) ** 2) * (1.0 - r))

    def descent_direction(u):
        # Energy gradient 2 A u (zero at the Dirichlet node) and its norm;
        # it depends on u alone, so rejected steps reuse it.
        g = 2.0 * tridiag_apply(stiffness, u.values)
        g[-1] = 0.0
        return g, max(np.linalg.norm(g), 1e-300)

    minima = []
    best = (math.inf, None)
    for s0 in starts:
        u = normalized(s0)
        if u is None:
            continue
        e = gradient_norm_sq(u)
        g, gn = descent_direction(u)
        step = 0.1
        for _ in range(LAMBDA_P_STEPS):
            cand = normalized(u.values - step * g / gn)
            if cand is None:
                break
            ec = gradient_norm_sq(cand)
            if ec < e:
                u, e = cand, ec
                g, gn = descent_direction(u)
                step = min(step * 1.5, 1.0)
            else:
                step *= 0.5
                if step < 1e-10:
                    break
        minima.append(e)
        if e < best[0]:
            best = (e, u)
    return LambdaPEstimate(best[0], max(minima) - min(minima), best[1],
                           minima)
