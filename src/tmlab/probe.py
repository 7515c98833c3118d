"""Trial families and constrained probing of the exponential supremum.

The quantity of interest is

    S = sup { J(u) : Q(u) <= 1 },    J(u) = int_B exp(4 pi u^2) dx,

which is either finite or +infinity.  This module supplies the standard
families of trial profiles, sweeps them to collect evidence, and fits the
growth of J along the sweep to emit a Bounded / Divergent / Inconclusive
verdict:

  * Moser plateau functions m_k, energy-normalized log profiles that
    concentrate at the origin as k grows (the classical extremizing
    family for the 4 pi exponent);
  * logarithmic cutoffs w_k(s) in the stretched coordinate s(r) of a
    ground-state analysis, composed back as u_k = phi * w_k(s(r)) (the
    family that exhibits divergence when the stretch is infinite);
  * an energy-gradient ascent over nonincreasing Dirichlet profiles
    (reported strictly as a lower bound for S).

Also here: Rayleigh-quotient estimators for the first Dirichlet
eigenvalue lambda_1 (inverse-power iteration, second-order accurate) and
for the L^p Sobolev constant lambda_p = inf { |grad u|_2^2 : ||u||_p = 1 }
(projected descent with seeded multistarts; an upper bound).  They and
the maximizer use the tridiagonal operator of radial (stiffness, the mass
of the cap-and-midpoint sampling, its transpose for the J-gradient,
closed-form stiffness solve); none is built here.

The verdict thresholds are module constants; only the exponent
coefficient of probe_supremum is a parameter.  Every randomized search
takes an explicit seed; per-parameter rows are independent and
assembled in deterministic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, TmLabError
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
RESIDUAL_RATIO = 0.5  # best fit's residual against the constant fit's
MIN_GROWTH_ROWS = 5  # trailing increments that must all be positive
# A constrained value this far above the classical disk supremum
# (finite at the 4 pi exponent, and above pi (1 + e) ~ 11.68 by
# Carleson-Chang) counts as divergence evidence.
DIVERGENCE_J_THRESHOLD = 1e6


# ---------------------------------------------------------------------------
# trial families
# ---------------------------------------------------------------------------

def moser_function(grid: RadialGrid, k: int) -> RadialFunction:
    """Energy-normalized plateau profile:

        m_k(r) = (2 pi)^(-1/2) * min( sqrt(log k), log(1/r)/sqrt(log k) ).

    gradient_norm_sq(m_k) = 1 in the continuum; the sampled profile
    reproduces it to a few parts in 1e4 on the default grid.
    """
    if k < 2:
        raise InvalidInputError("Moser profile needs k >= 2")
    lk = math.log(k)
    r = grid.nodes
    vals = np.minimum(math.sqrt(lk),
                      log_inv(r) / math.sqrt(lk)) / math.sqrt(2.0 * math.pi)
    vals[-1] = 0.0
    return RadialFunction(grid, vals, dirichlet=True)


class WkCutoff:
    """Piecewise log cutoff in the stretched coordinate:

        w_k(s) = 1            for s < k,
        w_k(s) = log(k^2/s)/k for k <= s < k^2,
        w_k(s) = 0            for s >= k^2.

    ramp_energy() is the planar Dirichlet energy carried by the ramp,
    2 pi int_k^{k^2} (1/(k s))^2 s ds = 2 pi log(k) / k^2.
    """

    def __init__(self, k: float):
        if k <= 1.0:
            raise InvalidInputError("cutoff needs k > 1")
        self.k = float(k)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        k = self.k
        ramp = np.log(np.maximum(k * k / np.maximum(s, 1e-300), 1.0)) / k
        return np.where(s < k, 1.0, np.minimum(ramp, math.log(k) / k))

    def ramp_energy(self) -> float:
        return 2.0 * math.pi * math.log(self.k) / (self.k * self.k)


@dataclass
class TrialFamily:
    name: str
    params: list
    make: object  # k -> RadialFunction
    # Optional replacement for eval_Q on the family's own profiles.
    q_eval: object = None


def moser_family(grid: RadialGrid, ks=None) -> TrialFamily:
    if ks is None:
        ks = [2 ** m for m in range(1, 15)]
    return TrialFamily("moser", list(ks),
                       lambda k: moser_function(grid, int(k)))


def ground_state_family(gs: GroundStateResult) -> TrialFamily:
    """u_k = phi * w_k(s(r)) on the ground-state grid.

    Q on this family is evaluated on the stretched side, where the form
    collapses to the planar ramp energy 2 pi log(k)/k^2 of the cutoff:
    the raw profile carries a one-cell jump at s = k whose finite-grid
    slope energy is a discretization artifact, not part of the form the
    substitution represents.
    """
    if gs.log_s is None:
        raise InvalidInputError("family needs a completed stretch table")
    s_vals = np.exp(gs.log_s)
    s_max = math.inf if gs.s_divergent else float(gs.s_at_1)
    ks = []
    k = 2.0
    while k * k <= min(s_max, s_vals[-2] if gs.s_divergent else s_max) \
            and len(ks) < 14:
        ks.append(k)
        k *= 2.0
    if not ks:
        raise InvalidInputError("stretch range admits no cutoff parameters")
    grid = gs.phi.grid
    phi = gs.phi.values

    def make(k):
        w = WkCutoff(k)
        vals = phi * w(s_vals)
        vals[-1] = 0.0
        return RadialFunction(grid, vals, dirichlet=True)

    def q_eval(form, u, k):
        return WkCutoff(k).ramp_energy()

    return TrialFamily("gsapprox", ks, make, q_eval=q_eval)


# ---------------------------------------------------------------------------
# growth classification
# ---------------------------------------------------------------------------

@dataclass
class GrowthFit:
    model: str
    params: tuple
    residual: float
    slopes: list = field(default_factory=list)


def classify_growth(ks, js, overflowed) -> tuple[str, GrowthFit]:
    """Verdict from the J sweep.

    Overflow anywhere is divergence evidence.  Otherwise the sweep is
    judged on the window of trailing rows: increments must be monotone
    and the local log-log slope d log J / d log k must be sustained
    (power-law or faster) for Divergent; a collapsing slope means the
    sweep is saturating and reads Bounded.
    """
    if any(overflowed):
        return DIVERGENT, GrowthFit("overflow", (), 0.0)
    ks = np.asarray(ks, dtype=float)
    js = np.asarray(js, dtype=float)
    if ks.size < 2:
        return INCONCLUSIVE, GrowthFit("short", (), math.nan)
    w = min(FIT_WINDOW, ks.size)
    kw, jw = ks[-w:], js[-w:]
    inc = np.diff(jw)
    rel = np.abs(inc) / np.maximum(1.0, np.abs(jw[:-1]))
    if np.all(rel < 1e-9):
        return BOUNDED, GrowthFit("flat", (float(np.mean(jw)),), 0.0)
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
        fit = GrowthFit("exponential", (math.exp(a_exp), float(c_exp)),
                        exp_resid, slopes)
    else:
        fit = GrowthFit("power", (math.exp(a_pow), float(b_pow)),
                        pow_resid, slopes)

    grow_window = min(MIN_GROWTH_ROWS, len(inc))
    monotone_growth = bool(np.all(inc[-grow_window:] > 0))
    strong = min(slopes[-3:]) > STRONG_SLOPE
    sustained = (slopes[-1] > MIN_DIVERGENT_SLOPE
                 and slopes[-1] > SLOPE_DECAY_RATIO * slopes[0])
    best_wins = fit.residual < RESIDUAL_RATIO * max(const_resid, 1e-300)
    if monotone_growth and (strong or (sustained and best_wins)):
        return DIVERGENT, fit
    if not (monotone_growth and sustained):
        return BOUNDED, fit
    return INCONCLUSIVE, fit


# ---------------------------------------------------------------------------
# probe report
# ---------------------------------------------------------------------------

@dataclass
class ProbeRow:
    k: float
    q: float
    j_normalized: float
    overflow: bool
    error: str = ""


@dataclass
class ProbeReport:
    family: str
    form: str
    rows: list
    verdict: str
    fit: GrowthFit | None = None

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "form": self.form,
            "rows": [
                {"k": r.k, "Q": r.q, "J": r.j_normalized,
                 "overflow": r.overflow, "error": r.error}
                for r in self.rows
            ],
            "fit": (None if self.fit is None else {
                "model": self.fit.model,
                "params": list(self.fit.params),
                "residual": self.fit.residual,
                "slopes": self.fit.slopes,
            }),
            "verdict": self.verdict,
        }

    CSV_HEADER = ("k", "Q", "J", "overflow", "error")

    def csv_rows(self) -> list[tuple]:
        return [(r.k, r.q, r.j_normalized, int(r.overflow), r.error)
                for r in self.rows]


def probe_supremum(form: Remainder, family: TrialFamily,
                   coeff: float = FOUR_PI) -> ProbeReport:
    """Sweep the family, normalize each profile to Q = 1, record J with
    exponent coefficient `coeff`.

    A profile with Q <= 0 is immediate divergence evidence (J of its
    large multiples blows up), reported without further fitting.
    """
    rows: list[ProbeRow] = []
    for k in family.params:
        try:
            u = family.make(k)
        except TmLabError as exc:  # the lab's own errors are per-row notes
            rows.append(ProbeRow(float(k), math.nan, math.nan, False,
                                 f"{type(exc).__name__}: {exc}"))
            continue
        if family.q_eval is not None:
            q = float(family.q_eval(form, u, k))
        else:
            q = eval_Q(form, u)
        if q <= 0.0:
            rows.append(ProbeRow(float(k), q, math.inf, True,
                                 "nonpositive form value"))
            return ProbeReport(family.name, form.spec_string(), rows,
                               DIVERGENT,
                               GrowthFit("indefinite-direction", (), 0.0))
        j = eval_J(u.scaled(1.0 / math.sqrt(q)), coeff)
        rows.append(ProbeRow(float(k), q, j, math.isinf(j)))
    good = [r for r in rows if not r.error]
    verdict, fit = classify_growth([r.k for r in good],
                                   [r.j_normalized for r in good],
                                   [r.overflow for r in good])
    return ProbeReport(family.name, form.spec_string(), rows, verdict, fit)


# ---------------------------------------------------------------------------
# constrained maximization (lower bound for S)
# ---------------------------------------------------------------------------

@dataclass
class MaximizeResult:
    best_j: float
    profile: RadialFunction
    divergence_evidence: bool
    iterations: int
    accepted: int = 0  # ascent steps that raised J


def maximize_J_constrained(form: Remainder, grid: RadialGrid,
                           budget: int = 400, seed: int = 0
                           ) -> MaximizeResult:
    """Projected gradient ascent of J (exponent 4 pi) over { Q <= 1 }
    intersected with nonnegative nonincreasing Dirichlet profiles.

    The direction is the energy gradient: the nodal gradient g of J
    solved against the Dirichlet stiffness (A w = g, by radial.energy_solve)
    and normalized in the energy norm sqrt(w^T A w).  On the doubly
    graded grid the Euclidean gradient is dominated by the tiny cells;
    the energy gradient weighs cells by the form's own metric.  Every
    start is nonnegative and nonincreasing, and since g >= 0 on that
    cone, so is w and every candidate u + s w: the cone is invariant, so
    no monotone projection is needed.

    One local `score` values starts and candidates alike: it scales a
    profile onto Q = 1 (valid because every remainder here is
    quadratically homogeneous) and returns its J, or J = inf for a
    Q <= 0 witness.  The returned value is a lower bound for the
    supremum, never the supremum itself.

    Stop rule: a start's ascent stops once its J exceeds
    DIVERGENCE_J_THRESHOLD (inf included), and the search stops after
    that start, with divergence evidence.  J <= 1e6 before every
    gradient bounds area * exp(4 pi u^2) by 1e6 on each cell, so the
    gradient stays finite.
    """
    if budget < 1:
        raise InvalidInputError("budget must be >= 1")
    rng = np.random.default_rng(seed)

    def score(vals: np.ndarray) -> tuple[float, RadialFunction]:
        u = RadialFunction(grid, vals, dirichlet=True)
        q = eval_Q(form, u)
        if q <= 0.0:
            return math.inf, u  # divergence witness
        # Scale onto the constraint boundary Q = 1: J is monotone in |u|,
        # so sitting below the boundary is never optimal.
        u = u.scaled(1.0 / math.sqrt(q))
        return eval_J(u, FOUR_PI), u

    # Seed with the three best plateau profiles of a quick family sweep
    # (ties to the larger k), so the ascent dominates the best Moser value.
    starts = [(j, u) for j, u, _ in sorted(
        (score(moser_function(grid, k).values) + (k,)
         for k in (2, 4, 8, 16, 32, 64, 128, 256)),
        key=lambda s: (s[0], s[2]), reverse=True)[:3]]
    r = grid.nodes
    # Log-spike seed: the shape that witnesses divergence for borderline
    # Hardy-type remainders.
    spike = np.sqrt(np.maximum(np.log(1.0 / r), 0.0))
    spike[-1] = 0.0
    starts.append(score(spike))
    for _ in range(3):
        width = rng.uniform(0.05, 0.5)
        amp = rng.uniform(0.2, 1.5)
        vals = amp * np.exp(-(r / width) ** 2)
        vals[-1] = 0.0
        starts.append(score(vals))

    best_j, best_u = -math.inf, starts[0][1]
    iters_used = accepted = 0
    per_start = max(budget // len(starts), 1)
    ke = cell_stiffness(grid)
    for j, u in starts:
        step = 0.05
        for _ in range(per_start):
            if j > DIVERGENCE_J_THRESHOLD:
                break
            iters_used += 1
            s = u.samples()
            g = value_gradient(u, np.exp(FOUR_PI * s * s) * 2.0 * FOUR_PI * s)
            w, energy = energy_solve(ke, g)
            jc, cand = score(u.values + (step / math.sqrt(energy)) * w)
            if jc > j:
                u, j = cand, jc
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
    evidence = best_j > DIVERGENCE_J_THRESHOLD
    return MaximizeResult(best_j, best_u, evidence, iters_used, accepted)


# ---------------------------------------------------------------------------
# Rayleigh-quotient estimators
# ---------------------------------------------------------------------------

# Inverse-power steps for lambda_1.  The relative stopping test sits
# below the Rayleigh quotient's roundoff, so the loop may run all its
# steps; each costs about 0.1 ms at n = 4096.
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


def estimate_lambda_p(p: float, grid: RadialGrid, seed: int = 0,
                      n_starts: int = 32, iterations: int = 120
                      ) -> LambdaPEstimate:
    """Upper bound for lambda_p = inf { |grad u|^2 : ||u||_p = 1 }, p > 2.

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
    for _ in range(max(n_starts - 2, 0)):
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
        for _ in range(iterations):
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
