"""Radial positive solutions of -Delta phi = V phi and the induced stretch.

The shooting solver integrates the radial equation

    -(1/r) (r phi')' = V(r) phi,    phi(r0) = 1,  (r phi')(r0) = 0,

in the logarithmic variable t = log r, where with q = dphi/dt = r phi' it
becomes the mildly-coefficiented system

    dphi/dt = q,        dq/dt = -r^2 V(r) phi,

and r^2 V is bounded for every potential of the catalogue away from the
endpoints.  The system is linear, so it is solved as a product of 2x2
cell propagators: fourth-order Magnus with two Gauss points per cell,
on a mesh in t that contains the caller's grid, the default grid and
the potential's breakpoints, with one vectorized evaluation of V for
the whole mesh.  If phi crosses zero before r = 1 the form Q_V is
indefinite and NodalSolutionError is raised.

A positive solution induces the coordinate stretch

    log s(r) = int_{1/e}^{r} dt / (t phi(t)^2)   ( = int dt/phi^2 in log r ),

which maps the disk onto a disk of radius s(1) = lim_{r->1} s(r).  The
dichotomy driving everything downstream is whether s(1) is finite:

  * s(1) finite and phi bounded away from 0 at the rim: the form is
    weakly coercive and the constrained exponential supremum is finite;
  * s(1) infinite (or phi(1) = 0): the form has a ground state and the
    supremum diverges.

Numerically s(1) is classified from the growth of log s over the last
grid decades in (1 - r): a borderline ground state produces increments
that stay large decade after decade, a coercive potential produces
increments collapsing at a geometric rate.  The thresholds are module
constants (only the rim threshold delta_phi is a parameter, of
classify_coercivity) and the raw increments are reported for audit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidInputError, NodalSolutionError,
                     SingularEvaluationError, StepFailureError)
from .potentials import Potential, check_kato
from .radial import RadialFunction, RadialGrid, exact_sum
from .forms import PotentialRemainder, eval_Q

WEAKLY_COERCIVE = "WeaklyCoercive"
GROUND_STATE = "GroundStateDetected"
INDEFINITE = "Indefinite"


# phi(1) threshold: below this the rim value counts as zero.
DELTA_PHI = 1e-6
# log s increment over the last (1-r)-decade that flags divergence,
# provided the increments are not collapsing geometrically.
DIV_INCREMENT = 0.2
DIV_RATIO = 0.6
KATO_ALPHA = 0.5  # the Kato-class tag's exponent (check_kato)


@dataclass
class GroundStateResult:
    potential: Potential
    phi: RadialFunction
    phi_at_1: float
    kato_ok: bool
    log_s: np.ndarray | None = None
    s_table: RadialFunction | None = None
    s_at_1: float = math.nan
    s_divergent: bool = False
    gamma_fit: float = math.nan
    diagnostics: dict = field(default_factory=dict)


@functools.cache
def _default_interior_t() -> np.ndarray:
    """log r of the default grid's interior nodes (the finest mesh that
    every shooting run includes); read-only, as every caller shares it."""
    t = np.log(RadialGrid.default().nodes[1:-1])
    t.flags.writeable = False
    return t


def _shooting_mesh(pot: Potential, t_nodes: np.ndarray) -> np.ndarray:
    """Cell edges in t = log r from t_nodes[0] to t_nodes[-1]: the
    caller's nodes, the default grid's and V's breakpoints, merged."""
    extra = np.concatenate([_default_interior_t(),
                            np.log(np.asarray(pot.breakpoints, dtype=float))])
    extra = extra[(extra > t_nodes[0]) & (extra < t_nodes[-1])]
    return np.union1d(t_nodes, extra)


def _magnus_propagators(pot: Potential, mesh: np.ndarray):
    """Entries (m00, m01, m10, m11) of exp(Omega) on each mesh cell.

    Fourth-order Magnus with two Gauss points (Iserles and Norsett, Phil.
    Trans. R. Soc. A 357, 1999; Blanes, Casas, Oteo and Ros, Phys. Rep.
    470, 2009) for (phi, q)' = [[0, 1], [-a, 0]] (phi, q), a = r^2 V:
    Omega = [[c, h], [-h abar, -c]] with abar the mean of a at the Gauss
    points and c = (sqrt 3 / 12) h^2 (a+ - a-).  Omega is traceless, so
    Omega^2 = kappa^2 I with kappa^2 = c^2 - h^2 abar, and
    exp(Omega) = C I + S Omega with C, S = cosh kappa, sinh kappa / kappa
    (cos |kappa|, sin |kappa| / |kappa| when kappa^2 < 0).
    """
    h = np.diff(mesh)
    mid = 0.5 * (mesh[:-1] + mesh[1:])
    off = (math.sqrt(3.0) / 6.0) * h
    r = np.exp(np.concatenate([mid - off, mid + off]))
    # A non-finite V gives non-finite entries, which the caller reports.
    with np.errstate(over="ignore", invalid="ignore"):
        a = r * r * np.asarray(pot(r), dtype=float)
        a_lo, a_hi = a[:h.size], a[h.size:]
        abar = 0.5 * (a_lo + a_hi)
        c = (math.sqrt(3.0) / 12.0) * h * h * (a_hi - a_lo)
        k2 = c * c - h * h * abar
        kappa = np.sqrt(np.abs(k2))
        grows = k2 >= 0.0
        cos_part = np.where(grows, np.cosh(kappa), np.cos(kappa))
        sinc = np.divide(np.where(grows, np.sinh(kappa), np.sin(kappa)),
                         kappa, out=np.ones_like(kappa), where=kappa != 0.0)
        return (cos_part + sinc * c, sinc * h, -sinc * h * abar,
                cos_part - sinc * c)


def shoot(pot: Potential, grid: RadialGrid) -> GroundStateResult:
    """Integrate the radial equation across the grid; phi normalized to
    max 1 (attained at the center for admissible potentials).

    The cells are those of `_shooting_mesh`, so a coarse grid is never
    integrated more coarsely than the default one and no cell straddles a
    kink of V.  The solution is carried from (phi, q) = (1, 0) at
    nodes[0] through the product of the cell propagators; the first
    nonpositive phi stops it with NodalSolutionError, the radius
    interpolated linearly in t.  A non-finite propagator entry (V not
    finite at a Gauss point) raises StepFailureError when the solution
    reaches that cell: a numerical failure, never a verdict.
    """
    # The last node is r = 1 where catalogue potentials may blow up; the
    # mesh ends at the last interior node.
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
            f"{math.exp(mesh[n_ok]):.6g}: V is not finite there")

    phi_vals = np.asarray(phis)[np.searchsorted(mesh, t_nodes)]
    # Final cell [nodes[-2], 1]: linear continuation in t.
    phi_end = phi_vals[-1] + q * (0.0 - t_nodes[-1])
    full = np.concatenate([phi_vals, [phi_end]])
    peak = float(np.max(full))
    full = full / peak
    phi = RadialFunction(grid, full, dirichlet=False)
    try:
        kato_ok = bool(check_kato(pot, KATO_ALPHA).ok)
    except SingularEvaluationError:  # V is not finite on the sampled radii
        kato_ok = False
    return GroundStateResult(pot, phi, float(full[-1]), kato_ok)


def transform_s(gs: GroundStateResult) -> GroundStateResult:
    """Fill the stretch table s(r), anchored so s(1/e) = 1 exactly.

    d(log s)/dt = 1/phi(t)^2 in t = log r, integrated cumulatively by the
    trapezoid rule over the grid; s(1) is declared divergent when the
    log s increments over the last two (1-r)-decades fail to collapse,
    else extrapolated geometrically.
    """
    nodes = gs.phi.grid.nodes
    phi = gs.phi.values
    if np.any(phi[:-1] <= 0.0):
        raise NodalSolutionError(nodes[int(np.argmax(phi[:-1] <= 0.0))])
    t = np.log(nodes[:-1])
    integ = 1.0 / (phi[:-1] ** 2)
    cum = np.concatenate([[0.0],
                          np.cumsum(0.5 * (integ[1:] + integ[:-1]) * np.diff(t))])
    anchor = np.interp(-1.0, t, cum)  # t = -1 is r = 1/e
    logs_interior = cum - anchor

    # Increments of log s over the last decades of 1 - r.
    probes = 1.0 - np.array([1e-6, 1e-7, 1e-8])
    probes = probes[probes > nodes[0]]
    ls_probe = np.interp(np.log(probes), t, logs_interior)
    if ls_probe.size >= 3:
        inc_prev = float(ls_probe[-2] - ls_probe[-3])
        inc_last = float(ls_probe[-1] - ls_probe[-2])
    else:
        inc_prev = inc_last = 0.0
    divergent = inc_last > DIV_INCREMENT and inc_last > DIV_RATIO * inc_prev

    # Continuation over the final cell and geometric tail estimate; the
    # continuation is capped so a vanishing rim value (critical case,
    # 1/phi^2 ~ 1e16) cannot overflow the stored table.
    last_cell = min((0.0 - t[-1]) * integ[-1], 500.0)
    if divergent:
        s_at_1 = math.inf
        logs_end = logs_interior[-1] + last_cell
    else:
        ratio = min(inc_last / inc_prev, 0.95) if inc_prev > 0 else 0.0
        tail = inc_last * ratio / (1.0 - ratio) if ratio > 0 else 0.0
        logs_end = logs_interior[-1] + last_cell
        s_at_1 = math.exp(logs_end + tail)

    log_s = np.concatenate([logs_interior, [logs_end]])
    # A vanishing rim value can push log s beyond exp range (critical
    # case); the clamped table only matters for coercive results.
    s_table = RadialFunction(gs.phi.grid, np.exp(np.minimum(log_s, 700.0)),
                             dirichlet=False)

    # Linear behavior s(r) ~ gamma r at the center, fitted on the
    # smallest decade of nodes.
    small = nodes <= nodes[0] * 10.0
    gamma = float(np.median(np.exp(log_s[small]) / nodes[small]))

    gs.log_s = log_s
    gs.s_table = s_table
    gs.s_at_1 = s_at_1
    gs.s_divergent = bool(divergent)
    gs.gamma_fit = gamma
    gs.diagnostics.update({"inc_prev_decade": inc_prev,
                           "inc_last_decade": inc_last})
    return gs


def ground_state_analysis(pot: Potential, grid: RadialGrid
                          ) -> GroundStateResult:
    return transform_s(shoot(pot, grid))


def jacobi_identity_residual(gs: GroundStateResult, u: RadialFunction) -> float:
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
    q = eval_Q(PotentialRemainder(gs.potential), u)
    return abs(q - transformed) / max(1.0, abs(q))


@dataclass
class CoercivityResult:
    classification: str
    result: GroundStateResult | None
    detail: str


def classify_coercivity(pot: Potential, grid: RadialGrid,
                        delta_phi: float = DELTA_PHI) -> CoercivityResult:
    """Weakly coercive / ground state / indefinite verdict for Q_V.

    WeaklyCoercive: finite stretch s(1) and phi(1) above delta_phi.
    GroundStateDetected: divergent stretch, or phi positive but vanishing
    at the rim (critical case).
    Indefinite: the shot solution crosses zero (V too strong).
    An integrator failure is no verdict: its StepFailureError propagates.
    """
    try:
        gs = ground_state_analysis(pot, grid)
    except NodalSolutionError as exc:
        return CoercivityResult(INDEFINITE, None,
                                f"nodal solution at r = {exc.radius:.6g}")
    if gs.s_divergent:
        return CoercivityResult(
            GROUND_STATE, gs,
            "stretch diverges (log s increment "
            f"{gs.diagnostics['inc_last_decade']:.4g} per decade)")
    if gs.phi_at_1 <= delta_phi:
        return CoercivityResult(GROUND_STATE, gs,
                                f"phi(1) = {gs.phi_at_1:.3g} below threshold")
    return CoercivityResult(WEAKLY_COERCIVE, gs,
                            f"s(1) = {gs.s_at_1:.6g}, phi(1) = {gs.phi_at_1:.6g}")
