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
the whole mesh, and multiplied out by a log-depth prefix product.  If
phi crosses zero before r = 1 the form Q_V is indefinite and
NodalSolutionError is raised; a phi beyond the double range is a
StepFailureError.

A positive solution induces the coordinate stretch

    log s(r) = int_{1/e}^{r} dt / (t phi(t)^2)   ( = int dt/phi^2 in log r ),

which maps the disk onto a disk of radius s(1) = lim_{r->1} s(r).  The
dichotomy driving everything downstream is whether s(1) is finite:

  * s(1) finite: the form is weakly coercive and the constrained
    exponential supremum is finite;
  * s(1) infinite: the form has a ground state and the supremum
    diverges.  phi(1) = 0 forces it: a non-oscillating solution that
    vanishes at the rim is O(sqrt(1 - r)), so 1/phi^2 is not integrable.

Numerically s(1) is classified from the growth of log s over the last
grid decades in (1 - r): a borderline ground state produces increments
that stay large decade after decade, a coercive potential produces
increments collapsing at a geometric rate.  The thresholds are module
constants and the raw increments are reported for audit.  The stretch
stays in log space: an s(1) beyond the double range reads inf, and its
log s(1) stays finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NodalSolutionError, SingularEvaluationError,
                     StepFailureError)
from .potentials import Potential, check_kato
from .radial import RadialFunction, RadialGrid

WEAKLY_COERCIVE = "WeaklyCoercive"
GROUND_STATE = "GroundStateDetected"
INDEFINITE = "Indefinite"


# log s increment over the last (1-r)-decade that flags divergence,
# provided the increments are not collapsing geometrically.
DIV_INCREMENT = 0.2
DIV_RATIO = 0.6
KATO_ALPHA = 0.5  # the Kato-class tag's exponent (check_kato)


@dataclass(frozen=True)
class GroundStateResult:
    """phi and its stretch: log s at the grid nodes (the last entry
    continued over the final cell), the extrapolated log s(1) (inf when
    the stretch diverges), log gamma of the centre fit s(r) ~ gamma r
    and, in diagnostics, the log s increments over the last two
    (1 - r)-decades."""
    potential: Potential
    phi: RadialFunction
    kato_ok: bool
    log_s: np.ndarray
    log_s_at_1: float
    log_gamma: float
    diagnostics: dict

    @property
    def phi_at_1(self) -> float:
        return float(self.phi.values[-1])

    @property
    def s_divergent(self) -> bool:
        return math.isinf(self.log_s_at_1)

    @property
    def gamma_fit(self) -> float:
        """gamma, 0 below the double range; phi <= 1 keeps log_gamma <= 1."""
        return math.exp(self.log_gamma)

    @property
    def s_at_1(self) -> float:
        """s(1), inf beyond the double range."""
        try:
            return math.exp(self.log_s_at_1)
        except OverflowError:
            return math.inf


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


def _prefix_products(entries) -> np.ndarray:
    """Rows (p00, p01, p10, p11) of every prefix product M_i ... M_1 M_0
    of the 2x2 matrices whose entries are the rows of `entries`.

    Hillis-Steele doubling: after the round of step d, entry i holds the
    product of the 2d matrices ending at i (all i + 1 of them when
    i < 2d), so ceil(log2 n) rounds of vectorized 2x2 products replace
    the n-step loop; 12 rounds at n = 4096.  Entries that overflow read
    inf or nan.
    """
    p = np.array(entries, dtype=float)
    n = p.shape[1]
    prod = np.empty_like(p)
    d = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while d < n:
            left, right, out = p[:, d:], p[:, :-d], prod[:, :n - d]
            # [[a, b], [c, e]] @ [[w, x], [y, z]]: row (w, x) times a plus
            # row (y, z) times b, then the same with c and e.
            np.multiply(left[0], right[:2], out=out[:2])
            out[:2] += left[1] * right[2:]
            np.multiply(left[2], right[:2], out=out[2:])
            out[2:] += left[3] * right[2:]
            p[:, d:] = out
            d *= 2
    return p


def _sturm_zero(pot: Potential, mesh: np.ndarray) -> None:
    """Raise NodalSolutionError at the first cell of `mesh` on which
    a = r^2 V >= m > 0 and which is wider than pi / sqrt(m).

    By Sturm comparison with sin(sqrt(m) (t - t_i)), phi, positive at the
    cell's left edge t_i, vanishes by t_i + pi / sqrt(m), whatever the
    propagators computed: such a cell has h sqrt(a) > pi, beyond the
    step sizes where fourth-order Magnus is accurate (its c^2 term
    overflows first for huge V).  m is the smaller edge value of a, as
    every catalogue potential is monotone in t between mesh edges.  V is
    evaluated at the edges here only, on a failed shot.
    """
    r = np.exp(mesh)
    with np.errstate(over="ignore", invalid="ignore"):
        a = r * r * np.asarray(pot(r), dtype=float)
        m = np.minimum(a[:-1], a[1:])
        wide = np.isfinite(m) & (np.diff(mesh) ** 2 * m > math.pi ** 2)
    if wide.any():
        i = int(np.argmax(wide))
        raise NodalSolutionError(math.exp(mesh[i] + math.pi / math.sqrt(m[i])))


def shoot(pot: Potential, grid: RadialGrid) -> RadialFunction:
    """Integrate the radial equation across the grid; phi normalized to
    max 1 (attained at the center for admissible potentials).

    The cells are those of `_shooting_mesh`, so a coarse grid is never
    integrated more coarsely than the default one and no cell straddles a
    kink of V.  (phi, q) at every mesh point is the first column of a
    prefix product of the cell propagators, applied to (1, 0) at
    nodes[0] and taken in log depth (`_prefix_products`) over every
    cell.  It differs from the cell-by-cell recurrence (kept in the
    tests as the oracle) by rounding alone: at most 4.3e-14 relative on
    the benchmark's scan potentials, growing as phi(1) -> 0 next to
    lambda_1 (1.6e-12 at lambda_1 (1 - 1e-3), 1.2e-8 at
    lambda_1 (1 - 1e-7)).

    One rule decides every failure, at the first phi that is not a
    positive double.  Prefix i multiplies cells 0..i only, so a bad cell
    cannot spoil an earlier phi.  Every failure first looks for a cell up
    to that phi which forces a zero (`_sturm_zero`: a strongly positive
    V, such as constant:1e25, on whose cells phi oscillates, or
    constant:1e27, whose propagators overflow), and raises
    NodalSolutionError at its Sturm bound.  Failing that, a nonpositive
    phi raises NodalSolutionError, the radius interpolated linearly in t.
    Any other failure is a StepFailureError, a numerical failure, never a
    verdict: it names the cell just before it if that cell has a
    non-finite propagator entry (V not finite at a Gauss point, or an
    entry overflowing); otherwise the product has left the double range.
    """
    # The last node is r = 1 where catalogue potentials may blow up; the
    # mesh ends at the last interior node.
    t_nodes = np.log(grid.nodes[:-1])
    mesh = _shooting_mesh(pot, t_nodes)
    entries = _magnus_propagators(pot, mesh)
    prefix = _prefix_products(entries)
    phis = np.concatenate([[1.0], prefix[0]])
    q = float(prefix[2, -1])
    # The one failure rule of the docstring; q at the last node counts
    # as one more phi.
    ok = np.append(np.isfinite(phis) & (phis > 0.0), math.isfinite(q))
    if not ok.all():
        i = min(int(np.argmin(ok)), phis.size - 1)
        _sturm_zero(pot, mesh[:i + 1])
        if -math.inf < phis[i] <= 0.0:
            prev = phis[i - 1]
            t_zero = mesh[i - 1] + (mesh[i] - mesh[i - 1]) * prev / (
                prev - phis[i])
            raise NodalSolutionError(math.exp(t_zero))
        if not np.isfinite([e[i - 1] for e in entries]).all():
            raise StepFailureError(
                f"non-finite propagator on the cell at r = "
                f"{math.exp(mesh[i - 1]):.6g}: V is not finite there, or "
                "the cell's propagator overflows")
        raise StepFailureError(
            f"the propagator product overflows the double range near "
            f"r = {math.exp(mesh[i]):.6g}: phi grows beyond 1e308")

    phi_vals = phis[np.searchsorted(mesh, t_nodes)]
    # Final cell [nodes[-2], 1]: linear continuation in t.
    phi_end = phi_vals[-1] + q * (0.0 - t_nodes[-1])
    full = np.concatenate([phi_vals, [phi_end]])
    return RadialFunction(grid, full / np.max(full), dirichlet=False)


def transform_s(pot: Potential, phi: RadialFunction) -> GroundStateResult:
    """The ground-state record of `pot` from its shot solution phi: the
    stretch log s(r), anchored so s(1/e) = 1 exactly, and the Kato tag.

    d(log s)/dt = 1/phi(t)^2 in t = log r, integrated by the trapezoid
    rule outward from r = 1/e; s(1) is declared divergent when the
    log s increments over the last two (1-r)-decades fail to collapse,
    else extrapolated geometrically.  A phi so small against its maximum
    that 1/phi^2 overflows raises StepFailureError.
    """
    nodes = phi.grid.nodes
    vals = phi.values
    if np.any(vals[:-1] <= 0.0):
        raise NodalSolutionError(nodes[int(np.argmax(vals[:-1] <= 0.0))])
    t = np.log(nodes[:-1])
    with np.errstate(under="ignore", divide="ignore", over="ignore"):
        integ = 1.0 / (vals[:-1] ** 2)
    if not np.isfinite(integ).all():
        i = int(np.argmin(np.isfinite(integ)))
        raise StepFailureError(
            f"1/phi^2 overflows at r = {nodes[i]:.6g} (phi = {vals[i]:.3g} "
            "of its maximum): phi spans more than the double range")
    # Trapezoid increments, summed outward from the anchor t = -1 (r =
    # 1/e) both ways, its cell split at theta (clamped to the end nodes).
    # A sum from the centre, where 1/phi^2 reaches 1e84 at V = -1e4, less
    # its value at the anchor would lose the rim's increments.
    inc = 0.5 * (integ[1:] + integ[:-1]) * np.diff(t)
    j = min(max(int(np.searchsorted(t, -1.0)) - 1, 0), inc.size - 1)
    theta = min(max((-1.0 - t[j]) / (t[j + 1] - t[j]), 0.0), 1.0)
    left = np.cumsum(np.concatenate([[theta * inc[j]], inc[:j][::-1]]))
    right = np.cumsum(np.concatenate([[(1.0 - theta) * inc[j]],
                                      inc[j + 1:]]))
    logs_interior = np.concatenate([-left[::-1], right])

    # Increments of log s over the last decades of 1 - r (np.interp
    # holds the end values outside the grid).
    probes = np.log(1.0 - np.array([1e-6, 1e-7, 1e-8]))
    inc_prev, inc_last = np.diff(np.interp(probes, t, logs_interior)).tolist()
    divergent = inc_last > DIV_INCREMENT and inc_last > DIV_RATIO * inc_prev

    # Continuation over the final cell and geometric tail estimate; the
    # continuation is capped so a vanishing rim value (critical case,
    # 1/phi^2 ~ 1e16) cannot dominate log s at the rim.
    logs_end = logs_interior[-1] + min((0.0 - t[-1]) * integ[-1], 500.0)
    if divergent:
        log_s_at_1 = math.inf
    else:
        ratio = min(inc_last / inc_prev, 0.95) if inc_prev > 0 else 0.0
        tail = inc_last * ratio / (1.0 - ratio) if ratio > 0 else 0.0
        log_s_at_1 = float(logs_end + tail)
    log_s = np.concatenate([logs_interior, [logs_end]])

    # Linear behavior s(r) ~ gamma r at the center, fitted in log space
    # on the smallest decade of nodes.
    small = nodes <= nodes[0] * 10.0
    log_gamma = float(np.median(log_s[small] - np.log(nodes[small])))

    try:
        kato_ok = bool(check_kato(pot, KATO_ALPHA).ok)
    except SingularEvaluationError:  # V is not finite on the sampled radii
        kato_ok = False
    return GroundStateResult(pot, phi, kato_ok, log_s, log_s_at_1, log_gamma,
                             {"inc_prev_decade": inc_prev,
                              "inc_last_decade": inc_last})


@dataclass
class CoercivityResult:
    classification: str
    result: GroundStateResult | None
    detail: str


def classify_coercivity(pot: Potential, grid: RadialGrid) -> CoercivityResult:
    """Weakly coercive / ground state / indefinite verdict for Q_V.

    WeaklyCoercive: finite stretch s(1).
    GroundStateDetected: divergent stretch; phi vanishing at the rim (the
    critical case) forces it.
    Indefinite: the shot solution crosses zero (V too strong).
    An integrator failure is no verdict: its StepFailureError propagates.
    """
    try:
        gs = transform_s(pot, shoot(pot, grid))
    except NodalSolutionError as exc:
        return CoercivityResult(INDEFINITE, None,
                                f"nodal solution at r = {exc.radius:.6g}")
    if gs.s_divergent:
        return CoercivityResult(
            GROUND_STATE, gs,
            "stretch diverges (log s increment "
            f"{gs.diagnostics['inc_last_decade']:.4g} per decade)")
    # An s(1) beyond the double range is shown by its logarithm.
    stretch = (f"s(1) = {gs.s_at_1:.6g}" if math.isfinite(gs.s_at_1)
               else f"log s(1) = {gs.log_s_at_1:.6g}")
    return CoercivityResult(WEAKLY_COERCIVE, gs,
                            f"{stretch}, phi(1) = {gs.phi_at_1:.6g}")
