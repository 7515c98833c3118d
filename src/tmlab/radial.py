"""Radial profiles on the unit disk and their quadrature.

A radial function u(r) on the disk B = {|x| < 1} is stored as node values
on a graded grid over (0, 1], interpreted piecewise linearly between nodes
and constantly to the left of the first node (regular center).  All
integrals over B reduce to one-dimensional weighted integrals,

    integral_B F(u(|x|)) dx  =  2 pi  int_0^1 F(u(r)) r dr,

and are evaluated by composite rules on the grid cells:

  * one sampling for every value integral: the center cap (u(r0) at
    r0/2, area pi r0^2), then the cell midpoints; it never touches r = 0
    or r = 1, so weights with log/power singularities there stay finite,
  * cellwise slopes for the Dirichlet energy 2 pi int u'(r)^2 r dr.

Both are one tridiagonal form in the node values, Q(u) = u^T (A - M_V) u;
its operator (cell stiffness, the sampling's mass and transpose, (diag,
off) pairs, their product, the closed-form stiffness solve) lives here
beside them.

Every quadrature sum is correctly rounded: `exact_sum` returns the float
nearest the exact sum of its terms (the value math.fsum gives), so the
result does not depend on the order of the terms.  One vectorized
extraction decides a quadrature's same-sign terms; any sum it cannot
decide goes to math.fsum.  Weighted integrals take the weight as its
samples at grid.sample_r, given by the caller (potentials.sample), so a
caller samples once per grid and this module evaluates no field.  The
module, like the whole package, needs only numpy.  Grids and profiles
are finite by construction: the constructors reject non-finite nodes
and values.

The default grid clusters nodes geometrically toward both endpoints
(first node 1e-8, last interior node 1 - 1e-8) because the singular
weights of interest live at r = 0 and r = 1 on a logarithmic scale.

All routines are pure functions of their inputs; values are freely
shareable across threads and results are deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

DEFAULT_N = 4096
DEFAULT_EDGE = 1e-8


def log_inv(r):
    """log(1/r) as -log(r): the reciprocal's rounding would cost eight
    digits of log(1/r) near r = 1, the direct form keeps full accuracy."""
    return -np.log(np.asarray(r, dtype=float))


def one_minus_r_sq(r):
    """1 - r^2 as (1-r)(1+r): the subtraction 1-r is exact for r >= 0.5,
    so the product keeps full relative accuracy at the rim."""
    r = np.asarray(r, dtype=float)
    return (1.0 - r) * (1.0 + r)


class RadialGrid:
    """Strictly increasing radii in (0, 1] with nodes[-1] == 1."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise InvalidInputError("grid needs at least 2 nodes")
        if not np.all(np.isfinite(nodes)):
            raise InvalidInputError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise InvalidInputError("grid nodes must be strictly increasing")
        if nodes[0] <= 0.0:
            raise InvalidInputError("grid nodes must be positive")
        if nodes[-1] != 1.0:
            raise InvalidInputError("last grid node must be exactly 1")
        self.nodes = nodes
        # Cell geometry, reused by every quadrature below.
        self.widths = np.diff(nodes)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        self.cell_areas = 2.0 * math.pi * mids * self.widths
        # The sampling rule of every value integral: abscissae and areas
        # of the center cap r < nodes[0], where profiles extend
        # constantly, followed by the cells at their midpoints.  The cap
        # is negligible (~1e-16) on default grids, but rearranged
        # profiles can carry a wide top plateau entirely inside it.
        self.sample_r = np.concatenate([[0.5 * nodes[0]], mids])
        self.cap_areas = np.concatenate([[math.pi * nodes[0] ** 2],
                                         self.cell_areas])

    def __len__(self):
        return self.nodes.size

    def __eq__(self, other):
        return isinstance(other, RadialGrid) and np.array_equal(
            self.nodes, other.nodes
        )

    @classmethod
    def default(cls, n: int = DEFAULT_N) -> "RadialGrid":
        """Doubly graded grid: geometric toward r=0 and toward r=1.

        nodes[0] = e, nodes[n-2] = 1 - e, nodes[n-1] = 1 with
        e = DEFAULT_EDGE.
        """
        if n < 16:
            raise InvalidInputError("default grid needs n >= 16")
        n_left = n // 2
        n_right = n - n_left
        left = np.geomspace(DEFAULT_EDGE, 0.5, n_left)
        right = 1.0 - np.geomspace(0.5, DEFAULT_EDGE, n_right)[1:]
        return cls(np.concatenate([left, right, [1.0]]))


class RadialFunction:
    """Piecewise-linear radial profile on a RadialGrid.

    Evaluation left of the first node is constant (value at nodes[0]);
    with the Dirichlet flag set the value at r = 1 must be zero.
    """

    def __init__(self, grid: RadialGrid, values, dirichlet: bool = True):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.nodes.shape:
            raise InvalidInputError("values must match grid nodes")
        if not np.isfinite(values).all():
            raise InvalidInputError("profile values must be finite")
        if dirichlet and values[-1] != 0.0:
            raise InvalidInputError("Dirichlet profile must vanish at r = 1")
        self.grid = grid
        self.values = values
        self.dirichlet = dirichlet

    @classmethod
    def zero(cls, grid: RadialGrid) -> "RadialFunction":
        return cls(grid, np.zeros(len(grid)), dirichlet=True)

    def __call__(self, r):
        """Evaluate by linear interpolation (constant left of nodes[0])."""
        return np.interp(r, self.grid.nodes, self.values)

    def samples(self) -> np.ndarray:
        """Values at grid.sample_r: u(r0) on the center cap, then the
        interpolant at the cell midpoints."""
        v = self.values
        s = np.empty(v.size)
        s[0] = v[0]
        np.add(v[:-1], v[1:], out=s[1:])
        s[1:] *= 0.5
        return s

    def scaled(self, c: float) -> "RadialFunction":
        return RadialFunction(self.grid, c * self.values,
                              dirichlet=self.dirichlet)

    # -- CSV round trip (two columns r,value; 17 significant digits) --

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("r,value\n")
            for r, v in zip(self.grid.nodes, self.values):
                fh.write(f"{r:.17g},{v:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "RadialFunction":
        """Read to_csv's file, or the CLI's with its `#` lines."""
        try:
            with open(path) as fh:
                for line in fh:  # through the column row
                    if not line.startswith("#"):
                        break
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: {exc}") from exc
        if rows.shape[1] != 2:
            raise InvalidInputError(f"{path}: expected two columns r,value")
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise InvalidInputError(f"{path}: non-finite value in data row "
                                    f"{int(np.argmin(finite)) + 1}")
        grid = RadialGrid(rows[:, 0])
        vals = rows[:, 1]
        return cls(grid, vals, dirichlet=(vals[-1] == 0.0))


# ---------------------------------------------------------------------------
# quadrature operations
# ---------------------------------------------------------------------------

def exact_sum(x) -> float:
    """Correctly rounded sum of a float array, bit for bit math.fsum(x).

    One error-free extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation part I", SIAM J. Sci. Comput. 31, 2008,
    Lemma 3.3): with m = max|x| <= 2^-k sigma, sigma a power of two and
    2^k > n + 2, q = (x + sigma) - sigma and r = x - q are exact, every
    q_i is a multiple of ulp(sigma)/2 with sum |q_i| < sigma, so sum(q)
    is exact in any order, and |r_i| <= 2^-53 sigma, so sum|r| <=
    n 2^-53 sigma.  Any summation order of the n terms of r errs by at
    most (n - 1) 2^-53 sum|r| / (1 - (n - 1) 2^-53), below
    e = 2 (n + 1) n 2^-106 sigma: an integer times a power of two, exact
    while it is a normal double.
    Once fsum((sum(q), s, e)) equals fsum((sum(q), s, -e)), s the float
    sum of r, that value is fsum(x), since rounding is monotone (Rump,
    Ogita and Oishi's stopping test).

    Every other input goes to math.fsum(x): a sum that cancels below e, an
    e that is subnormal or zero, and zero, non-finite and near-overflow
    input (which keeps fsum's signed zero, inf/nan results and
    exceptions).  The package's quadratures (same-sign terms) end on the
    one test, unless their total sits within e of a rounding boundary
    (at most 2^-15 of its ulp at n = 4096).
    """
    x = np.asarray(x, dtype=float)
    # max|x| with no |x| temporary; a nan propagates through both ends.
    m = max(x.max(), -x.min()) if x.size else 0.0
    if not 0.0 < m < 2.0 ** 900:
        return math.fsum(x)
    k = math.frexp(m)[1] + (x.size + 2).bit_length()
    sigma = math.ldexp(1.0, k)
    q = x + sigma
    q -= sigma
    head = float(q.sum())
    np.subtract(x, q, out=q)  # the residual r
    s = float(q.sum())
    e = math.ldexp((x.size + 1) * x.size, k - 105)  # 2 (n+1) n 2^-106 sigma
    if e >= 2.0 ** -1022:  # the smallest normal double
        total = math.fsum((head, s, e))
        if total == math.fsum((head, s, -e)):
            return total
    return math.fsum(x)


def derivative(u: RadialFunction) -> np.ndarray:
    """Cellwise slope du/dr of the piecewise-linear interpolant."""
    v = u.values
    return (v[1:] - v[:-1]) / u.grid.widths


def gradient_norm_sq(u: RadialFunction) -> float:
    """Dirichlet energy 2 pi int_0^1 u'(r)^2 r dr.

    Exact for the piecewise-linear interpolant up to the midpoint-rule
    cell error of the weight r.  The center disk r < nodes[0] carries no
    energy (constant extension).
    """
    s = derivative(u)
    s *= s
    s *= u.grid.cell_areas
    return exact_sum(s)


def lp_norm(u: RadialFunction, p: float) -> float:
    """(2 pi int |u|^p r dr)^(1/p) over the cap-and-midpoint samples.

    The p-th powers are summed as they are, so a finite norm keeps its
    bits.  If their sum overflows, or underflows to 0 for a nonzero
    profile, the norm has no double value: FloatingPointError."""
    if p < 1:
        raise InvalidInputError(f"lp_norm needs p >= 1, got {p}")
    terms = u.samples()
    np.abs(terms, out=terms)
    with np.errstate(over="ignore"):
        np.power(terms, p, out=terms)
        terms *= u.grid.cap_areas
    total = exact_sum(terms)
    if not total < math.inf or (total == 0.0 and u.values.any()):
        raise FloatingPointError(
            f"||u||_{p:g}: the sum of |u|^p "
            f"{'overflows' if total else 'underflows to 0'}")
    return total ** (1.0 / p)


def integral_weighted(u: RadialFunction, ws: np.ndarray) -> float:
    """2 pi int_0^1 w(r) u(r)^2 r dr over the cap-and-midpoint samples,
    given the finite weights ws = w(u.grid.sample_r)."""
    s = u.samples()
    s *= ws * s  # (ws s) s: products commute exactly
    s *= u.grid.cap_areas
    return exact_sum(s)


# ---------------------------------------------------------------------------
# the discrete quadratic form: Q(u) = u^T (A - M_V) u
# ---------------------------------------------------------------------------

def cell_stiffness(grid: RadialGrid) -> np.ndarray:
    """Cell coefficients ke = area / width^2 of the stiffness A:
    gradient_norm_sq(u) = sum ke (u_i - u_{i+1})^2 in exact arithmetic."""
    h = grid.widths
    return grid.cell_areas / (h * h)


def scatter(cells: np.ndarray) -> np.ndarray:
    """Each cell value added to both of its nodes: the transpose of the
    average onto midpoints, up to its factor 1/2."""
    out = np.zeros(cells.size + 1)
    out[:-1] += cells
    out[1:] += cells
    return out


def value_gradient(u: RadialFunction, df: np.ndarray) -> np.ndarray:
    """Nodal gradient of sum_s area_s F(u_s), u_s = u.samples(), given
    df = F'(u_s): the sampling's transpose applied to area df (the cap
    term on node 0, half of each cell's on both of its nodes)."""
    c = df * u.grid.cap_areas
    g = scatter(0.5 * c[1:])
    g[0] += c[0]
    return g


def tridiagonal(cells: np.ndarray, sign: float):
    """(diag, off) of the symmetric T with x^T T x = sum c_i (x_i + sign
    x_{i+1})^2.  The stiffness A is (cell_stiffness, -1); see mass for
    M_w."""
    return scatter(cells), sign * cells


def mass(grid: RadialGrid, w: np.ndarray):
    """(diag, off) of the mass M_w with x^T M_w x = sum_s w_s area_s
    (S x)_s^2, S the sampling of RadialFunction.samples and w given at
    grid.sample_r: 0.25 w area on each cell's two nodes and their
    coupling, plus the cap term w_0 cap on entry 0 of diag.  For
    ws = V(grid.sample_r), integral_weighted(u, ws) is u^T M_ws u."""
    diag, off = tridiagonal(0.25 * w[1:] * grid.cell_areas, 1.0)
    diag[0] += w[0] * grid.cap_areas[0]
    return diag, off


def tridiag_apply(matrix, x: np.ndarray) -> np.ndarray:
    """The product T x of a (diag, off) pair from tridiagonal."""
    diag, off = matrix
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def energy_solve(ke: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """w with A w = g for the Dirichlet-reduced stiffness A (w[-1] = 0,
    g[-1] ignored) and w^T A w, in closed form: rows 0..i sum to
    ke_i (w_i - w_{i+1}) = F_i = g_0 + ... + g_i, so w is the reverse
    cumsum of d = F / ke and w^T A w = sum F d.  For g >= 0 rounding is
    monotone, so w is nonnegative and nonincreasing bit for bit."""
    f = np.cumsum(g[:-1])
    d = f / ke
    w = np.zeros(len(g))
    w[:-1] = np.cumsum(d[::-1])[::-1]
    return w, float(f @ d)
