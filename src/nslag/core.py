"""Problem setup: physical constants, staggered grid, state, initial data.

The gas occupies a mass half-line truncated to (0, L_far): a uniform
resolved zone (0, L) and, beyond it, a graded far zone, empty if L_far = L.
Velocity u lives on the N+1 cell faces, specific volume v and temperature
theta on the N cell centers.  Face 0 is the wall where the total stress is
prescribed (outer pressure condition), face N carries the far-field state
(v, u, theta) = (1, 0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ConfigError(ValueError):
    """Bad configuration value or inconsistent setup."""


@dataclass(frozen=True)
class Params:
    """Physical constants of the gas model.

    Pressure law P = R*theta/v, heat conductivity kappa*theta**beta, constant
    dynamic viscosity mu.  The wall stress is -R: the outer pressure equals
    R so the far-field state (1, 0, 1) satisfies the wall condition.
    """

    mu: float = 1.0
    kappa: float = 1.0
    beta: float = 1.0
    R: float = 1.0
    cv: float = 1.0

    def __post_init__(self):
        for name in ("mu", "kappa", "R", "cv"):
            val = getattr(self, name)
            if not 0.0 < val < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {val}")
        if not 0.0 <= self.beta < math.inf:
            raise ConfigError(
                f"beta must be nonnegative and finite, got {self.beta}")


@dataclass(frozen=True)
class Grid:
    """Staggered grid: N cells between N+1 faces on (0, far_length).

    The resolved zone (0, length) holds uniform cells of width h.  Each
    entry of far_counts adds one unit mass interval beyond it, split into
    that many equal cells; with no entries the grid is uniform and
    n_cells*h spans (0, length).
    """

    length: float
    n_cells: int
    h: float
    far_counts: tuple = ()

    @cached_property
    def n_resolved(self):
        """Number of cells in the resolved zone (0, length)."""
        return self.n_cells - sum(self.far_counts)

    @cached_property
    def unit_cells(self):
        """Cells per unit interval, 1/h; ConfigError unless h divides 1."""
        k = round(1.0 / self.h)
        if k < 1 or abs(k * self.h - 1.0) > 1e-9:
            raise ConfigError(
                f"cell size {self.h} does not divide the unit mass interval")
        return k

    @property
    def far_length(self):
        """Mass depth of the last face, where the rest state is pinned."""
        return self.length + len(self.far_counts)

    def faces(self):
        """Face coordinates: i*h in the resolved zone, then the far faces."""
        near = np.arange(self.n_resolved + 1) * self.h
        far = [self.length + m + np.arange(1, c + 1) / c
               for m, c in enumerate(self.far_counts)]
        return np.concatenate([near] + far)

    def centers(self):
        """Cell centers: (j + 1/2)*h in the resolved zone, then midpoints."""
        near = (np.arange(self.n_resolved) + 0.5) * self.h
        x = self.faces()[self.n_resolved:]
        return np.concatenate([near, 0.5 * (x[:-1] + x[1:])])

    @cached_property
    def dx(self):
        """Cell widths h_j, one per cell."""
        counts = np.array(self.far_counts, dtype=int)
        return np.concatenate([np.full(self.n_resolved, self.h),
                               np.repeat(1.0 / counts, counts)])

    def scaled_dx(self, factor):
        """factor*dx, computed once per factor and kept with the grid."""
        memo = self.__dict__.setdefault("_scaled_dx", {})
        if factor not in memo:
            memo[factor] = factor * self.dx
        return memo[factor]

    @cached_property
    def dm(self):
        """Face control masses: (h_{i-1} + h_i)/2, half a cell at both ends."""
        dx = self.dx
        return np.concatenate(([0.5 * dx[0]], 0.5 * (dx[:-1] + dx[1:]),
                               [0.5 * dx[-1]]))

    @cached_property
    def dc(self):
        """Center distances across faces 1..N.

        m_i on interior faces, the last width h_{N-1} from the last center
        to the far ghost's.
        """
        return np.concatenate((self.dm[1:-1], self.dx[-1:]))

    @cached_property
    def far_windows(self):
        """Arrays of (first cell, cell count) of the far unit intervals."""
        counts = np.array(self.far_counts, dtype=int)
        starts = self.n_resolved + np.cumsum(counts) - counts
        return starts, counts.astype(float)

    @cached_property
    def farfield_start(self):
        """First cell whose right face lies past 0.9*far_length.

        On a uniform grid the cells from here on are the last ceil(N/10).
        Faces within rounding of the cut do not count as past it.
        """
        far = self.far_length
        right = self.faces()[1:]
        return int(np.searchsorted(right, far * (0.9 + 1e-9), side="right"))


def build_grid(length, n_cells, far_length=None):
    """Grid of n_cells cells of width h = length/n_cells on (0, length),
    extended by a graded far zone to (0, far_length), length by default.

    Each unit mass interval beyond length holds ceil(k/2) equal cells, k
    being the previous interval's count (1/h in the resolved zone), down
    to one cell per unit.  far_length - length must be a whole number, and
    h must divide the unit interval when the far zone is not empty.
    """
    if not length > 0:
        raise ConfigError(f"grid length must be positive, got {length}")
    n_cells = int(n_cells)
    if n_cells < 4:
        raise ConfigError(f"need at least 4 cells, got {n_cells}")
    length = float(length)
    grid = Grid(length, n_cells, length / n_cells)
    gap = float(length if far_length is None else far_length) - length
    n_far = round(gap)
    if gap < 0.0 or abs(gap - n_far) > 1e-9:
        raise ConfigError(
            f"far length {far_length} must exceed the grid length {length} "
            f"by a whole number of mass units")
    k = grid.unit_cells if n_far else None
    counts = []
    for _ in range(n_far):
        k = -(-k // 2)
        counts.append(k)
    return Grid(length, n_cells + sum(counts), grid.h, tuple(counts))


@dataclass
class State:
    """Fields at one instant: v, theta on cells, u on faces, u[N] = 0."""

    t: float
    v: np.ndarray
    theta: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class ICSpec:
    """Initial-data recipe: smooth localized perturbations of (1, 0, 1).

    kind 'equilibrium' ignores the amplitudes; 'bump' uses a compactly
    supported cosine-squared hump; 'packet' an oscillatory gaussian.  The
    floor is the smallest admitted initial value of v and theta.
    """

    kind: str = "equilibrium"
    amp_v: float = 0.0
    amp_u: float = 0.0
    amp_theta: float = 0.0
    center: float = 6.0
    width: float = 1.0
    floor: float = 0.1


def _bump_profile(x, center, width):
    # cosine-squared hump, support [center - width, center + width], peak 1
    xi = (np.asarray(x, dtype=float) - center) / width
    out = np.zeros_like(xi)
    m = np.abs(xi) < 1.0
    out[m] = np.cos(0.5 * np.pi * xi[m]) ** 2
    return out


def _packet_profile(x, center, width):
    # gaussian envelope modulated at wavelength = envelope width
    x = np.asarray(x, dtype=float)
    xi = (x - center) / width
    k = 2.0 * np.pi / width
    return np.exp(-xi * xi) * np.cos(k * (x - center))


def equilibrium_state(grid):
    """The rest state (v, u, theta) = (1, 0, 1) at t = 0."""
    n = grid.n_cells
    return State(0.0, np.ones(n), np.ones(n), np.zeros(n + 1))


def make_initial_data(grid, spec):
    """Generate initial data from an ICSpec: finite amplitudes, fields
    at or above the floor.

    The perturbation's support must end inside (0, length/2]: it reaches
    into the domain, and the far boundary starts on the exact far-field
    state.  An error names the config key of the value it refuses.
    """
    if not spec.floor > 0.0:
        raise ConfigError(f"ic.floor = {spec.floor}: the floor must be "
                          f"positive")
    if spec.kind == "equilibrium":
        return equilibrium_state(grid)
    if spec.kind == "bump":
        profile = _bump_profile
        reach = spec.width
    elif spec.kind == "packet":
        profile = _packet_profile
        reach = 4.0 * spec.width  # gaussian tail below 1e-7 of peak
    else:
        raise ConfigError(f"ic.kind = {spec.kind}: unknown kind, expected "
                          f"equilibrium, bump or packet")
    if not spec.width > 0.0:
        raise ConfigError(f"ic.width = {spec.width}: the width must be "
                          f"positive")
    for name in ("amp_v", "amp_u", "amp_theta"):
        amp = getattr(spec, name)
        if not math.isfinite(amp):
            raise ConfigError(f"ic.{name} = {amp}: amplitude must be finite")
    for name, amp in (("amp_v", spec.amp_v), ("amp_theta", spec.amp_theta)):
        if 1.0 - abs(amp) < spec.floor:
            raise ConfigError(
                f"ic.{name} = {amp}: drives the field minimum to "
                f"{1.0 - abs(amp)}, below the floor {spec.floor}")
    # a NaN or infinite center fails too
    if not 0.0 < spec.center + reach <= 0.5 * grid.length:
        raise ConfigError(
            f"ic.center = {spec.center}: the perturbation support ends at "
            f"{spec.center + reach}, outside (0, {0.5 * grid.length}], so it "
            f"misses the domain or passes its midpoint; move the ic or "
            f"resize the grid")
    phi_c = profile(grid.centers(), spec.center, spec.width)
    phi_f = profile(grid.faces(), spec.center, spec.width)
    v = 1.0 + spec.amp_v * phi_c
    theta = 1.0 + spec.amp_theta * phi_c
    u = spec.amp_u * phi_f
    u[-1] = 0.0
    if v.min() < spec.floor or theta.min() < spec.floor:
        raise ConfigError("generated initial data dips below the floor")
    return State(0.0, v, theta, u)
