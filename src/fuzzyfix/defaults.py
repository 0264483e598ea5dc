"""Shared default grids and tolerances.

Every check in the package certifies properties on explicit finite grids.
The defaults below are used whenever a caller or scenario does not supply
its own grid; reports always echo the grid actually used.
"""

from __future__ import annotations

import numpy as np

# Nearness thresholds r (and their mirror 1-r) live in the open interval
# (0,1).  Degenerate user values are clamped away from the endpoints.
ENDPOINT_CLAMP = 1e-6

# 19 thresholds 0.05, 0.10, ..., 0.95.
DEFAULT_R_GRID: tuple[float, ...] = tuple(i / 20 for i in range(1, 20))

# Distance thresholds for phi-style gauges also need values above 1.
DEFAULT_EPS_GRID: tuple[float, ...] = DEFAULT_R_GRID + (1.0, 2.0, 5.0)

# 40 logarithmically spaced scales covering both small-t and large-t regimes.
DEFAULT_T_GRID: tuple[float, ...] = tuple(float(t) for t in np.logspace(-2.0, 2.0, 40))

# Sampling resolution used when a class condition quantifies over an interval.
DEFAULT_TAU_RESOLUTION = 1e-4

# Slack for float comparisons inside class-condition checks. Branch values of
# the built-in step gauges agree with grid thresholds only up to rounding.
CLASS_TOL = 1e-12

# Bisection depth for every rho/delta search.
BISECT_ITERS = 40


def _grid(values, what: str) -> tuple[float, ...]:
    grid = tuple(values)
    if not grid:        # a verdict on an empty grid would rest on no record
        from .algebra import DomainError     # algebra imports this module
        raise DomainError(f"a grid needs at least one {what}")
    return grid


def scale_grid(t_grid) -> tuple[float, ...]:
    """The scale grid ``t_grid`` as floats, or ``DEFAULT_T_GRID`` when it is
    None."""
    return _grid(map(float, DEFAULT_T_GRID if t_grid is None else t_grid),
                 "scale")


def threshold_grid(r_grid) -> tuple[float, ...]:
    """The threshold grid ``r_grid`` (``DEFAULT_R_GRID`` when None), clamped
    into the open interval (0,1)."""
    lo, hi = ENDPOINT_CLAMP, 1.0 - ENDPOINT_CLAMP
    grid = DEFAULT_R_GRID if r_grid is None else r_grid
    return _grid((min(max(float(g), lo), hi) for g in grid), "threshold")


def clamp_positive_grid(grid) -> tuple[float, ...]:
    """Clamp grid values to be strictly positive."""
    return _grid((max(float(g), ENDPOINT_CLAMP) for g in grid), "threshold")
