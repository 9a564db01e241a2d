"""Uniform 1-D grids and the parameter axes of the reality scan."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import GridTooCoarseError, InvalidModelError

if TYPE_CHECKING:
    import numpy as np

MIN_POINTS = 16


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n_points samples including both endpoints."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise InvalidModelError("grid endpoints must be finite")
        if self.x_max <= self.x_min:
            raise InvalidModelError("x_max must exceed x_min")
        if self.n_points < MIN_POINTS:
            raise GridTooCoarseError(f"need at least {MIN_POINTS} points, got {self.n_points}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise InvalidModelError(f"grid spacing must be finite and positive, got {self.h}")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        import numpy as np
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def refined(self) -> "Grid":
        """Same interval with spacing exactly halved."""
        return Grid(self.x_min, self.x_max, 2 * self.n_points - 1)


def symmetric_grid(half_width: float, n_points: int) -> Grid:
    """Grid on [-L, L]; points come out exactly antisymmetric for odd n_points."""
    if n_points % 2 == 0:
        n_points += 1
    return Grid(-half_width, half_width, n_points)


def symmetric_points(grid: Grid) -> np.ndarray:
    """Samples of a symmetric grid, built index-wise so x[i] == -x[n-1-i] exactly."""
    import numpy as np
    n = grid.n_points
    if abs(grid.x_min + grid.x_max) > 1e-12 * abs(grid.x_max - grid.x_min):
        raise InvalidModelError("grid is not symmetric about 0")
    m = (n - 1) / 2.0
    return (np.arange(n) - m) * grid.h


@dataclass(frozen=True)
class ScanAxis:
    """One swept component of a complex parameter of the rational well."""

    param: str        # "v0" | "q"
    component: str    # "re" | "im"
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.param not in ("v0", "q"):
            raise InvalidModelError(f"scan parameter must be v0 or q, got {self.param!r}")
        if self.component not in ("re", "im"):
            raise InvalidModelError(f"scan component must be re or im, got {self.component!r}")
        if self.count < 1:
            raise InvalidModelError("scan count must be >= 1")

    def values(self) -> np.ndarray:
        import numpy as np
        return np.linspace(self.start, self.stop, self.count)
