import numpy as np
import pytest

from susyhier import Grid, GridTooCoarseError, InvalidModelError, UnitSystem, symmetric_grid
from susyhier.grids import symmetric_points


def test_grid_basics():
    g = Grid(0.0, 1.0, 21)
    assert g.h == pytest.approx(0.05)
    x = g.points()
    assert len(x) == 21
    assert x[0] == 0.0 and x[-1] == 1.0


def test_grid_refined_halves_spacing():
    g = Grid(-2.0, 3.0, 101)
    f = g.refined()
    assert f.n_points == 201
    assert f.h == pytest.approx(g.h / 2.0)
    # shared endpoints, coarse points are a subset
    assert np.allclose(f.points()[::2], g.points())


def test_grid_validation():
    with pytest.raises(GridTooCoarseError):
        Grid(0.0, 1.0, 8)
    with pytest.raises(InvalidModelError):
        Grid(1.0, 1.0, 100)
    with pytest.raises(InvalidModelError):
        Grid(2.0, -2.0, 100)


@pytest.mark.parametrize("x_min, x_max, n_points", [
    (-1e308, 1e308, 101),       # x_max - x_min overflows: h = inf
    (0.0, 5e-324, 101),         # the one-subnormal window divided by 100 underflows: h = 0
], ids=["inf", "zero"])
def test_grid_refuses_spacing_that_is_not_finite_and_positive(x_min, x_max, n_points):
    with pytest.raises(InvalidModelError, match="grid spacing"):
        Grid(x_min, x_max, n_points)


def test_symmetric_grid_coerces_odd_count():
    g = symmetric_grid(5.0, 100)
    assert g.n_points % 2 == 1
    assert g.x_min == -5.0 and g.x_max == 5.0


def test_symmetric_points_exact_antisymmetry():
    """x_i + x_{-i} must be exactly 0.0 so the PT reflection test is roundoff-free."""
    g = symmetric_grid(7.0, 257)
    x = symmetric_points(g)
    assert np.all(x + x[::-1] == 0.0)
    assert x[len(x) // 2] == 0.0


def test_symmetric_points_rejects_offset_grid():
    with pytest.raises(InvalidModelError):
        symmetric_points(Grid(-1.0, 2.0, 31))


def test_units_defaults_and_derived():
    u = UnitSystem()
    assert u.hbar == 1.0 and u.mass == 0.5 and u.e_sq == 1.0
    assert u.beta == pytest.approx(2.0)
    assert u.kinetic == pytest.approx(1.0)
    u1 = UnitSystem(hbar=1.0, mass=1.0, e_sq=1.0)
    assert u1.beta == pytest.approx(1.0)
    assert u1.kinetic == pytest.approx(0.5)


def test_units_validation():
    with pytest.raises(InvalidModelError):
        UnitSystem(hbar=0.0)
    with pytest.raises(InvalidModelError):
        UnitSystem(mass=-1.0)
    with pytest.raises(InvalidModelError):
        UnitSystem(e_sq=float("nan"))
