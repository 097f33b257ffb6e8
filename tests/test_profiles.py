import numpy as np
import pytest

from fraccond.core import Grid
from fraccond.profiles import (
    bump_m,
    double_bump_m,
    gaussian,
    make_conductivity,
    profile_from_name,
    random_admissible_m,
)


def test_bump_support_and_peak():
    m = bump_m(0.3, 0.1, 0.2)
    x = np.linspace(-1, 1, 2001)
    vals = m(x)
    assert vals.max() == pytest.approx(0.3, rel=1e-6)
    assert np.all(vals[np.abs(x - 0.1) >= 0.2] == 0.0)


def test_make_conductivity_zeroes_exterior():
    g = Grid(L=1.0, N=64, a=-0.3, b=0.3)
    gam = make_conductivity(g, bump_m(0.3, 0.0, 0.5))  # wider than omega
    assert np.all(gam.m_values[g.exterior_idx] == 0.0)


def test_double_bump_has_two_signs():
    m = double_bump_m(0.25, 0.45, 0.18)
    x = np.linspace(-1, 1, 2001)
    vals = m(x)
    assert vals.max() > 0.0
    assert vals.min() < 0.0


def test_random_admissible_deterministic_and_bounded():
    m1 = random_admissible_m(seed=5, amplitude=0.3)
    m2 = random_admissible_m(seed=5, amplitude=0.3)
    x = np.linspace(-1, 1, 501)
    assert np.array_equal(m1(x), m2(x))
    assert np.max(np.abs(m1(x))) <= 0.3 + 1e-12
    g = Grid(L=1.0, N=64, a=-0.4, b=0.4)
    gam = make_conductivity(g, m1)
    assert gam.values.min() >= 0.4
    assert gam.values.max() <= 2.5


def test_registry_and_unknown_profile():
    assert profile_from_name("constant")(np.array([0.0]))[0] == 0.0
    assert profile_from_name("bump", amplitude=0.2)(np.array([0.0]))[0] > 0.0
    profile_from_name("double-bump")
    profile_from_name("random", seed=3)
    with pytest.raises(ValueError):
        profile_from_name("sawtooth")


def test_registry_takes_each_profiles_own_keywords_and_defaults():
    x = np.linspace(-1, 1, 201)
    assert np.array_equal(profile_from_name("bump")(x), bump_m()(x))
    assert np.array_equal(profile_from_name("random", seed=4)(x),
                          random_admissible_m(4)(x))
    # the seed reaches only the profile that draws one
    assert np.array_equal(profile_from_name("bump", seed=4)(x), bump_m()(x))
    for name, key in (("bump", "separation"), ("constant", "amplitude"),
                      ("random", "separation")):
        with pytest.raises(ValueError, match=f"{name}.*{key}"):
            profile_from_name(name, **{key: 0.1})


def test_gaussian_field():
    u = gaussian(1.0, 2.0)
    assert u(np.array([1.0]))[0] == 1.0
    assert u(np.array([3.0]))[0] == pytest.approx(np.exp(-0.5))
