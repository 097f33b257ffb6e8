"""Conductivity profiles and standard test fields.

Profiles are callables x -> m(x) (the deviation gamma^{1/2} - 1) so they can
be resampled on any grid; `make_conductivity` snaps them to a grid and
enforces compact support inside omega by zeroing exterior nodes.
"""

from __future__ import annotations

import inspect

import numpy as np

from .core import Grid
from .operators import Conductivity


def bump_m(amplitude: float = 0.3, center: float = 0.0, width: float = 0.3):
    """Smooth compactly supported bump, peak `amplitude` at `center`.

    m(x) = amplitude * exp(1 - 1/(1 - t^2)) on |t| < 1, t = (x-center)/width.
    Raises ValueError unless width > 0.
    """
    if not width > 0:
        raise ValueError(f"bump_m: width={width} must be > 0")

    def m(x):
        x = np.asarray(x, dtype=float)
        t = (x - center) / width
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
        return out

    return m


def double_bump_m(amplitude: float = 0.25, separation: float = 0.45,
                  width: float = 0.18, center: float = 0.0):
    """Two bumps of opposite sign straddling `center`."""
    left = bump_m(amplitude, center - separation / 2.0, width)
    right = bump_m(-0.6 * amplitude, center + separation / 2.0, width)

    def m(x):
        return left(x) + right(x)

    return m


def random_admissible_m(seed: int, amplitude: float = 0.25,
                        center: float = 0.0, width: float = 0.35):
    """Seeded random smooth deviation: four low-order cosines under a bump
    envelope.

    Keeps gamma = (1+m)^2 inside roughly [0.5, 2] for amplitude <= 0.4.
    """
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-1.0, 1.0, size=4)
    coef /= max(1.0, np.abs(coef).sum())
    envelope = bump_m(1.0, center, width)

    def m(x):
        x = np.asarray(x, dtype=float)
        t = (x - center) / width
        osc = sum(c * np.cos(np.pi * (k + 1) * t / 2.0) for k, c in enumerate(coef))
        return amplitude * envelope(x) * osc

    return m


def constant_m():
    def m(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return m


def make_conductivity(grid: Grid, m_fn) -> Conductivity:
    """Sample a deviation profile on the grid; exterior nodes are forced to 0."""
    m = np.asarray(m_fn(grid.nodes), dtype=float)
    m[grid.exterior_idx] = 0.0
    return Conductivity.from_m(grid, m)


_PROFILES = {"constant": constant_m, "bump": bump_m,
             "double-bump": double_bump_m, "random": random_admissible_m}


def profile_from_name(name: str, seed: int = 0, **shape):
    """CLI-facing registry: constant | bump | double-bump | random.

    `shape` holds keyword arguments of the profile's function, whose
    signature carries the defaults; a keyword it does not take raises
    ValueError naming the key and the profile.  `seed` reaches only the
    profiles that draw one (random)."""
    fn = _PROFILES.get(name) if isinstance(name, str) else None
    if fn is None:
        raise ValueError(f"unknown gamma profile {name!r}")
    params = inspect.signature(fn).parameters
    unread = sorted(set(shape) - set(params))
    if unread:
        raise ValueError(f"profile {name!r} does not read {unread}")
    if "seed" in params:
        shape["seed"] = int(seed)
    return fn(**shape)


def gaussian(center: float = 0.0, sigma: float = 1.0):
    def u(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-((x - center) ** 2) / (2.0 * sigma**2))

    return u
