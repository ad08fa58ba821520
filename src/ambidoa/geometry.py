"""Directions on the sphere: coordinate conversions, great-circle distance,
and the quasi-uniform class grid used by the categorical estimator.

Conventions
-----------
A direction is a unit 3-vector ``u = (cos(az) cos(el), sin(az) cos(el), sin(el))``
with azimuth in (-pi, pi] and elevation in [-pi/2, pi/2]. At the poles the
azimuth is fixed to 0 so that conversions are total functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "to_cartesian",
    "to_spherical",
    "great_circle",
    "SphereGrid",
    "build_grid",
    "nearest_class",
]

COVERAGE_PROBES = 10000


def to_cartesian(azimuth, elevation):
    """Unit vector(s) for azimuth/elevation in radians. Broadcasts."""
    azimuth = np.asarray(azimuth, dtype=np.float64)
    elevation = np.asarray(elevation, dtype=np.float64)
    cos_el = np.cos(elevation)
    return np.stack(
        [np.cos(azimuth) * cos_el, np.sin(azimuth) * cos_el, np.sin(elevation)],
        axis=-1,
    )


def to_spherical(vec):
    """(azimuth, elevation) in radians for a nonzero 3-vector (or stack of them).

    The input is normalized first; at the poles the azimuth is 0.
    """
    v = np.asarray(vec, dtype=np.float64)
    norm = np.linalg.norm(v, axis=-1)
    if np.any(norm == 0.0):
        raise ValueError("cannot convert the zero vector to spherical angles")
    u = v / norm[..., None]
    elevation = np.arcsin(np.clip(u[..., 2], -1.0, 1.0))
    azimuth = np.arctan2(u[..., 1], u[..., 0])
    # atan2(0, 0) already yields 0; enforce it against float dust near the poles
    at_pole = np.isclose(np.abs(u[..., 2]), 1.0, atol=1e-15)
    azimuth = np.where(at_pole, 0.0, azimuth)
    if azimuth.ndim == 0:
        return float(azimuth), float(elevation)
    return azimuth, elevation


def great_circle(a, b):
    """Great-circle distance in radians between two nonzero vectors (or
    broadcastable stacks of them): atan2(|a x b|, a . b), which needs no
    normalization and stays accurate near 0 and pi."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for v in (a, b):
        if np.any(np.linalg.norm(v, axis=-1) == 0.0):
            raise ValueError("great-circle distance is undefined for the zero vector")
    return np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1), np.sum(a * b, axis=-1))


@dataclass(frozen=True)
class SphereGrid:
    """Immutable set of class-center directions covering the sphere.

    ``directions`` is an (n, 3) array of unit vectors; ``resolution`` is the
    nominal angular spacing in degrees used to build it.
    """

    directions: np.ndarray
    resolution: float

    def __len__(self):
        return self.directions.shape[0]

    def to_csv(self, path):
        az, el = to_spherical(self.directions)
        with open(path, "w", encoding="ascii") as f:
            f.write("index,azimuth_deg,elevation_deg\n")
            for i, (a, e) in enumerate(zip(np.degrees(az), np.degrees(el))):
                f.write(f"{i},{a:.6f},{e:.6f}\n")

    def coverage_radius_deg(self, seed=0):
        """Max over ``COVERAGE_PROBES`` random probe directions of the distance
        to the nearest center."""
        rng = np.random.default_rng(seed)
        probes = rng.standard_normal((COVERAGE_PROBES, 3))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        dots = probes @ self.directions.T
        best = np.arccos(np.clip(dots.max(axis=1), -1.0, 1.0))
        return float(np.degrees(best.max()))


def build_grid(resolution):
    """Ring grid: elevation rings every ``resolution`` degrees, each ring holding
    max(1, round(360 cos(el) / resolution)) equally spaced azimuths starting at 0.

    The poles are single points. The class count is a property of this ring
    heuristic and is reported, not matched to any external mesh.
    """
    if not 1.0 <= resolution <= 90.0:
        raise ValueError(f"resolution must be in [1, 90] degrees, got {resolution}")
    elevations = [-90.0 + k * resolution
                  for k in range(int(np.floor(180.0 / resolution + 1e-9)) + 1)]
    if elevations[-1] < 90.0 - 1e-9:
        elevations.append(90.0)  # keep the pole when the step does not divide 180
    rows = []
    for el_deg in elevations:
        el = np.radians(el_deg)
        n_az = max(1, int(round(360.0 * np.cos(el) / resolution)))
        if abs(el_deg) >= 90.0 - 1e-9:
            n_az = 1
        az = 2.0 * np.pi * np.arange(n_az) / n_az
        az = np.where(az > np.pi, az - 2.0 * np.pi, az)
        rows.append(to_cartesian(az, np.full(n_az, el)))
    directions = np.concatenate(rows, axis=0)
    return SphereGrid(directions=directions, resolution=float(resolution))


def nearest_class(grid: SphereGrid, direction):
    """Index of the class center with the smallest angular distance.

    Ties resolve to the lowest index (argmax of the dot product returns the
    first maximum, and the dot product orders identically to the distance).
    Accepts a single vector or an (n, 3) stack; scaling of the input does not
    change the result because only the direction matters.
    """
    d = np.asarray(direction, dtype=np.float64)
    single = d.ndim == 1
    d = np.atleast_2d(d)
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("direction must be a nonzero vector")
    dots = (d / norms) @ grid.directions.T
    idx = np.argmax(dots, axis=1)
    return int(idx[0]) if single else idx
