"""Shoebox room scenes and geometric propagation.

Two propagation models are provided: the exact image-source method (specular
only) and a stochastic ray tracer that mixes specular and Lambertian-diffuse
reflection. The tracer gathers diffuse energy by "diffuse rain": every diffuse
bounce deterministically connects to the listener with cosine weighting, which
keeps variance low at moderate ray counts. Rooms are axis-aligned boxes with
one corner at the origin, so visibility is always 1 and reflections stay cheap.

Path amplitudes from the tracer are sqrt(energy) with positive sign; wall
phase effects and air absorption are ignored throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_SOUND",
    "RoomConfig",
    "Scene",
    "PathSet",
    "sample_scenes",
    "save_scenes",
    "load_scenes",
    "image_source_paths",
    "trace_paths",
    "energy_decay_curve",
    "estimate_rt60",
    "sabine_rt60",
]

SPEED_OF_SOUND = 343.0

WALL_MARGIN = 0.5  # source/listener clearance from every wall, meters


@dataclass(frozen=True)
class RoomConfig:
    """Axis-aligned shoebox room.

    ``absorption`` is either a scalar or a per-wall-pair triple ordered
    (x-walls, y-walls, z-walls); ``scattering`` is the fraction of reflected
    energy that scatters diffusely (Lambertian) instead of specularly.
    """

    dims: np.ndarray
    absorption: np.ndarray
    scattering: float = 0.0
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        dims = np.asarray(self.dims, dtype=np.float64)
        absorption = np.broadcast_to(
            np.asarray(self.absorption, dtype=np.float64), (3,)
        ).copy()
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "absorption", absorption)
        if dims.shape != (3,) or np.any(dims <= 0):
            raise ValueError(f"room dims must be 3 positive lengths, got {self.dims}")
        if np.any(absorption < 0) or np.any(absorption > 1):
            raise ValueError(f"absorption must lie in [0, 1], got {self.absorption}")
        if not 0.0 <= self.scattering <= 1.0:
            raise ValueError(f"scattering must lie in [0, 1], got {self.scattering}")
        if self.speed_of_sound <= 0:
            raise ValueError("speed_of_sound must be positive")

    @property
    def volume(self):
        return float(np.prod(self.dims))

    @property
    def wall_pair_areas(self):
        """Total area per wall pair, ordered (x, y, z)."""
        lx, ly, lz = self.dims
        return np.array([2.0 * ly * lz, 2.0 * lx * lz, 2.0 * lx * ly])


@dataclass(frozen=True)
class Scene:
    """One source-listener pair inside a room."""

    room: RoomConfig
    source: np.ndarray
    listener: np.ndarray

    def __post_init__(self):
        source = np.asarray(self.source, dtype=np.float64)
        listener = np.asarray(self.listener, dtype=np.float64)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "listener", listener)
        for name, p in (("source", source), ("listener", listener)):
            if p.shape != (3,):
                raise ValueError(f"{name} must be a 3-point")
            if np.any(p < WALL_MARGIN) or np.any(p > self.room.dims - WALL_MARGIN):
                raise ValueError(
                    f"{name} {p} violates the {WALL_MARGIN} m wall margin in room "
                    f"{self.room.dims}"
                )
        if np.array_equal(source, listener):
            raise ValueError("source and listener must differ")


@dataclass
class PathSet:
    """Arrivals at the listener in struct-of-arrays form, directions pointing
    toward the apparent source. ``emitted_energy`` records the tracer's budget
    (1.0) so conservation can be checked; the image-source method leaves it
    NaN because its amplitudes are exact pressures, not Monte-Carlo energy.
    """

    directions: np.ndarray  # (n, 3) unit vectors
    delays: np.ndarray  # (n,) seconds
    amplitudes: np.ndarray  # (n,) signed linear
    orders: np.ndarray  # (n,) int
    diffuse: np.ndarray  # (n,) bool
    emitted_energy: float = math.nan

    def __len__(self):
        return self.delays.shape[0]

    @property
    def received_energy(self):
        return float(np.sum(self.amplitudes**2))

    def select(self, index):
        """Arrivals picked by a boolean mask or an index array; keeps the budget."""
        return PathSet(
            directions=self.directions[index],
            delays=self.delays[index],
            amplitudes=self.amplitudes[index],
            orders=self.orders[index],
            diffuse=self.diffuse[index],
            emitted_energy=self.emitted_energy,
        )


# ---------------------------------------------------------------------------
# scene sampling
# ---------------------------------------------------------------------------

ABSORPTION_RANGE = (0.1, 0.7)  # uniform per-room draw when not overridden
DIMS_MIN = (2.5, 2.5, 2.0)  # room dimensions are uniform in [DIMS_MIN, DIMS_MAX]
DIMS_MAX = (10.0, 10.0, 3.0)

def sample_scenes(count, seed, pairs_per_room=3, absorption=None, scattering=None):
    """Sample shoebox scenes; ``pairs_per_room`` consecutive scenes share a room.

    Room dimensions are uniform in [DIMS_MIN, DIMS_MAX] componentwise; sources
    and listeners are uniform in the margin-shrunk interior. Absorption is one
    uniform draw from U[0.1, 0.7] per room unless given; scattering one draw
    from U[0, 1] per room unless given. Deterministic for a fixed seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if pairs_per_room < 1:
        raise ValueError("pairs_per_room must be >= 1")
    rng = np.random.default_rng(seed)
    scenes = []
    n_rooms = -(-count // pairs_per_room)
    for _ in range(n_rooms):
        dims = rng.uniform(DIMS_MIN, DIMS_MAX)
        alpha = rng.uniform(*ABSORPTION_RANGE) if absorption is None else absorption
        scatter = rng.uniform(0.0, 1.0) if scattering is None else scattering
        room = RoomConfig(dims=dims, absorption=alpha, scattering=float(scatter))
        lo = np.full(3, WALL_MARGIN)
        hi = dims - WALL_MARGIN
        for _ in range(pairs_per_room):
            if len(scenes) == count:
                break
            while True:
                source = rng.uniform(lo, hi)
                listener = rng.uniform(lo, hi)
                if not np.array_equal(source, listener):
                    break
            scenes.append(Scene(room=room, source=source, listener=listener))
    return scenes


def save_scenes(scenes, path, seed=None):
    """Write a scene batch to the JSON manifest format."""
    rooms = []
    current = None
    for sc in scenes:
        if current is None or current["_room"] is not sc.room:
            current = {
                "_room": sc.room,
                "dims": sc.room.dims.tolist(),
                "absorption": sc.room.absorption.tolist(),
                "scattering": sc.room.scattering,
                "pairs": [],
            }
            rooms.append(current)
        current["pairs"].append(
            {"source": sc.source.tolist(), "listener": sc.listener.tolist()}
        )
    for r in rooms:
        del r["_room"]
    with open(path, "w", encoding="ascii") as f:
        json.dump({"rooms": rooms, "seed": seed}, f, sort_keys=True)
        f.write("\n")


def load_scenes(path):
    with open(path, "r", encoding="ascii") as f:
        data = json.load(f)
    scenes = []
    for r in data["rooms"]:
        room = RoomConfig(
            dims=np.array(r["dims"]),
            absorption=np.array(r["absorption"]),
            scattering=float(r["scattering"]),
        )
        for pair in r["pairs"]:
            scenes.append(
                Scene(
                    room=room,
                    source=np.array(pair["source"]),
                    listener=np.array(pair["listener"]),
                )
            )
    return scenes


# ---------------------------------------------------------------------------
# image-source method
# ---------------------------------------------------------------------------

def _axis_images(coord, length, max_n):
    """1-D mirror images: index n maps to n*L + s for even n and (n+1)*L - s
    for odd n; |n| is the number of reflections on that axis pair."""
    n = np.arange(-max_n, max_n + 1)
    pos = np.where(n % 2 == 0, n * length + coord, (n + 1) * length - coord)
    return n, pos


def image_source_paths(scene: Scene, max_order):
    """All specular arrivals up to ``max_order`` reflections.

    Amplitude is prod(sqrt(1 - alpha_axis)^bounces) / distance (1/r spreading);
    delay is distance / c; direction is the unit vector from the listener to
    the image position.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    room = scene.room
    n_idx, positions, counts = [], [], []
    for axis in range(3):
        n, pos = _axis_images(scene.source[axis], room.dims[axis], max_order)
        n_idx.append(n)
        positions.append(pos)
        counts.append(np.abs(n))

    cx, cy, cz = np.meshgrid(counts[0], counts[1], counts[2], indexing="ij")
    total = cx + cy + cz
    keep = total <= max_order
    order = total[keep]

    px, py, pz = np.meshgrid(positions[0], positions[1], positions[2], indexing="ij")
    images = np.stack([px[keep], py[keep], pz[keep]], axis=-1)

    offsets = images - scene.listener
    dist = np.linalg.norm(offsets, axis=-1)
    directions = offsets / dist[:, None]
    delays = dist / room.speed_of_sound

    refl = np.sqrt(1.0 - room.absorption)  # per-axis pressure factor per bounce
    gains = (
        refl[0] ** cx[keep] * refl[1] ** cy[keep] * refl[2] ** cz[keep]
    )
    amplitudes = gains / dist

    paths = PathSet(
        directions=directions,
        delays=delays,
        amplitudes=amplitudes,
        orders=order.astype(np.int64),
        diffuse=np.zeros(len(delays), dtype=bool),
    )
    return paths.select(np.argsort(delays, kind="stable"))


# ---------------------------------------------------------------------------
# stochastic ray tracer
# ---------------------------------------------------------------------------

def _uniform_sphere(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _lambert_directions(rng, normals):
    """Cosine-weighted directions about the given unit normals."""
    n = normals.shape[0]
    u1 = rng.uniform(size=n)
    u2 = rng.uniform(size=n)
    r = np.sqrt(u1)
    phi = 2.0 * np.pi * u2
    local = np.stack(
        [r * np.cos(phi), r * np.sin(phi), np.sqrt(1.0 - u1)], axis=-1
    )
    # orthonormal frame per normal; pick the helper axis least aligned with it
    helper = np.zeros_like(normals)
    helper[np.arange(n), np.argmin(np.abs(normals), axis=1)] = 1.0
    t1 = np.cross(normals, helper)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(normals, t1)
    return (
        local[:, 0:1] * t1 + local[:, 1:2] * t2 + local[:, 2:3] * normals
    )


def trace_paths(scene: Scene, n_rays, max_bounces, receiver_radius, rng_seed=0):
    """Monte-Carlo arrivals from uniform ray emission at the source.

    Rays reflect up to ``max_bounces`` times; at each wall hit the energy keeps
    the (1 - alpha) fraction, then the bounce is diffuse with probability
    ``scattering`` (Lambertian re-emission plus a diffuse-rain connection to
    the listener) and specular otherwise. Straight segments crossing the
    listener sphere register an arrival carrying the ray's full energy and
    absorb the ray, so the received total can never exceed the emitted unit
    budget. Specular crossing delays are corrected to the exact image-source
    delay via the unfolded-path identity d = hypot(path, miss_distance).
    """
    if n_rays < 1:
        raise ValueError("n_rays must be >= 1")
    room = scene.room
    if not 0.0 < receiver_radius < float(np.min(room.dims)) / 4.0:
        raise ValueError(
            f"receiver_radius must be in (0, min_dim/4), got {receiver_radius}"
        )
    if np.linalg.norm(scene.source - scene.listener) <= receiver_radius:
        raise ValueError("source lies inside the receiver sphere")

    rng = np.random.default_rng(rng_seed)
    c = room.speed_of_sound
    listener = scene.listener
    dims = room.dims
    r2 = receiver_radius**2

    pos = np.broadcast_to(scene.source, (n_rays, 3)).copy()
    direction = _uniform_sphere(rng, n_rays)
    energy = np.full(n_rays, 1.0 / n_rays)
    traveled = np.zeros(n_rays)
    alive = np.ones(n_rays, dtype=bool)
    can_detect = np.ones(n_rays, dtype=bool)  # off on the segment after a rain event
    had_diffuse = np.zeros(n_rays, dtype=bool)

    # seeded with empty arrays so one concatenate also covers no arrivals
    out_dir, out_delay, out_amp = [np.zeros((0, 3))], [np.zeros(0)], [np.zeros(0)]
    out_order, out_diff = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=bool)]

    def emit(directions, delays, energies, orders, diffuse_flags):
        keep = energies > 0.0
        out_dir.append(directions[keep])
        out_delay.append(delays[keep])
        out_amp.append(np.sqrt(energies[keep]))
        out_order.append(orders[keep])
        out_diff.append(diffuse_flags[keep])

    for bounce in range(max_bounces + 1):
        if not np.any(alive):
            break
        # distance to the first wall along each ray
        with np.errstate(divide="ignore", invalid="ignore"):
            target = np.where(direction > 0, dims, 0.0)
            t_axes = np.where(
                np.abs(direction) > 1e-300, (target - pos) / direction, np.inf
            )
        t_axes = np.where(t_axes <= 1e-12, np.inf, t_axes)
        hit_axis = np.argmin(t_axes, axis=1)
        t_hit = t_axes[np.arange(n_rays), hit_axis]

        # sphere detection at closest approach within the segment
        rel = listener - pos
        s_star = np.clip(np.einsum("ij,ij->i", rel, direction), 0.0, t_hit)
        closest = pos + s_star[:, None] * direction
        miss2 = np.sum((closest - listener) ** 2, axis=1)
        detected = alive & can_detect & (miss2 < r2)
        if np.any(detected):
            unfolded = np.sqrt((traveled[detected] + s_star[detected]) ** 2
                               + miss2[detected])
            emit(
                -direction[detected],
                unfolded / c,
                energy[detected],
                np.full(int(detected.sum()), bounce, dtype=np.int64),
                had_diffuse[detected],
            )
            alive = alive & ~detected
        can_detect[:] = True

        if bounce == max_bounces or not np.any(alive):
            break

        # advance every live ray to its wall and absorb there
        idx = np.where(alive)[0]
        ax = hit_axis[idx]
        pos[idx] += t_hit[idx, None] * direction[idx]
        pos[idx] = np.clip(pos[idx], 0.0, dims)  # float dust containment
        pos[idx, ax] = np.where(direction[idx, ax] > 0, dims[ax], 0.0)
        traveled[idx] += t_hit[idx]
        energy[idx] *= 1.0 - room.absorption[ax]

        # split the bounce: Lambertian with probability `scattering`
        u = rng.uniform(size=idx.size)
        diff_sel = u < room.scattering
        diff_idx = idx[diff_sel]
        spec_idx = idx[~diff_sel]

        if spec_idx.size:
            sx = hit_axis[spec_idx]
            direction[spec_idx, sx] = -direction[spec_idx, sx]

        if diff_idx.size:
            dx = hit_axis[diff_idx]
            normals = np.zeros((diff_idx.size, 3))
            normals[np.arange(diff_idx.size), dx] = np.where(
                pos[diff_idx, dx] > 0.5 * dims[dx], -1.0, 1.0
            )
            # diffuse rain: expected energy caught by the receiver sphere
            to_l = listener - pos[diff_idx]
            dist = np.linalg.norm(to_l, axis=1)
            cos_g = np.maximum(np.einsum("ij,ij->i", normals, to_l) / dist, 0.0)
            caught = np.minimum(energy[diff_idx] * cos_g * r2 / dist**2,
                                energy[diff_idx])
            emit(
                to_l / dist[:, None] * -1.0,
                (traveled[diff_idx] + dist) / c,
                caught,
                np.full(diff_idx.size, bounce + 1, dtype=np.int64),
                np.ones(diff_idx.size, dtype=bool),
            )
            energy[diff_idx] -= caught
            direction[diff_idx] = _lambert_directions(rng, normals)
            had_diffuse[diff_idx] = True
            can_detect[diff_idx] = False

    paths = PathSet(
        directions=np.concatenate(out_dir),
        delays=np.concatenate(out_delay),
        amplitudes=np.concatenate(out_amp),
        orders=np.concatenate(out_order),
        diffuse=np.concatenate(out_diff),
        emitted_energy=1.0,
    )
    return paths.select(np.argsort(paths.delays, kind="stable"))


# ---------------------------------------------------------------------------
# reverberation oracles
# ---------------------------------------------------------------------------

def energy_decay_curve(ir):
    """Schroeder backward integration of the W channel, in dB re the total.

    Accepts anything with ``channels`` (4, n) and returns an array of dB
    values, 0 dB at t=0, monotone non-increasing (-inf once energy runs out).
    """
    w = np.asarray(ir.channels[0], dtype=np.float64)
    e = w**2
    total = e.sum()
    if total <= 0.0:
        raise ValueError("energy decay curve of an all-zero impulse response")
    tail = np.cumsum(e[::-1])[::-1]
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(tail / total)


def estimate_rt60(edc_db, sample_rate):
    """RT60 from a linear fit of the EDC between -5 and -35 dB, extrapolated
    to the full 60 dB decay."""
    edc_db = np.asarray(edc_db, dtype=np.float64)
    below5 = np.nonzero(edc_db <= -5.0)[0]
    below35 = np.nonzero(edc_db <= -35.0)[0]
    if below35.size == 0:
        raise ValueError("EDC never reaches -35 dB; decay range insufficient")
    i0, i1 = below5[0], below35[0]
    seg = edc_db[i0 : i1 + 1]
    finite = np.isfinite(seg)
    if finite.sum() < 2:
        raise ValueError("EDC fit segment has fewer than 2 finite samples")
    t = (np.arange(i0, i1 + 1)[finite]) / sample_rate
    slope, _ = np.polyfit(t, seg[finite], 1)
    if slope >= 0:
        raise ValueError("EDC fit slope is non-negative; no decay to measure")
    return -60.0 / slope


def sabine_rt60(room: RoomConfig):
    """Sabine reverberation time 0.161 V / sum(alpha_i * S_i)."""
    absorbing = float(np.dot(room.absorption, room.wall_pair_areas))
    if absorbing <= 0.0:
        raise ValueError("Sabine RT60 requires nonzero absorption")
    return 0.161 * room.volume / absorbing
