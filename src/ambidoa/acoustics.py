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

    def __post_init__(self):
        dims = np.asarray(self.dims, dtype=np.float64)
        absorption = np.broadcast_to(
            np.asarray(self.absorption, dtype=np.float64), (3,)
        ).copy()
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "absorption", absorption)
        if dims.shape != (3,) or not np.all(np.isfinite(dims) & (dims > 0)):
            raise ValueError(f"room dims must be 3 finite positive lengths, got {dims}")
        if not np.all((absorption >= 0) & (absorption <= 1)):
            raise ValueError(f"absorption must lie in [0, 1], got {self.absorption}")
        if not 0.0 <= self.scattering <= 1.0:
            raise ValueError(f"scattering must lie in [0, 1], got {self.scattering}")

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
            if not np.all((p >= WALL_MARGIN) & (p <= self.room.dims - WALL_MARGIN)):
                raise ValueError(
                    f"{name} {p} violates the {WALL_MARGIN} m wall margin in room "
                    f"{self.room.dims}"
                )
        if np.array_equal(source, listener):
            raise ValueError("source and listener must differ")


@dataclass
class PathSet:
    """Arrivals at the listener in struct-of-arrays form: ``directions`` is a
    C-contiguous (n, 3) array of unit vectors toward the apparent source.
    ``emitted_energy`` records the tracer's budget (1.0) so conservation can
    be checked; the image-source method leaves it NaN because its amplitudes
    are exact pressures, not Monte-Carlo energy.

    Both propagation methods return their arrivals sorted by delay, equal
    delays in the order the method produced them (a stable sort).
    ``evaluate.propagate`` relies on it: the arrivals before its delay limit
    and inside the impulse response buffer are a prefix, kept as a slice.
    """

    directions: np.ndarray  # (n, 3) float64 unit vectors, C-contiguous
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
        """Arrivals picked by a boolean mask, an index array or a slice; keeps
        the budget. A mask or index array copies the arrays; a slice returns
        views that share memory with this set."""
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
    _check_count("count", count, 1)
    _check_count("pairs_per_room", pairs_per_room, 1)
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
    """Scenes of a :func:`save_scenes` file; errors name the file, room and pair."""
    scenes = []
    entry = "top level"
    try:
        with open(path, "r", encoding="ascii") as f:
            data = json.load(f)
        for i, r in enumerate(data["rooms"]):
            entry = f"room {i}"
            room = RoomConfig(
                dims=np.array(r["dims"]),
                absorption=np.array(r["absorption"]),
                scattering=float(r["scattering"]),
            )
            for j, pair in enumerate(r["pairs"]):
                entry = f"room {i} pair {j}"
                scenes.append(
                    Scene(
                        room=room,
                        source=np.array(pair["source"]),
                        listener=np.array(pair["listener"]),
                    )
                )
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: {entry}: {reason}") from exc
    return scenes


# ---------------------------------------------------------------------------
# image-source method
# ---------------------------------------------------------------------------

def _check_count(name, value, least):
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _axis_images(coord, length, max_n):
    """1-D mirror images: index n maps to n*L + s for even n and (n+1)*L - s
    for odd n; |n| is the number of reflections on that axis pair."""
    n = np.arange(-max_n, max_n + 1)
    pos = np.where(n % 2 == 0, n * length + coord, (n + 1) * length - coord)
    return n, pos


def image_source_paths(scene: Scene, max_order):
    """All specular arrivals up to ``max_order`` reflections.

    Amplitude is prod(sqrt(1 - alpha_axis)^bounces) / distance (1/r spreading);
    delay is distance / SPEED_OF_SOUND; direction is the unit vector from the
    listener to the image position.
    """
    _check_count("max_order", max_order, 0)
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
    delays = dist / SPEED_OF_SOUND

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

def _lambert_directions(rng, direction, rays, axis, sign):
    """Put cosine-weighted directions about ``sign * e_axis`` in ``direction[:, rays]``.

    A wall normal is an axis vector, so its tangent frame is a signed
    permutation of the room axes: with local components (t1, t2, n) and
    s = sign, axis 0 gets (s n, -t2, s t1), axis 1 (-t2, s n, -s t1) and
    axis 2 (-t2, s t1, s n), the bits of the cross-product frame built on the
    room axis least aligned with the normal.
    """
    n = direction.shape[1]
    u1 = rng.uniform(size=len(rays))
    u2 = rng.uniform(size=len(rays))
    r = np.sqrt(u1)
    phi = 2.0 * np.pi * u2
    s_t1 = sign * (r * np.cos(phi))
    np.negative(s_t1, out=s_t1, where=axis == 1)
    np.put(direction, axis * n + rays, sign * np.sqrt(1.0 - u1))
    np.put(direction, (axis == 0) * n + rays, -(r * np.sin(phi)))
    np.put(direction, (2 - (axis == 2)) * n + rays, s_t1)


def _sum3(x):
    """Column sums of a (3, n) array as (x0 + x1) + x2: the bits of numpy's
    ``sum`` and ``linalg.norm`` over the slow length-3 rows of its transpose."""
    return (x[0] + x[1]) + x[2]


def _stable_argsort(keys):
    """``np.argsort(keys, kind="stable")``, by the default sort followed by a
    lexsort of only the positions inside runs of equal keys (NaNs count as
    equal), which a tracer's delays have few of."""
    order = np.argsort(keys)
    ranked = keys[order]
    tie = ~(ranked[1:] > ranked[:-1])
    if tie.any():
        in_run = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])
        order[in_run] = order[in_run][np.lexsort((order[in_run], ranked[in_run]))]
    return order


def trace_paths(scene: Scene, n_rays, max_bounces, receiver_radius, rng_seed=0,
                max_delay=np.inf):
    """Monte-Carlo arrivals from uniform ray emission at the source.

    Rays reflect up to ``max_bounces`` times; at each wall hit the energy keeps
    the (1 - alpha) fraction, then the bounce is diffuse with probability
    ``scattering`` (Lambertian re-emission plus a diffuse-rain connection to
    the listener) and specular otherwise. Straight segments crossing the
    listener sphere register an arrival carrying the ray's full energy and
    absorb the ray, so the received total can never exceed the emitted unit
    budget. A caught ray leaves the population: later steps see only rays in
    flight. Specular crossing delays are corrected to the exact image-source
    delay via the unfolded-path identity d = hypot(path, miss_distance).
    Only arrivals with delay below ``max_delay`` seconds are kept, and a ray
    retires once its next wall lies that far away in travel: none of its later
    arrivals could come sooner, so only the draws of later bounces change.

    Ray positions and directions are (3, n) arrays, one C-contiguous row per
    component, and the room dimensions and listener (3, 1) columns, so each
    per-bounce step loops over the rays, not over numpy's slow length-3 rows.
    """
    _check_count("n_rays", n_rays, 1)
    _check_count("max_bounces", max_bounces, 0)
    _check_count("rng_seed", rng_seed, 0)
    room = scene.room
    if not 0.0 < receiver_radius < float(np.min(room.dims)) / 4.0:
        raise ValueError(
            f"receiver_radius must be in (0, min_dim/4), got {receiver_radius}"
        )
    if np.linalg.norm(scene.source - scene.listener) <= receiver_radius:
        raise ValueError("source lies inside the receiver sphere")
    if not max_delay > 0:
        raise ValueError(f"max_delay must be > 0 seconds, got {max_delay!r}")

    rng = np.random.default_rng(rng_seed)
    listener = scene.listener[:, None]
    dims = room.dims[:, None]
    r2 = receiver_radius**2

    pos = np.broadcast_to(scene.source[:, None], (3, n_rays)).copy()
    direction = rng.standard_normal((n_rays, 3)).T.copy()  # the draws of one (n, 3) array
    direction /= np.sqrt(_sum3(direction**2))
    energy = np.full(n_rays, 1.0 / n_rays)
    traveled = np.zeros(n_rays)
    had_diffuse = np.zeros(n_rays, dtype=bool)
    diffused = np.zeros(n_rays, dtype=bool)  # rained last bounce: not detectable now

    # one list of chunks per PathSet field, one chunk per emission, seeded with
    # empty arrays so one concatenate also covers no arrivals
    parts = ([np.zeros((3, 0))], [np.zeros(0)], [np.zeros(0)],
             [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=bool)])

    def emit(directions, delays, energies, order, diffuse_flags):
        keep = (energies > 0.0) & (delays < max_delay)
        for part, field in zip(parts, (directions, delays, np.sqrt(energies),
                                       np.full(len(energies), order, dtype=np.int64),
                                       diffuse_flags)):
            part.append(field.compress(keep, axis=-1))

    for bounce in range(max_bounces + 1):
        # distance to the first wall along each ray
        with np.errstate(divide="ignore", invalid="ignore"):
            t_axes = ((direction > 0) * dims - pos) / direction
        np.copyto(t_axes, np.inf, where=~((np.abs(direction) > 1e-300) & (t_axes > 1e-12)))
        # argmin over the three axes, row by row (numpy's length-3 reductions
        # are slow); strict < keeps argmin's first-minimum tie rule
        tx, ty, tz = t_axes
        t_xy = np.minimum(tx, ty)
        hit_axis = np.where(tz < t_xy, 2, (ty < tx).astype(np.intp))
        t_hit = np.minimum(t_xy, tz)

        # sphere detection at closest approach; the dot sums as einsum("ij,ij->i")
        rel = listener - pos
        s_star = np.clip((rel[0] * direction[0] + rel[2] * direction[2])
                         + rel[1] * direction[1], 0.0, t_hit)
        miss2 = _sum3((pos + s_star * direction - listener) ** 2)
        detected = ~diffused & (miss2 < r2)
        unfolded = np.sqrt((traveled[detected] + s_star[detected]) ** 2
                           + miss2[detected])
        emit(
            -direction.compress(detected, axis=1),
            unfolded / SPEED_OF_SOUND,
            energy[detected],
            bounce,
            had_diffuse[detected],
        )
        # dividing as the delays do keeps an arrival's delay >= its ray's reach
        flying = ~detected & ((traveled + t_hit) / SPEED_OF_SOUND < max_delay)
        pos, direction, energy, traveled, had_diffuse, hit_axis, t_hit = (
            a.compress(flying, axis=-1)
            for a in (pos, direction, energy, traveled, had_diffuse, hit_axis, t_hit)
        )

        if bounce == max_bounces or not len(energy):
            break

        # advance every ray to its wall and absorb there
        # flat index of each ray's hit-axis component: take and put on it beat
        # fancy (row, column) indexing
        n = len(energy)
        hit = hit_axis * n + np.arange(n)
        hit_direction = np.take(direction, hit)
        far_wall = hit_direction > 0  # the wall at dims, not the one at 0
        pos += t_hit * direction
        np.clip(pos, 0.0, dims, out=pos)  # float dust containment
        np.put(pos, hit, np.where(far_wall, room.dims[hit_axis], 0.0))
        traveled += t_hit
        energy *= 1.0 - room.absorption[hit_axis]

        # split the bounce: Lambertian with probability `scattering`; every ray
        # reflects specularly, and the diffuse ones then draw a new direction
        diffused = rng.uniform(size=n) < room.scattering
        np.put(direction, hit, -hit_direction)
        rain = np.flatnonzero(diffused)  # integer indices gather faster than the mask
        # the unit normal pointing into the room is sign * e_axis
        axis = hit_axis[rain]
        sign = 1.0 - 2.0 * far_wall[rain]
        # diffuse rain: expected energy caught by the receiver sphere
        to_l = listener - np.take(pos, rain, axis=1)
        dist = np.sqrt(_sum3(to_l**2))
        cos_g = np.maximum(sign * to_l[axis, np.arange(len(rain))] / dist, 0.0)
        caught = np.minimum(energy[rain] * cos_g * r2 / dist**2,
                            energy[rain])
        emit(
            to_l / -dist,
            (traveled[rain] + dist) / SPEED_OF_SOUND,
            caught,
            bounce + 1,
            np.ones(len(rain), dtype=bool),
        )
        energy[rain] -= caught
        _lambert_directions(rng, direction, rain, axis, sign)
        had_diffuse |= diffused

    order = _stable_argsort(np.concatenate(parts[1]))

    def sorted_field(part):
        # gathered into delay order as soon as it is joined, its chunks freed
        # first, so one unsorted field at a time is alive
        field = np.concatenate(part, axis=-1)
        part.clear()
        return np.take(field, order, axis=-1)

    directions = sorted_field(parts[0]).T.copy()  # (n, 3), C-contiguous
    return PathSet(directions, *map(sorted_field, parts[1:]), emitted_energy=1.0)


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
