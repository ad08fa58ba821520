import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambidoa.acoustics import (
    DIMS_MAX,
    DIMS_MIN,
    PathSet,
    RoomConfig,
    Scene,
    _lambert_directions,
    _stable_argsort,
    _sum3,
    energy_decay_curve,
    estimate_rt60,
    image_source_paths,
    load_scenes,
    sabine_rt60,
    sample_scenes,
    save_scenes,
    trace_paths,
)
from ambidoa.foa import FoaSignal, encode_srir

C = 343.0


def demo_scene(alpha=0.3, scattering=0.0):
    room = RoomConfig(dims=(4.0, 5.0, 3.0), absorption=alpha, scattering=scattering)
    return Scene(room=room, source=(1.0, 1.0, 1.0), listener=(3.0, 4.0, 2.0))


def cross_product_lambert(rng, normals):
    """Cosine-weighted directions about unit normals, in the orthonormal frame
    built by cross products with the room axis least aligned with each normal:
    the reference that ``_lambert_directions`` must match bit for bit."""
    n = normals.shape[0]
    u1 = rng.uniform(size=n)
    u2 = rng.uniform(size=n)
    r = np.sqrt(u1)
    phi = 2.0 * np.pi * u2
    local = np.stack([r * np.cos(phi), r * np.sin(phi), np.sqrt(1.0 - u1)], axis=-1)
    helper = np.zeros_like(normals)
    helper[np.arange(n), np.argmin(np.abs(normals), axis=1)] = 1.0
    t1 = np.cross(normals, helper)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(normals, t1)
    return local[:, 0:1] * t1 + local[:, 1:2] * t2 + local[:, 2:3] * normals


def stable_argsort_agrees(keys):
    keys = np.asarray(keys, dtype=np.float64)
    np.testing.assert_array_equal(_stable_argsort(keys), np.argsort(keys, kind="stable"))


class TestTracerKernels:
    # the tracer keeps its rays as (3, n) rows; the reference draws (n, 3)
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_lambert_frame_matches_the_cross_product_frame(self, axis, sign):
        n = 5000
        normals = np.zeros((n, 3))
        normals[:, axis] = sign
        got = np.zeros((3, n))
        _lambert_directions(np.random.default_rng(axis), got, np.arange(n),
                            np.full(n, axis), np.full(n, sign))
        np.testing.assert_array_equal(
            got.T, cross_product_lambert(np.random.default_rng(axis), normals))
        assert np.all(sign * got[axis] >= 0.0)  # into the room

    def test_lambert_frame_with_mixed_walls_in_one_call(self):
        rng = np.random.default_rng(9)
        n = 3000
        rays = np.sort(rng.choice(2 * n, size=n, replace=False))
        axis = rng.integers(0, 3, n)
        sign = 1.0 - 2.0 * (rng.uniform(size=n) < 0.5)
        normals = np.zeros((n, 3))
        normals[np.arange(n), axis] = sign
        direction = np.full((3, 2 * n), np.nan)
        _lambert_directions(np.random.default_rng(1), direction, rays, axis, sign)
        np.testing.assert_array_equal(
            direction[:, rays].T, cross_product_lambert(np.random.default_rng(1), normals))
        assert np.isnan(np.delete(direction, rays, axis=1)).all()  # other rays untouched

    def test_column_sums_match_numpy_reductions(self):
        x = np.random.default_rng(2).standard_normal((10000, 3)) * 1e3
        rows = x.T.copy()  # the tracer's layout
        np.testing.assert_array_equal(_sum3(rows**2), np.sum(x**2, axis=1))
        np.testing.assert_array_equal(np.sqrt(_sum3(rows**2)), np.linalg.norm(x, axis=1))

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan]),
                    max_size=40))
    def test_stable_argsort_on_short_tie_heavy_keys(self, keys):
        stable_argsort_agrees(keys)

    @given(st.lists(st.floats(), max_size=40))
    def test_stable_argsort_on_any_floats(self, keys):
        stable_argsort_agrees(keys)

    @given(n=st.integers(0, 5000), distinct=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_stable_argsort_on_long_runs_of_equal_keys(self, n, distinct, seed):
        # long arrays reach the default sort's unstable partitioning; the
        # pool holds both zeros, which compare equal
        pool = np.array([0.0, -0.0, 0.25, 1e-3, 3.0, -7.0])[:distinct]
        keys = np.random.default_rng(seed).choice(pool, size=n)
        stable_argsort_agrees(keys)

    @pytest.mark.parametrize("n", [0, 1, 2, 100000])
    def test_stable_argsort_on_all_equal_keys(self, n):
        stable_argsort_agrees(np.full(n, 0.0625))


class TestTypes:
    def test_room_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RoomConfig(dims=(4, -5, 3), absorption=0.3)
        with pytest.raises(ValueError):
            RoomConfig(dims=(4, 5, 3), absorption=1.5)
        with pytest.raises(ValueError):
            RoomConfig(dims=(4, 5, 3), absorption=0.3, scattering=2.0)
        # non-finite values are refused, each by its field
        for kwargs, field in ((dict(dims=(4, np.nan, 3)), "dims"),
                              (dict(dims=(4, np.inf, 3)), "dims"),
                              (dict(dims=(-np.inf, 5, 3)), "dims"),
                              (dict(absorption=np.nan), "absorption"),
                              (dict(absorption=(0.3, np.nan, 0.3)), "absorption"),
                              (dict(absorption=np.inf), "absorption"),
                              (dict(scattering=np.nan), "scattering")):
            with pytest.raises(ValueError, match=field):
                RoomConfig(**{"dims": (4, 5, 3), "absorption": 0.3, **kwargs})

    def test_scene_enforces_margin(self):
        room = RoomConfig(dims=(4, 5, 3), absorption=0.3)
        with pytest.raises(ValueError):
            Scene(room=room, source=(0.2, 1, 1), listener=(3, 4, 2))
        with pytest.raises(ValueError):
            Scene(room=room, source=(1, 1, 1), listener=(3.9, 4, 2))
        for name, bad in (("source", (1, np.nan, 1)), ("listener", (np.inf, 4, 2)),
                          ("listener", (3, 4, -np.inf))):
            points = {"source": (1, 1, 1), "listener": (3, 4, 2), name: bad}
            with pytest.raises(ValueError, match=f"^{name} "):
                Scene(room=room, **points)

    def test_scene_rejects_coincident_points(self):
        room = RoomConfig(dims=(4, 5, 3), absorption=0.3)
        with pytest.raises(ValueError):
            Scene(room=room, source=(1, 1, 1), listener=(1, 1, 1))

    def test_per_wall_pair_absorption(self):
        room = RoomConfig(dims=(4, 5, 3), absorption=(0.1, 0.2, 0.3))
        assert room.absorption.shape == (3,)

    def test_path_set_select_by_mask_or_index(self):
        paths = PathSet(
            directions=np.eye(3),
            delays=np.array([0.3, 0.1, 0.2]),
            amplitudes=np.array([1.0, 2.0, 3.0]),
            orders=np.array([0, 1, 2]),
            diffuse=np.array([False, True, False]),
            emitted_energy=1.0,
        )
        masked = paths.select(paths.delays > 0.15)
        np.testing.assert_array_equal(masked.amplitudes, [1.0, 3.0])
        np.testing.assert_array_equal(masked.directions, np.eye(3)[[0, 2]])
        ordered = paths.select(np.argsort(paths.delays))
        np.testing.assert_array_equal(ordered.orders, [1, 2, 0])
        np.testing.assert_array_equal(ordered.diffuse, [True, False, False])
        assert masked.emitted_energy == ordered.emitted_energy == 1.0

    @pytest.mark.parametrize("make", [
        lambda sc: image_source_paths(sc, max_order=0),
        lambda sc: image_source_paths(sc, max_order=3),
        lambda sc: trace_paths(sc, n_rays=1, max_bounces=0, receiver_radius=0.3),  # empty
        lambda sc: trace_paths(sc, n_rays=1, max_bounces=40, receiver_radius=0.3,
                               rng_seed=4),
        lambda sc: trace_paths(sc, n_rays=20000, max_bounces=0, receiver_radius=0.3),
        lambda sc: trace_paths(sc, n_rays=2000, max_bounces=10, receiver_radius=0.3),
    ], ids=["image-0", "image-3", "trace-empty", "trace-1-ray", "trace-0-bounces",
            "trace-10-bounces"])
    def test_path_set_fields_have_the_documented_layout(self, make):
        # encode_srir and propagate read directions as C-contiguous (n, 3)
        # rows, never a transposed view of the tracer's (3, n) rays
        ps = make(demo_scene(alpha=0.05, scattering=0.5))
        n = len(ps)
        assert ps.directions.shape == (n, 3) and ps.directions.flags.c_contiguous
        for name, dtype in (("directions", np.float64), ("delays", np.float64),
                            ("amplitudes", np.float64), ("orders", np.int64),
                            ("diffuse", np.bool_)):
            assert getattr(ps, name).dtype == dtype, name
        for name in ("delays", "amplitudes", "orders", "diffuse"):
            assert getattr(ps, name).shape == (n,), name


class TestSampleScenes:
    def test_paper_bounds_three_pairs_one_room(self):
        scenes = sample_scenes(3, seed=7, pairs_per_room=3)
        assert len(scenes) == 3
        assert scenes[0].room is scenes[1].room is scenes[2].room
        for sc in scenes:
            assert np.all(sc.source >= 0.5) and np.all(sc.listener >= 0.5)
            assert np.all(sc.source <= sc.room.dims - 0.5)
            assert np.all(sc.listener <= sc.room.dims - 0.5)

    def test_room_dims_lie_in_the_sampling_box(self):
        scenes = sample_scenes(40, seed=1, pairs_per_room=1)
        dims = np.stack([sc.room.dims for sc in scenes])
        assert np.all(dims >= DIMS_MIN) and np.all(dims <= DIMS_MAX)

    @pytest.mark.parametrize("name, value", [
        ("count", 0), ("count", 2.5), ("count", True), ("count", "2"),
        ("pairs_per_room", 0), ("pairs_per_room", 1.5), ("pairs_per_room", True),
    ])
    def test_bad_counts_are_refused_by_name(self, name, value):
        kwargs = {"count": 2, "pairs_per_room": 3, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            sample_scenes(seed=0, **kwargs)

    def test_deterministic(self):
        a = sample_scenes(6, seed=123)
        b = sample_scenes(6, seed=123)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.source, y.source)
            np.testing.assert_array_equal(x.listener, y.listener)
            np.testing.assert_array_equal(x.room.dims, y.room.dims)

    def test_manifest_round_trip(self, tmp_path):
        scenes = sample_scenes(5, seed=9, pairs_per_room=2)
        path = tmp_path / "scenes.json"
        save_scenes(scenes, path, seed=9)
        loaded = load_scenes(path)
        assert len(loaded) == 5
        for x, y in zip(scenes, loaded):
            np.testing.assert_allclose(x.source, y.source)
            np.testing.assert_allclose(x.room.dims, y.room.dims)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["rooms"][0].pop("scattering"), "room 0: missing field 'scattering'"),
        (lambda d: d["rooms"][1]["pairs"][0].pop("listener"),
         "room 1 pair 0: missing field 'listener'"),
        (lambda d: d["rooms"][1]["pairs"][1].update(source=[0.1, 1.0, 1.0]),
         "room 1 pair 1: source .* violates the 0.5 m wall margin"),
        (lambda d: d["rooms"][0].update(absorption=[0.3, 1.5, 0.3]),
         "room 0: absorption must lie in"),
        (lambda d: d.update(rooms=7), "top level: 'int' object is not iterable"),
        (lambda d: d.pop("rooms"), "top level: missing field 'rooms'"),
    ], ids=["no-scattering", "no-listener", "pair-in-margin", "bad-absorption",
            "rooms-not-a-list", "no-rooms"])
    def test_bad_scene_file_names_the_file_and_entry(self, tmp_path, edit, message):
        path = tmp_path / "scenes.json"
        save_scenes(sample_scenes(4, seed=2, pairs_per_room=2), path)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_scenes(path)

    @pytest.mark.parametrize("text, message", [
        ("[]", "top level: list indices must be integers"),
        ('{"rooms": [}', "top level: Expecting value"),
    ], ids=["list", "cut-json"])
    def test_scene_file_that_is_not_a_scene_object_is_named(self, tmp_path, text,
                                                            message):
        path = tmp_path / "scenes.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_scenes(path)

    def test_scene_file_stores_every_room_field(self, tmp_path):
        path = tmp_path / "scenes.json"
        save_scenes(sample_scenes(4, seed=2, pairs_per_room=2), path)
        rooms = json.loads(path.read_text())["rooms"]
        assert len(rooms) == 2
        for room in rooms:
            assert set(room) - {"pairs"} == {f.name for f in fields(RoomConfig)}


class TestImageSource:
    def test_direct_path(self):
        ps = image_source_paths(demo_scene(), max_order=0)
        assert len(ps) == 1
        assert ps.delays[0] == pytest.approx(np.sqrt(14) / C, abs=1e-15)
        np.testing.assert_allclose(
            ps.directions[0], np.array([-2.0, -3.0, -1.0]) / np.sqrt(14)
        )
        assert ps.orders[0] == 0

    def test_first_order_x_wall_image(self):
        # mirror of (1,1,1) across x=0 sits at (-1,1,1)
        ps = image_source_paths(demo_scene(), max_order=1)
        assert len(ps) == 7  # direct + 6 walls
        expected = np.sqrt(26) / C
        assert np.min(np.abs(ps.delays - expected)) < 1e-15

    def test_full_absorption_zeroes_reflections(self):
        ps = image_source_paths(demo_scene(alpha=1.0), max_order=2)
        refl = ps.orders >= 1
        assert np.all(ps.amplitudes[refl] == 0.0)
        assert np.all(ps.amplitudes[~refl] > 0.0)

    def test_delay_exactness_random_scenes(self):
        # direct and first-order delays against independently mirrored sources
        scenes = sample_scenes(50, seed=42, pairs_per_room=1)
        for sc in scenes:
            ps = image_source_paths(sc, max_order=1)
            dims, src, lst = sc.room.dims, sc.source, sc.listener
            images = [src]
            for axis in range(3):
                for wall in (0.0, dims[axis]):
                    img = src.copy()
                    img[axis] = 2 * wall - src[axis]
                    images.append(img)
            expected = sorted(np.linalg.norm(i - lst) / C for i in images)
            np.testing.assert_allclose(np.sort(ps.delays), expected, atol=1e-12)

    @pytest.mark.parametrize("max_order", [2.5, True, -1])
    def test_bad_max_order_is_refused_by_name(self, max_order):
        with pytest.raises(ValueError, match="max_order must be an integer >= 0"):
            image_source_paths(demo_scene(), max_order=max_order)

    def test_numpy_integer_max_order_is_accepted(self):
        got = image_source_paths(demo_scene(), max_order=np.int64(2))
        want = image_source_paths(demo_scene(), max_order=2)
        for f in fields(PathSet):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))

    def test_amplitude_spreading_law(self):
        ps = image_source_paths(demo_scene(alpha=0.0), max_order=0)
        assert ps.amplitudes[0] == pytest.approx(1.0 / np.sqrt(14))


class TestTracer:
    def test_deterministic_bit_identical(self):
        sc = demo_scene(scattering=0.4)
        a = trace_paths(sc, n_rays=2000, max_bounces=8, receiver_radius=0.3, rng_seed=5)
        b = trace_paths(sc, n_rays=2000, max_bounces=8, receiver_radius=0.3, rng_seed=5)
        np.testing.assert_array_equal(a.delays, b.delays)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        np.testing.assert_array_equal(a.directions, b.directions)

    def test_specular_limit_reproduces_image_times(self):
        # scattering=0 with matched bounce limits: traced arrivals cover the
        # image-source times; full 1e5-ray version lives in the acceptance suite
        sc = demo_scene(alpha=0.3)
        traced = trace_paths(sc, n_rays=60000, max_bounces=2,
                             receiver_radius=0.3, rng_seed=11)
        img = image_source_paths(sc, max_order=2)
        tol = 1.0 / 16000 + 1e-12
        hits = sum(np.any(np.abs(traced.delays - d) <= tol) for d in img.delays)
        assert hits / len(img) >= 0.95

    def test_traced_delays_match_image_exactly(self):
        # the unfolded-path correction makes specular delays exact, far below
        # the one-sample tolerance
        sc = demo_scene(alpha=0.3)
        traced = trace_paths(sc, n_rays=30000, max_bounces=1,
                             receiver_radius=0.3, rng_seed=3)
        img = image_source_paths(sc, max_order=1)
        for d in traced.delays:
            assert np.min(np.abs(img.delays - d)) < 1e-9

    def test_full_absorption_leaves_only_direct(self):
        sc = demo_scene(alpha=1.0, scattering=0.5)
        traced = trace_paths(sc, n_rays=20000, max_bounces=6,
                             receiver_radius=0.3, rng_seed=2)
        assert len(traced) > 0
        assert np.all(traced.orders == 0)

    def test_energy_conservation(self):
        for scattering in (0.0, 0.5, 1.0):
            sc = demo_scene(alpha=0.2, scattering=scattering)
            traced = trace_paths(sc, n_rays=5000, max_bounces=30,
                                 receiver_radius=0.3, rng_seed=1)
            assert traced.received_energy <= 1.0

    def test_energy_monotone_in_absorption(self):
        received = []
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            sc = demo_scene(alpha=alpha, scattering=0.5)
            traced = trace_paths(sc, n_rays=3000, max_bounces=20,
                                 receiver_radius=0.3, rng_seed=7)
            received.append(traced.received_energy)
        assert all(a >= b for a, b in zip(received, received[1:]))

    def test_no_arrivals_give_an_empty_typed_set(self):
        # one ray, no bounce: it misses the 0.3 m sphere 3.7 m away
        traced = trace_paths(demo_scene(), n_rays=1, max_bounces=0,
                             receiver_radius=0.3, rng_seed=0)
        assert len(traced) == 0
        assert traced.directions.shape == (0, 3)
        assert traced.orders.dtype == np.int64 and traced.diffuse.dtype == bool
        assert traced.emitted_energy == 1.0

    @pytest.mark.parametrize("seed, alpha, radius, max_bounces", [
        (0, 0.3, 0.3, 10),
        (1, 0.3, 0.3, 40),
        (2, 0.1, 0.7, 3),
        (3, 0.02, 0.7, 60),  # nearly lossless walls: most rays are caught
    ])
    def test_specular_rays_arrive_at_most_once(self, seed, alpha, radius, max_bounces):
        # a caught ray leaves the population; one left in flight would be
        # caught again on a later pass, with some other ray's energy
        n_rays = 2000
        traced = trace_paths(demo_scene(alpha=alpha), n_rays=n_rays,
                             max_bounces=max_bounces, receiver_radius=radius,
                             rng_seed=seed)
        assert 0 < len(traced) <= n_rays
        assert not traced.diffuse.any()
        assert traced.orders.max() <= max_bounces
        np.testing.assert_allclose(traced.amplitudes**2,
                                   (1.0 - alpha) ** traced.orders / n_rays, rtol=1e-12)
        if max_bounces == 60:
            assert len(traced) > n_rays / 2

    @pytest.mark.parametrize("n_rays, max_bounces", [(1, 0), (1, 40), (20000, 0)])
    def test_a_single_ray_or_no_bounce_gives_a_valid_set(self, n_rays, max_bounces):
        traced = trace_paths(demo_scene(alpha=0.05, scattering=0.5), n_rays=n_rays,
                             max_bounces=max_bounces, receiver_radius=0.3, rng_seed=4)
        n = len(traced)
        assert traced.directions.shape == (n, 3) and traced.directions.dtype == np.float64
        assert traced.amplitudes.shape == traced.orders.shape == traced.diffuse.shape == (n,)
        assert traced.orders.dtype == np.int64 and traced.diffuse.dtype == bool
        assert np.all(np.diff(traced.delays) >= 0.0)
        assert np.all(traced.orders <= max_bounces) and traced.received_energy <= 1.0
        if max_bounces == 0:
            # only the direct sound: 3.74 m away, undelayed by any wall
            assert n > 0 if n_rays > 1 else n == 0
            assert not traced.diffuse.any() and np.all(traced.orders == 0)
            np.testing.assert_allclose(traced.delays, np.sqrt(14.0) / C, rtol=1e-12)

    def test_source_inside_receiver_rejected(self):
        room = RoomConfig(dims=(4, 5, 3), absorption=0.3)
        sc = Scene(room=room, source=(2.0, 2.0, 1.5), listener=(2.1, 2.0, 1.5))
        with pytest.raises(ValueError):
            trace_paths(sc, n_rays=10, max_bounces=1, receiver_radius=0.3)

    def test_receiver_radius_bounds(self):
        with pytest.raises(ValueError):
            trace_paths(demo_scene(), n_rays=10, max_bounces=1, receiver_radius=1.0)

    def test_negative_max_bounces_rejected(self):
        with pytest.raises(ValueError, match="max_bounces"):
            trace_paths(demo_scene(), n_rays=10, max_bounces=-1, receiver_radius=0.3)

    @pytest.mark.parametrize("name, value", [
        ("n_rays", 10.0), ("n_rays", True), ("max_bounces", 2.5),
        ("max_bounces", True), ("rng_seed", -1), ("rng_seed", 1.0),
    ])
    def test_non_integer_counts_and_negative_seeds_are_refused_by_name(self, name, value):
        kwargs = dict(n_rays=10, max_bounces=2, receiver_radius=0.3, rng_seed=0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            trace_paths(demo_scene(), **kwargs)

    def test_numpy_integer_counts_are_accepted(self):
        ints = trace_paths(demo_scene(scattering=0.5), n_rays=200, max_bounces=5,
                           receiver_radius=0.3, rng_seed=3)
        numpy_ints = trace_paths(demo_scene(scattering=0.5), n_rays=np.int64(200),
                                 max_bounces=np.int32(5), receiver_radius=0.3,
                                 rng_seed=np.uint64(3))
        for f in fields(PathSet):
            np.testing.assert_array_equal(getattr(numpy_ints, f.name), getattr(ints, f.name))

    @pytest.mark.parametrize("seed", range(6))
    def test_a_delay_limit_keeps_the_earlier_specular_arrivals_bit_for_bit(self, seed):
        # without scattering no draw follows the first, so the limited trace is
        # the unlimited one's prefix before the limit, in every field
        scene = sample_scenes(1, seed=40 + seed, scattering=0.0)[0]
        full = trace_paths(scene, n_rays=4000, max_bounces=40, receiver_radius=0.3,
                           rng_seed=seed)
        limited = trace_paths(scene, n_rays=4000, max_bounces=40, receiver_radius=0.3,
                              rng_seed=seed, max_delay=0.05)
        expected = full.select(full.delays < 0.05)
        assert 0 < len(limited) < len(full)
        for f in fields(PathSet):
            np.testing.assert_array_equal(getattr(limited, f.name),
                                          getattr(expected, f.name))

    def test_a_delay_limit_keeps_the_received_energy_before_it(self):
        # with scattering the later draws differ, so the energy before the limit
        # agrees only within Monte-Carlo error
        scene = demo_scene(alpha=0.15, scattering=0.5)
        full, limited = [], []
        for seed in range(4):
            a = trace_paths(scene, n_rays=3000, max_bounces=40, receiver_radius=0.3,
                            rng_seed=seed)
            b = trace_paths(scene, n_rays=3000, max_bounces=40, receiver_radius=0.3,
                            rng_seed=seed, max_delay=0.05)
            assert len(b) and np.all(b.delays < 0.05) and b.emitted_energy == 1.0
            assert b.diffuse.any()
            full.append(a.select(a.delays < 0.05).received_energy)
            limited.append(b.received_energy)
        spread = np.std(full, ddof=1) / np.sqrt(len(full))
        assert abs(np.mean(limited) - np.mean(full)) <= 3.0 * spread

    @pytest.mark.parametrize("max_delay", [0.0, -0.1, np.nan])
    def test_a_delay_limit_that_keeps_nothing_is_refused_by_name(self, max_delay):
        with pytest.raises(ValueError, match="max_delay must be > 0"):
            trace_paths(demo_scene(), n_rays=10, max_bounces=2, receiver_radius=0.3,
                        max_delay=max_delay)


class TestReverbOracles:
    def test_edc_of_single_impulse(self):
        ch = np.zeros((4, 100))
        ch[0, 10] = 1.0
        edc = energy_decay_curve(FoaSignal(channels=ch, sample_rate=16000))
        assert np.all(edc[: 10 + 1] == 0.0)
        assert np.all(np.isneginf(edc[11:]))

    def test_edc_monotone_and_normalized(self):
        rng = np.random.default_rng(0)
        ch = np.zeros((4, 4000))
        ch[0] = rng.standard_normal(4000)
        edc = energy_decay_curve(FoaSignal(channels=ch, sample_rate=16000))
        assert edc[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(edc) <= 1e-12)

    def test_edc_scale_invariant(self):
        rng = np.random.default_rng(1)
        ch = np.zeros((4, 1000))
        ch[0] = rng.standard_normal(1000)
        a = energy_decay_curve(FoaSignal(channels=ch, sample_rate=16000))
        b = energy_decay_curve(FoaSignal(channels=3.7 * ch, sample_rate=16000))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_edc_rejects_silence(self):
        with pytest.raises(ValueError):
            energy_decay_curve(FoaSignal(channels=np.zeros((4, 64)), sample_rate=16000))

    def test_constructed_decay_slope(self):
        # noise decaying 60 dB per 0.5 s has an EDC slope of -120 dB/s
        fs = 16000
        t = np.arange(fs) / fs
        rng = np.random.default_rng(8)
        ch = np.zeros((4, fs))
        ch[0] = rng.standard_normal(fs) * 10.0 ** (-120.0 * t / 20.0)
        edc = energy_decay_curve(FoaSignal(channels=ch, sample_rate=fs))
        rt = estimate_rt60(edc, fs)
        assert rt == pytest.approx(0.5, rel=0.03)

    def test_estimate_requires_decay_range(self):
        edc = np.linspace(0.0, -20.0, 100)  # never reaches -35 dB
        with pytest.raises(ValueError):
            estimate_rt60(edc, 16000)

    def test_sabine_values(self):
        room = RoomConfig(dims=(4, 5, 3), absorption=0.3)
        assert sabine_rt60(room) == pytest.approx(0.161 * 60 / (0.3 * 94), abs=1e-12)
        room1 = RoomConfig(dims=(4, 5, 3), absorption=1.0)
        assert sabine_rt60(room1) == pytest.approx(0.161 * 60 / 94, abs=1e-12)

    def test_sabine_homogeneity(self):
        a = sabine_rt60(RoomConfig(dims=(4, 5, 3), absorption=0.3))
        b = sabine_rt60(RoomConfig(dims=(8, 10, 6), absorption=0.3))
        assert b == pytest.approx(2 * a, abs=1e-12)

    def test_sabine_rejects_zero_absorption(self):
        with pytest.raises(ValueError):
            sabine_rt60(RoomConfig(dims=(4, 5, 3), absorption=0.0))

    def test_traced_rt60_tracks_sabine(self):
        # one mid-absorption case here; the three-alpha sweep runs in acceptance
        room = RoomConfig(dims=(4, 5, 3), absorption=0.3, scattering=1.0)
        sc = Scene(room=room, source=(1.2, 1.7, 1.1), listener=(2.9, 3.6, 1.9))
        traced = trace_paths(sc, n_rays=6000, max_bounces=120,
                             receiver_radius=0.08, rng_seed=7)
        length = int(traced.delays.max() * 16000) + 2
        ir = encode_srir(traced, 16000, length)
        rt = estimate_rt60(energy_decay_curve(ir), 16000)
        sab = sabine_rt60(room)
        assert abs(rt - sab) / sab <= 0.25
