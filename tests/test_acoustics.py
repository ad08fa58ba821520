import numpy as np
import pytest

from ambidoa.acoustics import (
    DIMS_MAX,
    DIMS_MIN,
    PathSet,
    RoomConfig,
    Scene,
    energy_decay_curve,
    estimate_rt60,
    image_source_paths,
    load_scenes,
    sabine_rt60,
    sample_scenes,
    save_scenes,
    trace_paths,
)
from ambidoa.foa import FoaIR, encode_srir

C = 343.0


def demo_scene(alpha=0.3, scattering=0.0):
    room = RoomConfig(dims=(4.0, 5.0, 3.0), absorption=alpha, scattering=scattering)
    return Scene(room=room, source=(1.0, 1.0, 1.0), listener=(3.0, 4.0, 2.0))


class TestTypes:
    def test_room_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RoomConfig(dims=(4, -5, 3), absorption=0.3)
        with pytest.raises(ValueError):
            RoomConfig(dims=(4, 5, 3), absorption=1.5)
        with pytest.raises(ValueError):
            RoomConfig(dims=(4, 5, 3), absorption=0.3, scattering=2.0)

    def test_scene_enforces_margin(self):
        room = RoomConfig(dims=(4, 5, 3), absorption=0.3)
        with pytest.raises(ValueError):
            Scene(room=room, source=(0.2, 1, 1), listener=(3, 4, 2))
        with pytest.raises(ValueError):
            Scene(room=room, source=(1, 1, 1), listener=(3.9, 4, 2))

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

    def test_source_inside_receiver_rejected(self):
        room = RoomConfig(dims=(4, 5, 3), absorption=0.3)
        sc = Scene(room=room, source=(2.0, 2.0, 1.5), listener=(2.1, 2.0, 1.5))
        with pytest.raises(ValueError):
            trace_paths(sc, n_rays=10, max_bounces=1, receiver_radius=0.3)

    def test_receiver_radius_bounds(self):
        with pytest.raises(ValueError):
            trace_paths(demo_scene(), n_rays=10, max_bounces=1, receiver_radius=1.0)


class TestReverbOracles:
    def test_edc_of_single_impulse(self):
        ch = np.zeros((4, 100))
        ch[0, 10] = 1.0
        edc = energy_decay_curve(FoaIR(channels=ch, sample_rate=16000))
        assert np.all(edc[: 10 + 1] == 0.0)
        assert np.all(np.isneginf(edc[11:]))

    def test_edc_monotone_and_normalized(self):
        rng = np.random.default_rng(0)
        ch = np.zeros((4, 4000))
        ch[0] = rng.standard_normal(4000)
        edc = energy_decay_curve(FoaIR(channels=ch, sample_rate=16000))
        assert edc[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(edc) <= 1e-12)

    def test_edc_scale_invariant(self):
        rng = np.random.default_rng(1)
        ch = np.zeros((4, 1000))
        ch[0] = rng.standard_normal(1000)
        a = energy_decay_curve(FoaIR(channels=ch, sample_rate=16000))
        b = energy_decay_curve(FoaIR(channels=3.7 * ch, sample_rate=16000))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_edc_rejects_silence(self):
        with pytest.raises(ValueError):
            energy_decay_curve(FoaIR(channels=np.zeros((4, 64)), sample_rate=16000))

    def test_constructed_decay_slope(self):
        # noise decaying 60 dB per 0.5 s has an EDC slope of -120 dB/s
        fs = 16000
        t = np.arange(fs) / fs
        rng = np.random.default_rng(8)
        ch = np.zeros((4, fs))
        ch[0] = rng.standard_normal(fs) * 10.0 ** (-120.0 * t / 20.0)
        edc = energy_decay_curve(FoaIR(channels=ch, sample_rate=fs))
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
