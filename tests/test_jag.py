"""Tests for the synthetic JAG stack: params, simulator, postprocess,
sampling designs, and dataset generation.

Beyond mechanics, these check the *structural* properties the reproduction
depends on: determinism, smooth-but-nonlinear drive response, asymmetry
degrading compression, view/channel image structure, and the
exploration-ordered (non-IID) sample layout.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jag.dataset import (
    JagDataset,
    JagDatasetConfig,
    JagSchema,
    generate_dataset,
    paper_schema,
    small_schema,
)
from repro.jag.params import NUM_PARAMS, PARAMETER_NAMES, ParameterSpace
from repro.jag.postprocess import NUM_SCALARS, SCALAR_NAMES, derive_scalars
from repro.jag.sampling import design_points, rank1_lattice
from repro.jag.simulator import JagSimulator


class TestParams:
    def test_names_and_dim(self):
        assert NUM_PARAMS == 5
        assert len(PARAMETER_NAMES) == 5

    def test_validate_accepts_unit_cube(self):
        x = np.random.default_rng(0).random((10, 5))
        out = ParameterSpace.validate(x)
        assert out.shape == (10, 5) and out.dtype == np.float32

    def test_validate_promotes_1d(self):
        assert ParameterSpace.validate(np.zeros(5)).shape == (1, 5)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ParameterSpace.validate(np.full((1, 5), 1.5))

    def test_validate_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            ParameterSpace.validate(np.zeros((3, 4)))

    def test_column_access(self):
        x = np.arange(10, dtype=np.float32).reshape(2, 5) / 10
        np.testing.assert_array_equal(
            ParameterSpace.column(x, "laser_drive"), x[:, 0]
        )
        with pytest.raises(KeyError):
            ParameterSpace.column(x, "bogus")


class TestSimulator:
    def setup_method(self):
        self.sim = JagSimulator(image_size=12, views=3, channels=4)

    def test_deterministic(self):
        x = np.random.default_rng(1).random((8, 5)).astype(np.float32)
        s1, s2 = self.sim.run(x), self.sim.run(x)
        np.testing.assert_array_equal(s1.fusion_yield, s2.fusion_yield)
        np.testing.assert_array_equal(
            self.sim.render_images(s1), self.sim.render_images(s2)
        )

    def test_drive_monotonically_heats(self):
        """More laser drive -> faster implosion, hotter hot spot."""
        base = np.full((20, 5), 0.5, dtype=np.float32)
        base[:, 0] = np.linspace(0, 1, 20)
        s = self.sim.run(base)
        assert np.all(np.diff(s.velocity) > 0)
        assert np.all(np.diff(s.temperature) > 0)
        assert np.all(np.diff(s.hot_spot_radius) < 0)  # smaller hot spot

    def test_yield_strongly_nonlinear_in_drive(self):
        """Arrhenius reactivity: yield is monotone in drive and spans
        orders of magnitude over the range — the regime where a model
        trained on a low-drive silo cannot extrapolate."""
        x = np.full((5, 5), 0.5, dtype=np.float32)
        x[:, 0] = np.linspace(0, 1, 5)
        y = self.sim.run(x).fusion_yield
        assert np.all(np.diff(y) > 0)
        assert y[-1] / y[0] > 50
        # Relative gains are steeper at the cold end (Arrhenius curvature).
        assert y[1] / y[0] > y[-1] / y[-2]

    def test_asymmetry_degrades_compression(self):
        sym = np.full((1, 5), 0.5, dtype=np.float32)
        asym = sym.copy()
        asym[0, 1] = 1.0  # max P2
        s_sym, s_asym = self.sim.run(sym), self.sim.run(asym)
        assert s_asym.temperature[0] < s_sym.temperature[0]
        assert s_asym.convergence[0] < s_sym.convergence[0]
        assert s_asym.fusion_yield[0] < s_sym.fusion_yield[0]

    def test_images_shape_and_range(self):
        x = np.random.default_rng(2).random((6, 5)).astype(np.float32)
        img = self.sim.render_images(self.sim.run(x))
        assert img.shape == (6, 3, 4, 12, 12)
        assert img.dtype == np.float32
        assert np.all((img >= 0) & (img < 1))

    def test_shape_modes_change_images(self):
        sym = np.full((1, 5), 0.5, dtype=np.float32)
        asym = sym.copy()
        asym[0, 1] = 0.9
        img_sym = self.sim.render_images(self.sim.run(sym))
        img_asym = self.sim.render_images(self.sim.run(asym))
        assert np.abs(img_sym - img_asym).max() > 0.05

    def test_views_differ(self):
        x = np.array([[0.5, 0.9, 0.2, 0.3, 0.5]], dtype=np.float32)
        img = self.sim.render_images(self.sim.run(x))
        assert np.abs(img[0, 0] - img[0, 2]).max() > 0.01

    def test_channels_differ_softer_apparently_larger(self):
        """Soft channels (low index) see a larger apparent hot spot."""
        x = np.full((4, 5), 0.5, dtype=np.float32)
        img = self.sim.render_images(self.sim.run(x))
        soft = (img[:, 0, 0] > 0.05).sum()
        hard = (img[:, 0, -1] > 0.05).sum()
        assert soft > hard

    def test_hotter_is_brighter_in_hard_channels(self):
        """Peak hard-channel intensity rises with temperature (the hot
        spot also shrinks, so compare peaks, not a fixed pixel)."""
        x = np.full((2, 5), 0.5, dtype=np.float32)
        x[1, 0] = 1.0  # hotter
        img = self.sim.render_images(self.sim.run(x))
        assert img[1, 0, 3].max() > img[0, 0, 3].max()

    def test_flat_dim(self):
        assert self.sim.images_flat_dim() == 3 * 4 * 12 * 12

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            JagSimulator(image_size=2)
        with pytest.raises(ValueError):
            JagSimulator(image_size=8, views=0)


class TestRowIndependence:
    """A stated contract of :mod:`repro.jag`: a row's state, images and
    scalars do not depend on which other rows share its call.  The
    streaming campaign simulates by the block on the strength of it."""

    @pytest.mark.parametrize("size,views,channels", [(8, 2, 2), (16, 3, 4)])
    @given(
        seed=st.integers(0, 2**31 - 1),
        method=st.sampled_from(["uniform", "lhs", "lattice"]),
        n=st.integers(1, 48),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_block_rows_equal_single_rows(
        self, size, views, channels, seed, method, n, data
    ):
        sim = JagSimulator(image_size=size, views=views, channels=channels)
        x = design_points(n, NUM_PARAMS, method=method, seed=seed).astype(np.float32)
        offset = data.draw(st.integers(0, n - 1))
        block = data.draw(st.integers(1, n - offset))
        rows = x[offset : offset + block]

        state = sim.run(rows)
        images = sim.render_images(state)
        scalars = derive_scalars(state, images)
        for i in range(block):
            one_state = sim.run(rows[i : i + 1])
            one_images = sim.render_images(one_state)
            for name, column in vars(state).items():
                np.testing.assert_array_equal(
                    column[i : i + 1], getattr(one_state, name), err_msg=name
                )
            np.testing.assert_array_equal(images[i : i + 1], one_images)
            np.testing.assert_array_equal(
                scalars[i : i + 1], derive_scalars(one_state, one_images)
            )


class TestPostprocess:
    def test_scalar_block_shape_and_names(self):
        sim = JagSimulator(image_size=8)
        x = np.random.default_rng(3).random((10, 5)).astype(np.float32)
        state = sim.run(x)
        scal = derive_scalars(state, sim.render_images(state))
        assert scal.shape == (10, NUM_SCALARS)
        assert len(SCALAR_NAMES) == 15
        assert np.all(np.isfinite(scal))

    def test_brightness_scalars_come_from_images(self):
        sim = JagSimulator(image_size=8)
        x = np.random.default_rng(4).random((5, 5)).astype(np.float32)
        state = sim.run(x)
        img = sim.render_images(state)
        scal = derive_scalars(state, img)
        idx = SCALAR_NAMES.index("xray_brightness_v0")
        np.testing.assert_allclose(
            scal[:, idx], img.mean(axis=(2, 3, 4))[:, 0], rtol=1e-5
        )

    def test_rejects_bad_image_shape(self):
        sim = JagSimulator(image_size=8)
        state = sim.run(np.zeros((2, 5), dtype=np.float32))
        with pytest.raises(ValueError):
            derive_scalars(state, np.zeros((3, 3, 4, 8, 8)))


class TestSampling:
    @pytest.mark.parametrize("method", ["uniform", "lhs", "sobol", "lattice"])
    def test_in_unit_cube(self, method):
        pts = design_points(64, 5, method=method, seed=1)
        assert pts.shape == (64, 5)
        assert np.all((pts >= 0) & (pts <= 1))

    @pytest.mark.parametrize("method", ["uniform", "lhs", "sobol", "lattice"])
    def test_seeded_reproducible(self, method):
        a = design_points(32, 3, method=method, seed=5)
        b = design_points(32, 3, method=method, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_lattice_low_discrepancy_beats_uniform(self):
        """Rank-1 lattice covers 1-D projections far more evenly."""

        def max_gap(pts):
            return max(np.diff(np.sort(np.concatenate([[0], pts[:, d], [1]]))).max() for d in range(pts.shape[1]))

        lat = design_points(256, 5, method="lattice", seed=0)
        uni = design_points(256, 5, method="uniform", seed=0)
        assert max_gap(lat) < max_gap(uni)

    def test_lhs_marginals_stratified(self):
        pts = design_points(100, 2, method="lhs", seed=0)
        counts, _ = np.histogram(pts[:, 0], bins=10, range=(0, 1))
        assert np.all(counts == 10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            design_points(8, 2, method="magic")

    def test_rank1_lattice_validation(self):
        with pytest.raises(ValueError):
            rank1_lattice(0, 3)


class TestSchema:
    def test_paper_schema_matches_paper_numbers(self):
        s = paper_schema()
        assert s.image_size == 64 and s.n_images == 12
        # ~190 KB/sample => 10M samples ~ 2 TB, the paper's database size.
        assert s.sample_nbytes == pytest.approx(196_688, abs=100)
        assert 10_000_000 * s.sample_nbytes == pytest.approx(2e12, rel=0.05)

    def test_small_schema(self):
        s = small_schema(16)
        assert s.image_flat_dim == 3 * 4 * 16 * 16

    def test_invalid(self):
        with pytest.raises(ValueError):
            JagSchema(image_size=0)


class TestDatasetGeneration:
    @pytest.fixture(scope="class")
    def ds(self) -> JagDataset:
        return generate_dataset(
            JagDatasetConfig(
                n_samples=400, schema=small_schema(8), seed=11, chunk=128
            )
        )

    def test_shapes(self, ds):
        assert ds.params.shape == (400, 5)
        assert ds.scalars.shape == (400, 15)
        assert ds.images.shape == (400, ds.schema.image_flat_dim)

    def test_scalars_zscored(self, ds):
        np.testing.assert_allclose(ds.scalars.mean(axis=0), 0, atol=1e-3)
        np.testing.assert_allclose(ds.scalars.std(axis=0), 1, atol=1e-2)

    def test_denormalize_roundtrip(self, ds):
        raw = ds.denormalize_scalars(ds.scalars)
        re_z = (raw - ds.scalar_mean) / ds.scalar_std
        np.testing.assert_allclose(re_z, ds.scalars, atol=1e-5)

    def test_sweep_order_is_drive_sorted(self, ds):
        """Exploration order: early samples low drive, late samples high."""
        drive = ds.params[:, 0]
        assert drive[:100].mean() < 0.25
        assert drive[-100:].mean() > 0.75

    def test_design_order_not_sorted(self):
        ds2 = generate_dataset(
            JagDatasetConfig(
                n_samples=400, schema=small_schema(8), seed=11, order="design"
            )
        )
        drive = ds2.params[:, 0]
        assert abs(drive[:100].mean() - drive[-100:].mean()) < 0.2

    def test_chunking_invariant(self):
        cfg_a = JagDatasetConfig(n_samples=100, schema=small_schema(8), seed=5, chunk=16)
        cfg_b = JagDatasetConfig(n_samples=100, schema=small_schema(8), seed=5, chunk=100)
        a, b = generate_dataset(cfg_a), generate_dataset(cfg_b)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.scalars, b.scalars)

    def test_train_val_split_strided_disjoint(self, ds):
        tr, va = ds.train_val_split(0.1, mode="strided")
        assert np.intersect1d(tr, va).size == 0
        assert tr.size + va.size == 400
        # Strided validation spans the sweep.
        assert ds.params[va, 0].max() - ds.params[va, 0].min() > 0.8

    def test_train_val_split_tail(self, ds):
        tr, va = ds.train_val_split(0.25, mode="tail")
        assert va.size == 100 and va[0] == 300

    def test_split_validation(self, ds):
        with pytest.raises(ValueError):
            ds.train_val_split(0.0)
        with pytest.raises(ValueError):
            ds.train_val_split(0.1, mode="bogus")

    def test_image_tensor_roundtrip(self, ds):
        t = ds.image_tensor([0, 1])
        s = ds.schema
        assert t.shape == (2, s.views, s.channels, s.image_size, s.image_size)
        np.testing.assert_array_equal(t.reshape(2, -1), ds.images[:2])

    def test_reader_integration(self, ds):
        reader = ds.reader(np.arange(100), np.random.default_rng(0))
        mb = next(iter(reader.epoch(10)))
        assert set(mb.feeds) == {"images", "params", "scalars"}

    def test_internal_consistency_scalars_vs_images(self, ds):
        """Brightness scalars must match the stored images (joint modality)."""
        idx = SCALAR_NAMES.index("xray_brightness_v1")
        raw = ds.denormalize_scalars(ds.scalars)[:, idx]
        img = ds.image_tensor(np.arange(400))
        np.testing.assert_allclose(raw, img.mean(axis=(2, 3, 4))[:, 1], atol=1e-4)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_generation_deterministic_property(self, seed):
        cfg = JagDatasetConfig(n_samples=32, schema=small_schema(8), seed=seed)
        a, b = generate_dataset(cfg), generate_dataset(cfg)
        np.testing.assert_array_equal(a.images, b.images)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            JagDatasetConfig(n_samples=0)
        with pytest.raises(ValueError):
            JagDatasetConfig(order="sorted")
