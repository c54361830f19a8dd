"""Grid construction, the dx-weighted inner product and the phase convention."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import susyqm as sq


def gaussian(x):
    return np.exp(-x * x / 2.0) / np.pi ** 0.25


def first_hermite(x):
    return np.sqrt(2.0) * x * np.exp(-x * x / 2.0) / np.pi ** 0.25


class TestMakeGrid:
    def test_default_box_spacing(self):
        g = sq.make_grid(-10, 10, 2001)
        assert g.dx == pytest.approx(0.01, abs=1e-15)

    def test_smallest_legal_grid_nodes(self):
        g = sq.make_grid(0, 1, 3)
        assert np.array_equal(g.nodes(), [0.0, 0.5, 1.0])

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            sq.make_grid(10, -10, 100)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            sq.make_grid(0, 1, 2)

    def test_nonfinite_bound_rejected(self):
        with pytest.raises(ValueError):
            sq.make_grid(0, np.inf, 10)


class TestInnerProduct:
    def test_normalized_self_overlap(self, normalize):
        g = sq.make_grid(-10, 10, 2001)
        f = normalize(sq.Wavefunction(g, gaussian(g.nodes())))
        assert sq.inner_product(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_even_times_odd_vanishes(self):
        g = sq.make_grid(-10, 10, 2001)
        x = g.nodes()
        f = sq.Wavefunction(g, np.exp(-x * x))
        h = sq.Wavefunction(g, x * np.exp(-x * x))
        assert abs(sq.inner_product(f, h)) < 1e-12

    def test_hermite_orthogonality(self):
        # lowest two oscillator states; the sampled product integrates to zero
        g = sq.make_grid(-10, 10, 2001)
        x = g.nodes()
        f = sq.Wavefunction(g, gaussian(x))
        h = sq.Wavefunction(g, first_hermite(x))
        assert abs(sq.inner_product(f, h)) < 1e-10

    def test_grid_mismatch_rejected(self):
        f = sq.Wavefunction(sq.make_grid(-1, 1, 11), np.ones(11))
        h = sq.Wavefunction(sq.make_grid(-1, 1, 21), np.ones(21))
        with pytest.raises(sq.GridMismatchError):
            sq.inner_product(f, h)

    @given(a_re=st.floats(-2, 2), a_im=st.floats(-2, 2), seed=st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_antilinearity_first_slot_linearity_second(self, a_re, a_im, seed):
        rng = np.random.default_rng(seed)
        g = sq.make_grid(-1, 1, 17)
        f = sq.Wavefunction(g, rng.normal(size=17) + 1j * rng.normal(size=17))
        h = sq.Wavefunction(g, rng.normal(size=17) + 1j * rng.normal(size=17))
        a = complex(a_re, a_im)
        scaled = sq.Wavefunction(g, a * h.amplitudes)
        lhs = sq.inner_product(f, scaled)
        rhs = a * sq.inner_product(f, h)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_self_overlap_real_nonnegative(self, norm, seed):
        rng = np.random.default_rng(seed)
        g = sq.make_grid(-1, 1, 17)
        f = sq.Wavefunction(g, rng.normal(size=17) + 1j * rng.normal(size=17))
        val = sq.inner_product(f, f)
        assert val.imag == 0.0
        assert val.real >= 0.0
        assert val.real == pytest.approx(norm(f) ** 2, rel=1e-12)


class TestNormalize:
    """The test suite's normalization (conftest): the dx weight and `fix_phase`."""

    def test_constant_vector(self, norm, normalize):
        g = sq.make_grid(0, 1, 5)
        f = normalize(sq.Wavefunction(g, 2.0 * np.ones(5)))
        assert norm(f) == pytest.approx(1.0, abs=1e-14)
        assert np.ptp(f.amplitudes) == 0.0

    def test_sampled_gaussian_unit_norm(self, normalize):
        g = sq.make_grid(-10, 10, 2001)
        f = normalize(sq.Wavefunction(g, np.exp(-g.nodes() ** 2)))
        assert abs(sq.inner_product(f, f) - 1.0) < 1e-12

    def test_idempotent(self, normalize):
        g = sq.make_grid(-5, 5, 101)
        f = normalize(sq.Wavefunction(g, np.sin(g.nodes()) + 0.3))
        again = normalize(f)
        assert np.array_equal(f.amplitudes, again.amplitudes)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_phase_convention_pivot_real_positive(self, normalize, seed):
        rng = np.random.default_rng(seed)
        g = sq.make_grid(-1, 1, 13)
        f = normalize(
            sq.Wavefunction(g, rng.normal(size=13) + 1j * rng.normal(size=13))
        )
        pivot = f.amplitudes[np.argmax(np.abs(f.amplitudes))]
        assert pivot.imag == pytest.approx(0.0, abs=1e-15)
        assert pivot.real > 0


class TestBatchedWavefunction:
    def test_leading_axes_are_a_batch(self):
        g = sq.make_grid(-1, 1, 5)
        f = sq.Wavefunction(g, np.arange(30.0).reshape(2, 3, 5))
        assert f.amplitudes.shape == (2, 3, 5)
        for bad in (np.ones((3, 4)), np.float64(1.0)):
            with pytest.raises(ValueError):
                sq.Wavefunction(g, bad)

    def test_inner_product_of_a_batch_is_each_row_alone(self):
        rng = np.random.default_rng(4)
        g = sq.make_grid(-1, 1, 17)
        f = sq.Wavefunction(g, rng.normal(size=(4, 17)) + 1j * rng.normal(size=(4, 17)))
        h = sq.Wavefunction(g, rng.normal(size=(4, 17)))
        ov = sq.inner_product(f, h)
        assert ov.dtype == complex and ov.shape == (4,)
        for j in range(4):
            one = sq.inner_product(sq.Wavefunction(g, f.amplitudes[j]),
                                   sq.Wavefunction(g, h.amplitudes[j]))
            assert type(one) is complex and ov[j] == one


class TestFixPhaseWithoutModulusArray:
    """The real pivot is found from argmax and argmin, with no |a| array."""

    @staticmethod
    def by_modulus(a):
        """The definition: the sign of the first entry of largest |a_i|; a NaN one flips."""
        pivot = np.take_along_axis(a, np.argmax(np.abs(a), axis=-1, keepdims=True), axis=-1)
        return a * np.where(pivot >= 0, 1.0, -1.0)

    @given(rows=st.lists(st.lists(st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, np.inf, -np.inf, np.nan]),
        min_size=5, max_size=5), min_size=1, max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_real_rows_match_the_modulus_definition(self, rows):
        # few distinct values, so ties between +m and -m, signed zeros,
        # infinities and NaN come up often; the result equals the definition
        # bit for bit, as a new array and in place
        a = np.array(rows)
        want = self.by_modulus(a)
        assert sq.fix_phase(a).tobytes() == want.tobytes()
        b = a.copy()
        assert sq.fix_phase(b, out=b) is b
        assert b.tobytes() == want.tobytes()


class TestSerialization:
    def test_frozen_contiguous_amplitudes_are_shared(self):
        # a read-only C-contiguous array is taken as it is; anything else is
        # copied, so the state never shares memory that can be written
        g = sq.make_grid(0, 1, 3)
        frozen = np.arange(6.0).reshape(2, 3)
        frozen.flags.writeable = False
        assert sq.Wavefunction(g, frozen).amplitudes is frozen
        writable = np.arange(6.0).reshape(2, 3)
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        fortran.flags.writeable = False
        for amps in (writable, fortran, np.broadcast_to(np.ones(3), (2, 3))):
            kept = sq.Wavefunction(g, amps).amplitudes
            assert not np.shares_memory(kept, amps)
            assert kept.flags.c_contiguous and not kept.flags.writeable
            assert np.array_equal(kept, amps)

    def test_wavefunction_immutable(self):
        g = sq.make_grid(0, 1, 3)
        f = sq.Wavefunction(g, np.ones(3))
        with pytest.raises((ValueError, RuntimeError)):
            f.amplitudes[0] = 5.0
