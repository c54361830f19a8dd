"""Registry lookups, parameters and the symmetry of the bundled W."""

import numpy as np
import pytest

import susyqm as sq


def test_registry_names():
    assert sq.REGISTRY_NAMES == ("cubic", "harmonic", "shifted_cubic", "tanh")


@pytest.mark.parametrize("name", sq.REGISTRY_NAMES)
def test_sign_condition_on_default_box(name):
    W = sq.get_superpotential(name)
    g = sq.make_grid(-10, 10, 2001)
    assert sq.check_sign_condition(W, g) is True


@pytest.mark.parametrize("name", ["harmonic", "cubic", "tanh"])
def test_declared_odd_parity_holds_on_nodes(name):
    W = sq.get_superpotential(name)
    x = sq.make_grid(-10, 10, 2001).nodes()
    assert np.array_equal(W(-x), -W(x))


def test_shifted_cubic_not_odd():
    W = sq.get_superpotential("shifted_cubic")
    assert W(np.array([-1.0]))[0] != -W(np.array([1.0]))[0]


def test_shifted_cubic_default_shift():
    W = sq.get_superpotential("shifted_cubic")
    assert W.params == {"a": 0.5}
    assert W(np.array([0.0]))[0] == 0.5


def test_shifted_cubic_custom_shift():
    W = sq.get_superpotential("shifted_cubic", a=2.0)
    assert W(np.array([1.0]))[0] == 3.0


def test_harmonic_values():
    W = sq.get_superpotential("harmonic")
    x = np.array([-2.0, 0.0, 3.5])
    assert np.array_equal(W(x), x)


def test_harmonic_negative_scale_flips_signs():
    W = sq.get_superpotential("harmonic", scale=-1.0)
    assert W(np.array([2.0]))[0] == -2.0
    assert W(np.array([-10.0, 10.0])).tolist() == [10.0, -10.0]
    assert sq.check_sign_condition(W, sq.make_grid(-10, 10, 101)) is False


def test_vanishing_boundary_sign_indeterminate():
    W = sq.Superpotential("bump", lambda x: x * np.exp(-x * x))
    with pytest.raises(sq.IndeterminateSignError):
        sq.check_sign_condition(W, sq.make_grid(-800.0, 800.0, 101))


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        sq.get_superpotential("quartic")


def test_unknown_parameter_rejected():
    with pytest.raises(TypeError):
        sq.get_superpotential("tanh", width=2.0)
