"""The package's public names: each listed once, in its own module."""

import importlib

import susyqm as sq

LAYERS = ("superpotentials", "grid", "operators", "spectral", "entanglement",
          "jaynescummings", "errors")


def test_package_all_is_the_union_of_the_layer_lists():
    union = [name for layer in LAYERS
             for name in importlib.import_module(f"susyqm.{layer}").__all__]
    assert len(sq.__all__) == len(set(sq.__all__))
    assert len(union) == len(set(union))
    assert set(sq.__all__) == set(union)


def test_every_public_name_resolves_on_the_package():
    for name in sq.__all__:
        assert hasattr(sq, name), name
