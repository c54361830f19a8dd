"""Bundled superpotentials.

Every registered W satisfies the unbroken-SUSY sign condition
sign W(-inf) = -1, sign W(+inf) = +1 on the default box; whether it holds on
a given box is decided by `operators.check_sign_condition`, which evaluates W
at the box ends. harmonic, cubic and tanh are odd, W(-x) = -W(x), which makes
partner eigenstates orthogonal in the continuum limit; shifted_cubic is not.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["Superpotential", "get_superpotential", "REGISTRY_NAMES"]


@dataclass(frozen=True)
class Superpotential:
    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.evaluate(np.asarray(x, dtype=float))


def _harmonic(scale: float = 1.0):
    # scale = -1 gives W = -x, the canonical sign-condition violator
    scale = float(scale)
    return Superpotential("harmonic", lambda x: scale * x, {"scale": scale})


def _cubic():
    # x * x * x, not x ** 3: libm pow is off by an ulp under sign flips,
    # which would break the odd parity bitwise
    return Superpotential("cubic", lambda x: x * x * x)


def _shifted_cubic(a: float = 0.5):
    a = float(a)
    return Superpotential("shifted_cubic", lambda x: x ** 3 + a, {"a": a})


def _tanh():
    return Superpotential("tanh", np.tanh)


_REGISTRY = {
    "harmonic": _harmonic,
    "cubic": _cubic,
    "shifted_cubic": _shifted_cubic,
    "tanh": _tanh,
}

REGISTRY_NAMES = tuple(sorted(_REGISTRY))


def get_superpotential(name: str, **params) -> Superpotential:
    """Look up a bundled superpotential by name, e.g. shifted_cubic(a=0.5)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown superpotential {name!r}; available: {', '.join(REGISTRY_NAMES)}"
        ) from None
    return factory(**params)
