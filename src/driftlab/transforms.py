"""Monotone non-decreasing transforms applied to linear-function values.

The catalog covers identity, square, square root, power(k > 0), scale(R >= 0),
affine(a >= 0, b) and compositions, each monotone non-decreasing on [0, inf),
the only domain the objectives produce.  One table, ``_KINDS``, gives each kind
its parameter checks and evaluator factory; a transform compiles its evaluator
once, when built (a closure; ``compose`` nests its parts').  Numbers are finite
reals.  JSON carries exactly the kind's keys, e.g. ``{"kind": "power", "k": 2}``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from numbers import Real
from typing import Callable, Optional

import numpy as np


def _real(rule: str = "", holds=lambda v: True):
    """A check passing a finite real number (not a bool) for which `holds` is true, as a float."""
    def check(kind: str, name: str, v) -> float:
        if isinstance(v, bool) or not isinstance(v, Real) or not (abs(v) <= sys.float_info.max and holds(v)):
            raise ValueError(f"{kind} transform needs a finite real number {name}{rule}, got {v!r}")
        return float(v)
    return check


def _part(kind: str, name: str, v) -> "MonotoneTransform":
    if not isinstance(v, MonotoneTransform):
        raise ValueError(f"{kind} transform needs a transform {name}, got {v!r}")
    return v


# kind -> ({parameter: check}, evaluator factory over the checked parameters in that order).
# Each evaluator runs its kind's numpy operation, so a Python float gets an array element's bits.
_KINDS = {
    "identity": ({}, lambda: lambda v: v),
    "square": ({}, lambda: lambda v: v * v),
    "square_root": ({}, lambda: np.sqrt),
    "power": ({"k": _real(" > 0", lambda v: v > 0)}, lambda k: lambda v: np.power(v, k)),
    "scale": ({"R": _real(" >= 0", lambda v: v >= 0)}, lambda R: lambda v: R * v),
    "affine": ({"a": _real(" >= 0", lambda v: v >= 0), "b": _real()}, lambda a, b: lambda v: a * v + b),
    "compose": ({"outer": _part, "inner": _part}, lambda o, i: lambda v, f=o.evaluator, g=i.evaluator: f(g(v))),
}


@dataclass(frozen=True)
class MonotoneTransform:
    kind: str
    k: Optional[float] = None
    R: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    outer: Optional["MonotoneTransform"] = None
    inner: Optional["MonotoneTransform"] = None
    evaluator: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}; choose from {sorted(_KINDS)}")
        checks, factory = _KINDS[self.kind]
        for name in (f.name for f in fields(self)[1:-1]):  # the parameters, between kind and evaluator
            if name in checks:
                object.__setattr__(self, name, checks[name](self.kind, name, getattr(self, name)))
            elif getattr(self, name) is not None:
                raise ValueError(f"{self.kind} transform takes no parameter {name}")
        object.__setattr__(self, "evaluator", factory(*(getattr(self, name) for name in checks)))

    def __reduce__(self):  # the compiled evaluator does not pickle; rebuild from the JSON form
        return MonotoneTransform.from_dict, (self.to_dict(),)

    def apply(self, v):
        """Evaluate on a scalar or numpy array of non-negative values."""
        return self.evaluator(v)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name in _KINDS[self.kind][0]:
            value = getattr(self, name)
            d[name] = value.to_dict() if isinstance(value, MonotoneTransform) else value
        return d

    @staticmethod
    def from_dict(d: dict) -> "MonotoneTransform":
        if not isinstance(d, dict) or "kind" not in d or not set(d) <= {f.name for f in fields(MonotoneTransform)[:-1]}:
            raise ValueError(f"a transform object has a \"kind\" and only transform parameters, got {d!r}")
        return MonotoneTransform(**{key: MonotoneTransform.from_dict(v) if isinstance(v, dict) else v for key, v in d.items()})


def identity() -> MonotoneTransform:
    return MonotoneTransform("identity")


def square() -> MonotoneTransform:
    return MonotoneTransform("square")


def square_root() -> MonotoneTransform:
    return MonotoneTransform("square_root")


def power(k: float) -> MonotoneTransform:
    return MonotoneTransform("power", k=k)


def scale(R: float) -> MonotoneTransform:
    return MonotoneTransform("scale", R=R)


def affine(a: float, b: float) -> MonotoneTransform:
    return MonotoneTransform("affine", a=a, b=b)


def compose(outer: MonotoneTransform, inner: MonotoneTransform) -> MonotoneTransform:
    return MonotoneTransform("compose", outer=outer, inner=inner)


# Names accepted on the command line and in generator configs.
NAMED_TRANSFORMS = {
    "identity": identity,
    "square": square,
    "square_root": square_root,
    "scaled_square_root": lambda: compose(scale(2.0), square_root()),
}


def from_name(name: str) -> MonotoneTransform:
    if name not in NAMED_TRANSFORMS:
        raise ValueError(f"unknown transform name {name!r}; choose from {sorted(NAMED_TRANSFORMS)}")
    return NAMED_TRANSFORMS[name]()
