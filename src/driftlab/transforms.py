"""Monotone non-decreasing transforms applied to linear-function values.

The catalog covers identity, square, square root, power(k > 0), scale(R >= 0),
affine(a >= 0, b) and arbitrary compositions.  Every member is monotone
non-decreasing on [0, inf), which is the only domain the objectives produce
(non-negative weights, 0/1 variables).  Transforms serialize to tagged JSON
objects, e.g. ``{"kind": "power", "k": 2}`` or
``{"kind": "compose", "outer": {...}, "inner": {...}}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

_KINDS = ("identity", "square", "square_root", "power", "scale", "affine", "compose")


@dataclass(frozen=True)
class MonotoneTransform:
    kind: str
    k: Optional[float] = None
    R: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    outer: Optional["MonotoneTransform"] = None
    inner: Optional["MonotoneTransform"] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "power":
            if self.k is None or self.k <= 0:
                raise ValueError("power transform needs exponent k > 0")
        if self.kind == "scale":
            if self.R is None or self.R < 0:
                raise ValueError("scale transform needs factor R >= 0")
        if self.kind == "affine":
            if self.a is None or self.a < 0:
                raise ValueError("affine transform needs slope a >= 0")
            if self.b is None:
                raise ValueError("affine transform needs offset b")
        if self.kind == "compose" and (self.outer is None or self.inner is None):
            raise ValueError("compose transform needs outer and inner")

    def apply(self, v):
        """Evaluate on a scalar or numpy array of non-negative values."""
        if self.kind == "identity":
            return v
        if self.kind == "square":
            return v * v
        if self.kind == "square_root":
            return np.sqrt(v)
        if self.kind == "power":
            return np.power(v, self.k)  # one ufunc path: a scalar gets an array element's bits
        if self.kind == "scale":
            return self.R * v
        if self.kind == "affine":
            return self.a * v + self.b
        return self.outer.apply(self.inner.apply(v))

    def to_dict(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "k": self.k}
        if self.kind == "scale":
            return {"kind": "scale", "R": self.R}
        if self.kind == "affine":
            return {"kind": "affine", "a": self.a, "b": self.b}
        if self.kind == "compose":
            return {"kind": "compose", "outer": self.outer.to_dict(), "inner": self.inner.to_dict()}
        return {"kind": self.kind}

    @staticmethod
    def from_dict(d: dict) -> "MonotoneTransform":
        kind = d.get("kind")
        if kind == "power":
            return power(d["k"])
        if kind == "scale":
            return scale(d["R"])
        if kind == "affine":
            return affine(d["a"], d["b"])
        if kind == "compose":
            return compose(MonotoneTransform.from_dict(d["outer"]), MonotoneTransform.from_dict(d["inner"]))
        return MonotoneTransform(kind)


def identity() -> MonotoneTransform:
    return MonotoneTransform("identity")


def square() -> MonotoneTransform:
    return MonotoneTransform("square")


def square_root() -> MonotoneTransform:
    return MonotoneTransform("square_root")


def power(k: float) -> MonotoneTransform:
    return MonotoneTransform("power", k=float(k))


def scale(R: float) -> MonotoneTransform:
    return MonotoneTransform("scale", R=float(R))


def affine(a: float, b: float) -> MonotoneTransform:
    return MonotoneTransform("affine", a=float(a), b=float(b))


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
    try:
        return NAMED_TRANSFORMS[name]()
    except KeyError:
        raise ValueError(
            f"unknown transform name {name!r}; choose from {sorted(NAMED_TRANSFORMS)}"
        ) from None
