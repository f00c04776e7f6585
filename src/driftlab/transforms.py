"""Monotone non-decreasing transforms applied to linear-function values.

The catalog covers identity, square, square root, power(k > 0), scale(R >= 0),
affine(a >= 0, b) and compositions, each monotone non-decreasing on [0, inf),
the only domain the objectives produce.  One table, ``_KINDS``, gives each kind
its parameter checks and its Python expression over a value ``v``; ``compose``
substitutes its inner expression into its outer one.  A transform is a plain
value, pickled by its fields.  :func:`compile_function` turns expressions into
functions: an objective compiles its combine step and float kernel from both
transforms' expressions, and ``apply`` compiles one at each call.  Numbers are
finite reals.  JSON carries exactly the kind's keys, e.g. ``{"kind": "power", "k": 2}``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields
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


# kind -> ({parameter: check}, expression over the value v and the checked
# parameters in that order: a number as the name it is bound to, a transform as
# a function from a value to its expression).  A value that is not a name
# arrives in parentheses.
_KINDS = {
    "identity": ({}, lambda v: v),
    "square": ({}, lambda v: f"{v} * {v}"),
    "square_root": ({}, lambda v: f"sqrt({v})"),
    "power": ({"k": _real(" > 0", lambda v: v > 0)}, lambda v, k: f"power({v}, {k})"),
    "scale": ({"R": _real(" >= 0", lambda v: v >= 0)}, lambda v, R: f"{R} * {v}"),
    "affine": ({"a": _real(" >= 0", lambda v: v >= 0), "b": _real()}, lambda v, a, b: f"{a} * {v} + {b}"),
    "compose": ({"outer": _part, "inner": _part}, lambda v, outer, inner: outer(f"({inner(v)})")),
}

# What the expressions call.  On arrays it is numpy, and a scalar gets an array
# element's bits.  On Python floats sqrt is math.sqrt, correctly rounded like
# np.sqrt, so the bits agree; power stays np.power, because math.pow's libm
# differs from it in the last bit for some values.  math.sqrt raises ValueError
# on a negative value, where np.sqrt gives nan.
ARRAY_FUNCTIONS = {"sqrt": np.sqrt, "power": np.power}
FLOAT_FUNCTIONS = {"sqrt": math.sqrt, "power": lambda v, k: float(np.power(v, k))}


@functools.lru_cache(maxsize=256)
def _code(source: str):
    return compile(source, "<driftlab.transforms>", "exec")


def compile_function(template: str, build: Callable, namespace: dict) -> Callable:
    """The function ``f`` that `template` defines once its "{}" is build(bind).

    `build` writes each number as the name bind(number) returns, and the number
    is bound to that name in a copy of `namespace`; numbers never enter the
    source, so each source is compiled once per process.
    """
    namespace = dict(namespace)

    def bind(number) -> str:
        name = f"_p{len(namespace)}"
        namespace[name] = number
        return name

    exec(_code(template.format(build(bind))), namespace)
    return namespace["f"]


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
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}; choose from {sorted(_KINDS)}")
        checks = _KINDS[self.kind][0]
        for name in (f.name for f in fields(self)[1:]):  # the parameters, after kind
            if name in checks:
                object.__setattr__(self, name, checks[name](self.kind, name, getattr(self, name)))
            elif getattr(self, name) is not None:
                raise ValueError(f"{self.kind} transform takes no parameter {name}")

    def apply(self, v):
        """Evaluate on a scalar or numpy array of non-negative values, compiling
        the expression with numpy's functions at each call."""
        return compile_function("f = lambda v: {}", functools.partial(self.expression, "v"), ARRAY_FUNCTIONS)(v)

    def expression(self, v: str, bind: Callable) -> str:
        """This transform as a Python expression over the expression `v`, each
        number written as the name bind(number) returns."""
        checks, expression = _KINDS[self.kind]
        params = (getattr(self, name) for name in checks)
        return expression(v, *(functools.partial(p.expression, bind=bind) if isinstance(p, MonotoneTransform)
                               else bind(p) for p in params))

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name in _KINDS[self.kind][0]:
            value = getattr(self, name)
            d[name] = value.to_dict() if isinstance(value, MonotoneTransform) else value
        return d

    @staticmethod
    def from_dict(d: dict) -> "MonotoneTransform":
        if not isinstance(d, dict) or "kind" not in d or not set(d) <= {f.name for f in fields(MonotoneTransform)}:
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
    if not isinstance(name, str) or name not in NAMED_TRANSFORMS:
        raise ValueError(f"unknown transform name {name!r}; choose from {sorted(NAMED_TRANSFORMS)}")
    return NAMED_TRANSFORMS[name]()
