import math
import pickle

import numpy as np
import pytest

import driftlab as dl
from driftlab import transforms
from driftlab.transforms import MonotoneTransform, from_name

CATALOG = [
    dl.identity(),
    dl.square(),
    dl.square_root(),
    dl.power(3),
    dl.power(0.7),
    dl.scale(0.0),
    dl.scale(1.96),
    dl.affine(2.5, -4.0),
    dl.compose(dl.scale(1.96), dl.square_root()),
    dl.compose(dl.square(), dl.affine(0.5, 1.0)),
    dl.compose(dl.compose(dl.scale(3.0), dl.square_root()), dl.power(2)),
]


@pytest.mark.parametrize("transform", CATALOG, ids=lambda t: t.kind)
def test_monotone_on_sampled_pairs(transform):
    gen = dl.RandomSource(31).generator
    a = gen.uniform(0, 1e6, size=10_000)
    b = a + gen.uniform(0, 1e6, size=10_000)
    assert np.all(transform.apply(a) <= transform.apply(b))


@pytest.mark.parametrize("transform", CATALOG, ids=lambda t: t.kind)
def test_scalar_gets_the_bits_of_an_array_element(transform):
    values = dl.RandomSource(32).generator.uniform(0, 1e3, size=2000)
    batch = transform.apply(values)
    assert all(transform.apply(v) == b for v, b in zip(values.tolist(), batch))


def test_known_values():
    assert dl.square().apply(3.0) == 9.0
    assert dl.square_root().apply(4.0) == 2.0
    assert dl.power(3).apply(2.0) == 8.0
    assert dl.scale(1.5).apply(2.0) == 3.0
    assert dl.affine(2.0, 1.0).apply(3.0) == 7.0
    assert dl.compose(dl.scale(2.0), dl.square_root()).apply(4.0) == 4.0


def test_json_round_trip():
    assert {t.kind for t in CATALOG} == set(transforms._KINDS), "every kind needs a CATALOG entry"
    for transform in CATALOG:
        again = MonotoneTransform.from_dict(transform.to_dict())
        assert again == transform
        assert pickle.loads(pickle.dumps(transform)) == transform


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("h1, h2", list(zip(CATALOG, CATALOG[::-1])), ids=lambda t: t.kind)
def test_combine_is_the_sum_of_the_two_applied_transforms(h1, h2):
    inst = dl.generate_instance(8, 0, "1/2", weight_scheme="all-ones", transforms=(h1, h2))
    gen = dl.RandomSource(33).generator
    l1, l2 = gen.uniform(0, 1e3, size=(2, 500))
    assert _bits(inst.combine(l1, l2)) == _bits(h1.apply(l1) + h2.apply(l2))
    for a, b in zip(l1.tolist(), l2.tolist()):
        assert _bits(inst.combine(a, b)) == _bits(h1.apply(a) + h2.apply(b))
    again = pickle.loads(pickle.dumps(inst))
    assert _bits(again.combine(l1, l2)) == _bits(inst.combine(l1, l2))


def test_spec_tagged_forms():
    assert MonotoneTransform.from_dict({"kind": "power", "k": 2}) == dl.power(2)
    nested = {
        "kind": "compose",
        "outer": {"kind": "scale", "R": 1.96},
        "inner": {"kind": "square_root"},
    }
    assert MonotoneTransform.from_dict(nested) == dl.compose(dl.scale(1.96), dl.square_root())


NOT_FINITE_REALS = {
    "power(nan)": lambda: dl.power(math.nan),
    "power(inf)": lambda: dl.power(math.inf),
    "power(10**400)": lambda: dl.power(10**400),
    "scale(nan)": lambda: dl.scale(math.nan),
    "scale(inf)": lambda: dl.scale(math.inf),
    "scale('2')": lambda: dl.scale("2"),
    "scale(True)": lambda: dl.scale(True),
    "affine(nan, 0)": lambda: dl.affine(math.nan, 0.0),
    "affine(1, inf)": lambda: dl.affine(1.0, math.inf),
    "affine(1, -inf)": lambda: dl.affine(1.0, -math.inf),
}


@pytest.mark.parametrize("build", NOT_FINITE_REALS.values(), ids=NOT_FINITE_REALS)
def test_parameters_must_be_finite_real_numbers(build):
    with pytest.raises(ValueError, match="finite real number"):
        build()


@pytest.mark.parametrize(
    "kind, params, key",
    [
        ("square", {"k": 2.0}, "k"),
        ("identity", {"R": 1.0}, "R"),
        ("power", {"k": 2.0, "a": 1.0}, "a"),
        ("scale", {"R": 2.0, "inner": dl.square()}, "inner"),
        ("compose", {"outer": dl.square(), "inner": dl.square(), "b": 0.0}, "b"),
    ],
)
def test_parameter_of_another_kind_rejected(kind, params, key):
    with pytest.raises(ValueError, match=f"takes no parameter {key}"):
        MonotoneTransform(kind, **params)


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"kind": "power"}, "real number k > 0, got None"),
        ({"kind": "scale"}, "real number R >= 0, got None"),
        ({"kind": "affine", "a": 1.0}, "real number b, got None"),
        ({"kind": "compose", "outer": {"kind": "square"}}, "a transform inner, got None"),
        ({"kind": "compose", "outer": {"kind": "square"}, "inner": {"kind": "power"}}, "real number k > 0"),
        ({"kind": "square", "k": 3}, "takes no parameter k"),
        ({"kind": "scale", "R": 2.0, "a": 1.0}, "takes no parameter a"),
        ({"kind": "square", "extra": 1}, "only transform parameters"),
        ({"kind": "scale", "R": "2"}, "finite real number R"),
        ({"kind": "scale", "R": float("nan")}, "finite real number R"),
        ({"kind": "compose", "outer": "square", "inner": {"kind": "square"}}, "needs a transform outer"),
        ("square", "transform object"),
    ],
)
def test_strict_transform_json(doc, match):
    with pytest.raises(ValueError, match=match):
        MonotoneTransform.from_dict(doc)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        dl.power(0)
    with pytest.raises(ValueError):
        dl.power(-1)
    with pytest.raises(ValueError):
        dl.scale(-0.5)
    with pytest.raises(ValueError):
        dl.affine(-1.0, 0.0)
    with pytest.raises(ValueError):
        MonotoneTransform("no_such_kind")


def test_named_lookup():
    assert from_name("square") == dl.square()
    assert from_name("scaled_square_root").kind == "compose"
    with pytest.raises(ValueError):
        from_name("cube")
