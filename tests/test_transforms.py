import numpy as np
import pytest

import driftlab as dl
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
    for transform in CATALOG:
        again = MonotoneTransform.from_dict(transform.to_dict())
        assert again == transform


def test_spec_tagged_forms():
    assert MonotoneTransform.from_dict({"kind": "power", "k": 2}) == dl.power(2)
    nested = {
        "kind": "compose",
        "outer": {"kind": "scale", "R": 1.96},
        "inner": {"kind": "square_root"},
    }
    assert MonotoneTransform.from_dict(nested) == dl.compose(dl.scale(1.96), dl.square_root())


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
