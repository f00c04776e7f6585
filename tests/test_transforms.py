import math
import pickle

import numpy as np
import pytest

import driftlab as dl
from driftlab import transforms
from driftlab.transforms import MonotoneTransform, from_name
from oracle_drift import transform_value

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


@pytest.mark.parametrize("transform", CATALOG, ids=lambda t: t.kind)
def test_evaluator_matches_the_independent_oracle(transform):
    # compiled from the kind table's expressions; the oracle spells each kind out in plain Python
    values = dl.RandomSource(36).generator.uniform(0, 1e3, size=500).tolist()
    got = transform.apply(np.array(values)).tolist()
    assert got == pytest.approx([transform_value(transform.to_dict(), v) for v in values], rel=1e-12)


def test_known_values():
    assert dl.square().apply(3.0) == 9.0
    assert dl.square_root().apply(4.0) == 2.0
    assert dl.power(3).apply(2.0) == 8.0
    assert dl.scale(1.5).apply(2.0) == 3.0
    assert dl.affine(2.0, 1.0).apply(3.0) == 7.0
    assert dl.compose(dl.scale(2.0), dl.square_root()).apply(4.0) == 4.0


def test_json_round_trip():
    assert {t.kind for t in CATALOG} == set(transforms._KINDS), "every kind needs a CATALOG entry"
    values = dl.RandomSource(37).generator.uniform(0, 1e3, size=200)
    for transform in CATALOG:
        again = MonotoneTransform.from_dict(transform.to_dict())
        assert again == transform
        # a plain value: it pickles by its fields and evaluates the same after
        unpickled = pickle.loads(pickle.dumps(transform))
        assert unpickled == transform
        assert _bits(unpickled.apply(values)) == _bits(transform.apply(values))
        assert _bits(unpickled.apply(values[0].item())) == _bits(transform.apply(values[0].item()))


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


# Transform pairs for the float kernel: every kind, and compose chains of depth
# 2 and 3 with scale(0), affine with a negative b, and a square root of a
# negative value (numpy's nan, which math.sqrt rejects).
KERNEL_PAIRS = [
    (dl.identity(), dl.identity()),
    (dl.square(), dl.square_root()),
    (dl.power(3), dl.power(0.7)),
    (dl.power(1.5), dl.scale(1.96)),
    (dl.scale(0.0), dl.affine(2.5, -4.0)),
    (dl.square_root(), dl.affine(0.3, -0.1)),
    (dl.compose(dl.scale(1.96), dl.square_root()), dl.compose(dl.square(), dl.affine(0.5, 1.0))),
    (dl.compose(dl.compose(dl.scale(3.0), dl.square_root()), dl.power(2)), dl.compose(dl.scale(0.0), dl.square())),
    (dl.compose(dl.affine(1.0, -7.5), dl.compose(dl.square_root(), dl.power(1.5))),
     dl.compose(dl.power(2.5), dl.compose(dl.affine(3.0, 2.0), dl.scale(0.5)))),
    (dl.compose(dl.square_root(), dl.affine(1.0, -5.0)), dl.compose(dl.square(), dl.affine(2.0, -9.0))),
]


def _kernel_values() -> list:
    """Integers 0..20000, random reals, and integers up to 2**52."""
    gen = dl.RandomSource(34).generator
    return (
        [float(v) for v in range(20001)]
        + gen.uniform(0, 1e6, size=2000).tolist()
        + gen.integers(0, 2**52, size=2000, endpoint=True).astype(float).tolist()
    )


def test_kernel_pairs_cover_every_kind():
    def kinds(t):
        return {t.kind} | (kinds(t.outer) | kinds(t.inner) if t.kind == "compose" else set())
    assert set().union(*(kinds(t) for pair in KERNEL_PAIRS for t in pair)) == set(transforms._KINDS)


@pytest.mark.parametrize("h1, h2", KERNEL_PAIRS, ids=lambda t: t.kind)
def test_float_kernel_is_float_combine_bit_for_bit(h1, h2):
    inst = dl.generate_instance(8, 0, "1/2", weight_scheme="all-ones", transforms=(h1, h2))
    kernel = inst.float_kernel
    values = _kernel_values()
    others = values[7:] + values[:7]
    with np.errstate(invalid="ignore"):
        for a, b in zip(values, others):
            got = kernel(a, b)
            assert type(got) is float
            assert _bits(got) == _bits(float(inst.combine(a, b))), (a, b)


def test_float_kernel_keeps_np_power(monkeypatch):
    """power(1.5) on 0..20000: math.pow differs from np.power for some of
    these values on some platforms, and the kernel must follow np.power."""
    values = [float(v) for v in range(20001)]
    reference = dl.power(1.5).apply(np.array(values)).tolist()

    def kernel_mismatches():
        inst = dl.generate_instance(8, 0, "1/2", weight_scheme="all-ones", transforms=(dl.power(1.5), dl.identity()))
        return sum(_bits(inst.float_kernel(v, 0.0)) != _bits(r) for v, r in zip(values, reference))

    assert kernel_mismatches() == 0
    if all(math.pow(v, 1.5) == r for v, r in zip(values, reference)):
        pytest.skip("math.pow equals np.power on these values on this platform")
    monkeypatch.setitem(transforms.FLOAT_FUNCTIONS, "power", math.pow)
    assert kernel_mismatches() > 0


@pytest.mark.parametrize("inst", [
    dl.build_chance(dl.ChanceInstance(np.arange(1, 9.0), np.arange(1, 9.0) / 2, 0.9)),
    dl.generate_instance(12, 2, "7/12", rng=dl.RandomSource(35),
                         transforms=(dl.compose(dl.power(1.5), dl.affine(2.0, 1.0)), "scaled_square_root")),
], ids=["chance", "compose"])
def test_compiled_kernel_survives_a_pickle_round_trip(inst):
    values = _kernel_values()[::50]
    expected = [inst.float_kernel(a, b) for a, b in zip(values, values[::-1])]  # compiled before pickling
    again = pickle.loads(pickle.dumps(inst))
    assert [again.float_kernel(a, b) for a, b in zip(values, values[::-1])] == expected
    assert again.to_dict() == inst.to_dict()
