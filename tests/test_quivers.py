from fractions import Fraction

import pytest

from quiverbundles.quivers import Arrow, DimensionVector, Quiver, double

from _oracles import (
    NoFramingDimensionError,
    StabilityWeights,
    TorusElement,
    theta_value,
    theta_zero,
)


def adhm_base():
    return Quiver(
        vertices=("0", "1"),
        arrows=(Arrow("loop", "1", "1"), Arrow("frame", "0", "1")),
        framing="0",
    )


def test_double_adhm_has_four_arrows_with_involution():
    dq = double(adhm_base())
    assert len(dq.arrows) == 4
    names = {a.name for a in dq.arrows}
    assert names == {"loop+", "loop-", "frame+", "frame-"}
    loop_minus = dq.arrow("loop-")
    assert (loop_minus.tail, loop_minus.head) == ("1", "1")
    frame_minus = dq.arrow("frame-")
    assert (frame_minus.tail, frame_minus.head) == ("1", "0")
    for a in dq.arrows:
        opp = dq.opposite(a.name)
        assert dq.opposite(opp.name).name == a.name
        assert a.sign + opp.sign == 1


def test_double_empty_and_two_vertex():
    empty = Quiver(("1",), (), None)
    assert double(empty).arrows == ()
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),), None)
    dq = double(q)
    heads = sorted((a.tail, a.head) for a in dq.arrows)
    assert heads == [("1", "2"), ("2", "1")]


def test_theta_zero_examples():
    q = adhm_base()
    v = DimensionVector.of(q, {"0": 1, "1": 2})
    th = StabilityWeights.of({"1": 1})
    assert theta_zero(th, q, v) == Fraction(-2)

    q3 = Quiver(("0", "1", "2"), (Arrow("a", "1", "2"), Arrow("f", "0", "1")), framing="0")
    v3 = DimensionVector.of(q3, {"0": 1, "1": 3, "2": 2})
    th3 = StabilityWeights.of({"1": 1, "2": 1})
    assert theta_zero(th3, q3, v3) == Fraction(-5)

    th0 = StabilityWeights.of({"1": 0})
    assert theta_zero(th0, q, v) == 0


def test_theta_zero_requires_framing_dimension():
    q = adhm_base()
    v = DimensionVector.of(q, {"0": 0, "1": 2})
    with pytest.raises(NoFramingDimensionError):
        theta_zero(StabilityWeights.of({"1": 1}), q, v)


def test_theta_value_examples():
    q = adhm_base()
    v = DimensionVector.of(q, {"0": 1, "1": 2})
    th = StabilityWeights.of({"1": 1})
    w = DimensionVector.of(q, {"0": 0, "1": 1})
    assert theta_value(th, q, v, w) == 1
    assert theta_value(th, q, v, v) == 0
    w2 = DimensionVector.of(q, {"0": 1, "1": 1})
    assert theta_value(th, q, v, w2) == -1


def test_theta_value_sign_pattern_for_unit_weights():
    q = adhm_base()
    v = DimensionVector.of(q, {"0": 2, "1": 3})
    th = StabilityWeights.ones(q)
    for w1 in range(4):
        w = DimensionVector.of(q, {"0": 0, "1": w1})
        if w1 > 0:
            assert theta_value(th, q, v, w) > 0
        framed = DimensionVector.of(q, {"0": 2, "1": w1})
        if w1 < 3:
            assert theta_value(th, q, v, framed) < 0


def test_torus_element_modes():
    dq = double(adhm_base())
    s = TorusElement.symplectic(dq, {"loop": Fraction(3), "frame": Fraction(1, 2)})
    for a in dq.arrows:
        assert s.weight(a.name) * s.weight(a.opposite) == 1
    full = TorusElement.full(dq, {"loop+": 2, "loop-": 1, "frame+": 1, "frame-": 1})
    assert full.weight("loop+") == 2
    with pytest.raises(ValueError):
        TorusElement.symplectic(dq, {"loop": 0, "frame": 1})
