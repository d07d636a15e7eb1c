import numpy as np
import pytest

from dsmscat.scenarios import SCENARIO_NAMES, Scenario, build, contains

D1 = np.array([1.0, 1.0]) / np.sqrt(2.0)
D2 = np.array([1.0, -1.0]) / np.sqrt(2.0)


def test_all_presets_are_well_formed():
    for name in SCENARIO_NAMES:
        sc = build(name)
        assert sc.name == name
        assert len(sc.shapes) >= 1
        norms = np.hypot(sc.incidents[:, 0], sc.incidents[:, 1])
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        for shape in sc.shapes:
            lo, hi = shape.bounding_box()
            assert np.all(lo >= -2.0) and np.all(hi <= 2.0)  # inside the sampling domain
            assert np.hypot(*lo) < 4.0 and np.hypot(*hi) < 4.0  # inside the near circle


def test_ex1_point_like_square():
    sc = build("ex1")
    assert sc.shapes[0].center == (0.0, 0.0)
    assert sc.shapes[0].side == 0.02
    assert sc.shapes[0].eta == 1.0
    np.testing.assert_allclose(sc.incidents, [D1], atol=1e-15)


def test_ex2_two_squares():
    sc = build("ex2")
    assert [s.center for s in sc.shapes] == [(-0.8, -0.7), (0.3, 0.8)]
    assert all(s.side == 0.3 for s in sc.shapes)
    assert sc.truth_centers == ((-0.8, -0.7), (0.3, 0.8))


def test_ex3_separation_and_close_variant():
    sc = build("ex3")
    gap = np.subtract(sc.shapes[1].center, sc.shapes[0].center)
    assert np.hypot(*gap) == pytest.approx(0.5)
    close = build("ex3", variant="close")
    gap = np.subtract(close.shapes[1].center, close.shapes[0].center)
    assert np.hypot(*gap) == pytest.approx(0.2)


def test_ex4_ring_with_two_incidents():
    sc = build("ex4")
    ring = sc.shapes[0]
    assert ring.kind == "ring"
    assert (ring.outer_side, ring.inner_side) == (0.6, 0.4)
    np.testing.assert_allclose(sc.incidents, [D1, D2], atol=1e-15)
    assert not sc.in_support((0.0, 0.0))  # the hole
    assert sc.in_support((0.25, 0.0))


def test_ex5_obstacle_and_medium():
    sc = build("ex5")
    assert sc.shapes[0].nsq == 1.0 + 50.0j
    assert sc.shapes[1].eta == 1.0
    hc = build("ex5", variant="high-contrast")
    assert hc.shapes[1].nsq == 10.0 + 10.0j


def test_ex6_crack_geometry():
    sc = build("ex6")
    np.testing.assert_allclose(sc.incidents, [[1.0, 0.0]], atol=1e-15)
    crack = sc.shapes[0]
    assert (crack.length, crack.thickness) == (1.0, 0.1)
    assert contains(crack, (0.49, 0.0))
    assert not contains(crack, (0.51, 0.0))
    assert contains(crack, (0.0, 0.04))
    assert not contains(crack, (0.0, 0.06))


def test_ex7_l_crack():
    sc = build("ex7")
    np.testing.assert_allclose(sc.incidents, [D2], atol=1e-15)
    two = build("ex7", variant="two-incident")
    np.testing.assert_allclose(two.incidents, [D1, D2], atol=1e-15)
    assert sum(s.length for s in sc.shapes) == pytest.approx(2.0)
    assert sc.in_support((0.01, 0.01))  # the corner
    assert sc.in_support((0.9, 0.01))  # +x arm
    assert sc.in_support((0.01, 0.9))  # +y arm
    assert not sc.in_support((0.9, 0.9))
    assert not sc.in_support((-0.2, -0.2))


def test_unknown_names_and_variants_rejected():
    with pytest.raises(ValueError):
        build("ex8")
    with pytest.raises(ValueError):
        build("ex1", variant="close")
    with pytest.raises(ValueError):
        build("ex5", variant="bogus")


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="empty", shapes=(), incidents=[D1])
    with pytest.raises(ValueError):
        Scenario(name="bad", shapes=build("ex1").shapes, incidents=[(1.0, 1.0)])
