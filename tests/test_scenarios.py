import dataclasses
import re
from pathlib import Path

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


# Every preset as it stands, written out literally: the fields each shape
# sets (angle included), the incident directions and the truth centers.
_R = 0.7071067811865475  # 1/sqrt(2)


def _sq(center, **mat):
    return {"kind": "square", "center": center, "side": 0.3, "angle": 0.0, **mat}


def _bar(center, angle):
    return {"kind": "bar", "center": center, "length": 1.0, "thickness": 0.1, "angle": angle,
            "eta": 1.0}


PINNED = {
    ("ex1", None): (
        [{"kind": "square", "center": (0.0, 0.0), "side": 0.02, "angle": 0.0, "eta": 1.0}],
        [[_R, _R]], ((0.0, 0.0),)),
    ("ex2", None): (
        [_sq((-0.8, -0.7), eta=1.0), _sq((0.3, 0.8), eta=1.0)],
        [[_R, _R]], ((-0.8, -0.7), (0.3, 0.8))),
    ("ex3", None): (
        [_sq((-0.25, 0.0), eta=1.0), _sq((0.25, 0.0), eta=1.0)],
        [[_R, _R]], ((-0.25, 0.0), (0.25, 0.0))),
    ("ex3", "close"): (
        [_sq((-0.1, 0.0), eta=1.0), _sq((0.1, 0.0), eta=1.0)],
        [[_R, _R]], ((-0.1, 0.0), (0.1, 0.0))),
    ("ex4", None): (
        [{"kind": "ring", "center": (0.0, 0.0), "outer_side": 0.6, "inner_side": 0.4,
          "angle": 0.0, "eta": 1.0}],
        [[_R, _R], [_R, -_R]], ((0.0, 0.0),)),
    ("ex5", None): (
        [_sq((-0.8, -0.7), nsq=1.0 + 50.0j), _sq((0.3, 0.8), eta=1.0)],
        [[_R, _R]], ((-0.8, -0.7), (0.3, 0.8))),
    ("ex5", "high-contrast"): (
        [_sq((-0.8, -0.7), nsq=1.0 + 50.0j), _sq((0.3, 0.8), nsq=10.0 + 10.0j)],
        [[_R, _R]], ((-0.8, -0.7), (0.3, 0.8))),
    ("ex6", None): (
        [_bar((0.0, 0.0), 0.0)],
        [[1.0, 0.0]], ((0.0, 0.0),)),
    ("ex7", None): (
        [_bar((0.5, 0.0), 0.0), _bar((0.0, 0.5), np.pi / 2)],
        [[_R, -_R]], ((0.5, 0.0), (0.0, 0.5))),
    ("ex7", "two-incident"): (
        [_bar((0.5, 0.0), 0.0), _bar((0.0, 0.5), np.pi / 2)],
        [[_R, _R], [_R, -_R]], ((0.5, 0.0), (0.0, 0.5))),
}


def _set_fields(shape):
    return {f.name: getattr(shape, f.name) for f in dataclasses.fields(shape)
            if getattr(shape, f.name) is not None}


@pytest.mark.parametrize("name, variant", PINNED, ids=lambda v: str(v))
def test_preset_values_pinned(name, variant):
    shapes, incidents, truth = PINNED[name, variant]
    sc = build(name, variant)
    assert sc.name == name
    assert [_set_fields(s) for s in sc.shapes] == shapes
    np.testing.assert_allclose(sc.incidents, incidents, rtol=0, atol=1e-15)
    assert sc.truth_centers == truth


def _readme_scenario_rows():
    """{name: variants} from the README's "Benchmark scenarios" table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Benchmark scenarios", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and re.fullmatch(r"`ex\d+`", cells[0]):
            rows[cells[0].strip("`")] = tuple(re.findall(r"`([^`]+)`", cells[2]))
    return rows


def test_readme_scenario_table_matches_presets():
    rows = _readme_scenario_rows()
    assert tuple(rows) == SCENARIO_NAMES
    documented = {(name, None) for name in rows} | {
        (name, v) for name, variants in rows.items() for v in variants}
    assert documented == set(PINNED)
    # every known variant word, and one unknown, under every name:
    # build accepts exactly the documented pairs
    words = {v for _, v in PINNED if v is not None} | {"bogus"}
    for name in SCENARIO_NAMES:
        for word in words:
            if (name, word) in documented:
                build(name, word)
            else:
                with pytest.raises(ValueError, match="has no variant"):
                    build(name, word)
