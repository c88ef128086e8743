"""tools/cli_json_ab.py: the leaf-by-leaf CLI JSON comparison of two trees."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "cli_json_ab", ROOT / "tools" / "cli_json_ab.py")
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)


def test_same_tree_twice_moves_no_leaf():
    src = ROOT / "src"
    cheap = (("curvature", "riemann", "--builtin", "graph", "--at",
              "0.3,-0.2"),
             ("surface", "report", "--builtin", "sphere", "--at", "1.0,0.5"))
    assert ab.compare(src, src, cheap) == {}
    assert ab.run(src, cheap[0])["command"] == "curvature riemann"


def test_moved_leaves_are_named_and_scaled():
    # unique names key list items, repeated ones fall back to the index;
    # NaN on both sides has not moved
    old = {"results": {"checks": [{"name": "angle", "value": 2.0}],
                       "twins": [{"name": "t", "v": 1}, {"name": "t", "v": 2}],
                       "x": [1.0, True, float("nan")]}}
    new = {"results": {"checks": [{"name": "angle", "value": 3.0}],
                       "twins": [{"name": "t", "v": 1}, {"name": "t", "v": 4}],
                       "x": [1, False, float("nan"), 5.0]}}
    assert ab.moved(old, new) == [
        ("results.checks[angle].value", 2.0, 3.0, 0.5),
        ("results.twins[1].v", 2, 4, 1.0),
        ("results.x[0]", 1.0, 1, 0.0),
        ("results.x[1]", True, False, None),
        ("results.x[3]", None, 5.0, None)]


@pytest.mark.parametrize("bad", [0, 1])
def test_tree_without_the_package_exits_2_before_running(bad, capsys,
                                                         monkeypatch):
    # a repository root in place of its src/ would fail to import on both
    # sides, and two equal crashes must not read as identical output
    monkeypatch.setattr(ab, "run", lambda *a: pytest.fail("ran an invocation"))
    trees = [str(ROOT / "src")] * 2
    trees[bad] = str(ROOT)
    assert ab.main(trees) == 2
    assert repr(str(ROOT)) in capsys.readouterr().err
