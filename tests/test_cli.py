import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ultraforest.cli import main
from ultraforest.core import Space
from ultraforest.errors import MissingLeafChild, NotUltrametricGenerating
from ultraforest.formats import (
    TREE_JSON_MAX_HEIGHT,
    parse_space,
    space_to_csv,
    space_to_json,
    tree_to_json,
    unrooted_to_json,
)
from ultraforest.gen import random_space, random_unrooted
from ultraforest.tree import build_representing_tree, tree_to_space
from ultraforest.unrooted import UnrootedTree, space_from_unrooted, unrooted_from_representing


@pytest.fixture
def iso_file(tmp_path, isosceles):
    path = tmp_path / "iso.csv"
    path.write_text(space_to_csv(isosceles))
    return str(path)


@pytest.fixture
def fig_file(tmp_path, figure16):
    path = tmp_path / "fig.csv"
    path.write_text(space_to_csv(figure16))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path_file(tmp_path, n):
    """An unrooted path x1 - x2 - ... - xn labeled 1..n; its representing
    tree is a caterpillar of height n - 1."""
    obj = {
        "vertices": [{"id": f"x{i}", "label": str(i)} for i in range(1, n + 1)],
        "edges": [[f"x{i}", f"x{i + 1}"] for i in range(1, n)],
    }
    path = tmp_path / f"path{n}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def tree_height(obj) -> int:
    h = 0
    while "children" in obj:
        obj = max(obj["children"], key=lambda c: "children" in c)
        h += 1
    return h


class TestValidate:
    def test_valid_space(self, capsys, iso_file):
        code, out, err = run(capsys, ["validate", iso_file])
        assert code == 0
        assert out == "valid: 3 points, spectrum {0, 1, 2}\n"

    def test_triangle_violation_names_witness(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n0,1,2\n1,0,3\n2,3,0\n")
        code, out, err = run(capsys, ["validate", str(bad)])
        assert code == 2
        assert err == "error: d(b,c) > max(d(b,a), d(a,c))\n"

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, ["validate", "/nonexistent/x.csv"])
        assert code == 2
        assert err.startswith("error:")

    def test_json_format(self, capsys, iso_file):
        code, out, err = run(capsys, ["validate", "--format", "json", iso_file])
        assert code == 0
        obj = json.loads(out)
        assert obj == {"valid": True, "points": 3, "spectrum": ["0", "1", "2"]}


class TestTree:
    def test_json_output(self, capsys, iso_file):
        code, out, err = run(capsys, ["tree", iso_file])
        assert code == 0
        obj = json.loads(out)
        assert obj["label"] == "2"
        assert len(obj["children"]) == 2

    def test_dot_output(self, capsys, iso_file):
        code, out, err = run(capsys, ["tree", "--dot", iso_file])
        assert code == 0
        assert out.startswith("digraph")


class TestClassify:
    def test_full_table(self, capsys, iso_file):
        code, out, err = run(capsys, ["classify", iso_file])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 15  # 14 classes + extras
        assert any(line.startswith("rigid") and " yes" in line for line in lines)
        assert lines[-1].startswith("extras")

    def test_single_class(self, capsys, iso_file):
        code, out, err = run(capsys, ["classify", "--class", "rigid", iso_file])
        assert code == 0
        assert len(out.splitlines()) == 1
        assert out.startswith("rigid")

    def test_unknown_class(self, capsys, iso_file):
        code, out, err = run(capsys, ["classify", "--class", "nonsense", iso_file])
        assert code == 2
        assert "unknown class" in err

    def test_json_format(self, capsys, iso_file):
        code, out, err = run(capsys, ["classify", "--format", "json", iso_file])
        obj = json.loads(out)
        assert obj["points"] == 3
        assert obj["classes"]["strictly_binary"]["member"] is True
        assert obj["extras"]["self_isometries"] == 2


class TestAudit:
    def test_single_space(self, capsys, fig_file):
        code, out, err = run(capsys, ["audit", fig_file])
        assert code == 0
        assert out == "0 discrepancies\n"

    def test_exhaustive(self, capsys):
        code, out, err = run(capsys, ["audit", "--exhaustive", "--max-n", "4"])
        assert code == 0
        assert out == "audited 9 spaces (2..4 points): 0 discrepancies\n"

    def test_exhaustive_parallel_matches_sequential(self, capsys, monkeypatch):
        code1, out1, _ = run(capsys, ["audit", "--exhaustive", "--max-n", "4"])
        monkeypatch.setenv("ULTRAFOREST_THREADS", "2")
        code2, out2, _ = run(capsys, ["audit", "--exhaustive", "--max-n", "4"])
        assert (code1, out1) == (code2, out2)

    @pytest.mark.parametrize("cpus, expected", [(4, 4), (64, 9), (None, 1)])
    def test_worker_count_is_capped(self, capsys, monkeypatch, cpus, expected):
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr("ultraforest.cli.os.cpu_count", lambda: cpus)
        monkeypatch.setenv("ULTRAFOREST_THREADS", "100000")
        code, out, _ = run(capsys, ["audit", "--exhaustive", "--max-n", "4"])
        assert code == 0
        assert out == "audited 9 spaces (2..4 points): 0 discrepancies\n"
        # one CPU (or an unknown count) runs the sweep without a pool
        assert started == ([expected] if expected > 1 else [])

    def test_import_leaves_multiprocessing_out(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import ultraforest.cli; "
            "print('multiprocessing' in sys.modules)"
        )
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "False\n")

    def test_bad_thread_setting(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRAFOREST_THREADS", "many")
        code, out, err = run(capsys, ["audit", "--exhaustive", "--max-n", "3"])
        assert code == 2
        assert "ULTRAFOREST_THREADS" in err

    def test_needs_file_or_exhaustive(self, capsys):
        code, out, err = run(capsys, ["audit"])
        assert code == 2

    @pytest.mark.parametrize("max_n", ["1", "-2"])
    def test_max_n_below_two_is_an_input_error(self, capsys, max_n):
        code, out, err = run(capsys, ["audit", "--exhaustive", "--max-n", max_n])
        assert (code, out, err) == (2, "", "error: max_n must be at least 2\n")


class TestIsometricAndWeaksim:
    def test_isometric_pair(self, capsys, tmp_path, isosceles):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(space_to_csv(isosceles))
        b.write_text("x,y,z\n0,2,2\n2,0,1\n2,1,0\n")
        code, out, err = run(capsys, ["isometric", str(a), str(b)])
        assert code == 0
        assert out == "isometric: true\n"

    def test_non_isometric_pair(self, capsys, tmp_path, isosceles, equilateral):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(space_to_csv(isosceles))
        b.write_text(space_to_csv(equilateral))
        code, out, err = run(capsys, ["isometric", str(a), str(b)])
        assert code == 1
        assert out == "isometric: false\n"

    def test_weaksim_scaling_map(self, capsys, tmp_path, isosceles, isosceles_scaled):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(space_to_csv(isosceles))
        b.write_text(space_to_csv(isosceles_scaled))
        code, out, err = run(capsys, ["weaksim", str(a), str(b)])
        assert code == 0
        assert out.splitlines() == [
            "weakly similar: true",
            "  0 -> 0",
            "  1 -> 3",
            "  2 -> 5",
        ]

    def test_weaksim_failure(self, capsys, tmp_path, isosceles, equilateral):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(space_to_csv(isosceles))
        b.write_text(space_to_csv(equilateral))
        code, out, err = run(capsys, ["weaksim", str(a), str(b)])
        assert code == 1
        assert out == "weakly similar: false\n"


# one input per kind: (file name, text, the value the library reads it as);
# "bad" inputs convert only to their own kind
def _convert_inputs(kind, good, figure16_tree, perfect_binary4):
    if kind == "matrix":
        space = space_from_unrooted(random_unrooted(10, 3)) if good else perfect_binary4
        return "m.csv", space_to_csv(space), space
    if kind == "tree":
        tree = figure16_tree if good else build_representing_tree(perfect_binary4)
        return "t.json", tree_to_json(tree), tree
    if good:
        u = random_unrooted(9, 4)
    else:
        u = UnrootedTree(["a", "b", "c"], [("a", "b"), ("b", "c")], {"a": 1, "b": 0, "c": 0})
    return "u.json", unrooted_to_json(u), u


_DIRECT = {
    ("matrix", "tree"): [build_representing_tree],
    ("matrix", "unrooted"): [build_representing_tree, unrooted_from_representing],
    ("tree", "matrix"): [tree_to_space],
    ("tree", "unrooted"): [unrooted_from_representing],
    ("unrooted", "matrix"): [space_from_unrooted],
    ("unrooted", "tree"): [space_from_unrooted, build_representing_tree],
}

# the bad inputs: a matrix and a tree without a leaf child under the root,
# and an unrooted tree with two adjacent zero labels
_UNCONVERTIBLE = {("matrix", "unrooted"), ("tree", "unrooted"), ("unrooted", "matrix"), ("unrooted", "tree")}

_RENDER = {"matrix": space_to_csv, "tree": tree_to_json, "unrooted": unrooted_to_json}

_KINDS = ("matrix", "tree", "unrooted")


class TestConvert:
    @pytest.mark.parametrize("good", [True, False], ids=["good", "bad"])
    @pytest.mark.parametrize("dst", _KINDS)
    @pytest.mark.parametrize("src", _KINDS)
    def test_every_direction_matches_the_library(
        self, capsys, tmp_path, figure16_tree, perfect_binary4, src, dst, good
    ):
        name, text, value = _convert_inputs(src, good, figure16_tree, perfect_binary4)
        path = tmp_path / name
        path.write_text(text)
        try:
            for step in _DIRECT.get((src, dst), []):
                value = step(value)
            expected = (0, _RENDER[dst](value))
        except (MissingLeafChild, NotUltrametricGenerating) as exc:
            expected = (1, f"not convertible: {exc}\n")
        code, out, err = run(capsys, ["convert", str(path), "--to", dst])
        assert (code, out, err) == (*expected, "")
        assert code == int(not good and (src, dst) in _UNCONVERTIBLE)

    def test_matrix_to_tree_to_matrix(self, capsys, tmp_path, figure16, fig_file):
        code, out, err = run(capsys, ["convert", fig_file, "--to", "tree"])
        assert code == 0
        tree_path = tmp_path / "t.json"
        tree_path.write_text(out)
        code, out, err = run(capsys, ["convert", str(tree_path), "--to", "matrix"])
        assert code == 0
        assert parse_space(out) == figure16

    def test_matrix_to_unrooted_roundtrip(self, capsys, tmp_path, figure16, fig_file):
        code, out, err = run(capsys, ["convert", fig_file, "--to", "unrooted"])
        assert code == 0
        u_path = tmp_path / "u.json"
        u_path.write_text(out)
        code, out, err = run(capsys, ["convert", str(u_path), "--to", "matrix"])
        assert code == 0
        assert parse_space(out) == figure16

    def test_unconvertible_space(self, capsys, tmp_path, perfect_binary4):
        path = tmp_path / "pb.csv"
        path.write_text(space_to_csv(perfect_binary4))
        code, out, err = run(capsys, ["convert", str(path), "--to", "unrooted"])
        assert code == 1
        assert out.startswith("not convertible:")

    def test_unconvertible_json_format(self, capsys, tmp_path, perfect_binary4):
        path = tmp_path / "pb.csv"
        path.write_text(space_to_csv(perfect_binary4))
        code, out, err = run(
            capsys, ["convert", "--format", "json", str(path), "--to", "unrooted"]
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["convertible"] is False
        assert obj["reason"] == "MissingLeafChild"

    def test_explicit_from_kind(self, capsys, tmp_path, isosceles):
        path = tmp_path / "s.json"
        path.write_text(space_to_json(isosceles))
        code, out, err = run(
            capsys, ["convert", "--from", "matrix", str(path), "--to", "matrix"]
        )
        assert code == 0
        assert parse_space(out) == isosceles

    def test_identity_conversion_kind_sniffed(self, capsys, fig_file, figure16):
        code, out, err = run(capsys, ["convert", fig_file, "--to", "matrix"])
        assert code == 0
        assert parse_space(out) == figure16

    def test_dot_flag(self, capsys, fig_file):
        code, out, err = run(capsys, ["convert", fig_file, "--to", "unrooted", "--dot"])
        assert code == 0
        assert out.startswith("graph")

    def test_deep_tree_as_json(self, capsys, tmp_path):
        path = path_file(tmp_path, 300)
        code, out, err = run(capsys, ["convert", path, "--to", "tree", "--format", "json"])
        assert (code, err) == (0, "")
        assert tree_height(json.loads(out)) == 299

    def test_tree_above_the_height_limit_is_an_input_error(self, capsys, tmp_path):
        path = path_file(tmp_path, 600)
        for argv in (["convert", path, "--to", "tree"], ["convert", "--format", "json", path, "--to", "tree"]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: tree JSON height") and err.count("\n") == 1
        code, out, err = run(capsys, ["convert", path, "--to", "tree", "--dot"])
        assert code == 0
        assert out.startswith("digraph") and out.count(" -> ") == 2 * 599

    def test_height_error_names_the_limit(self, capsys, tmp_path):
        code, out, err = run(capsys, ["convert", path_file(tmp_path, 600), "--to", "tree"])
        assert (code, out) == (2, "")
        assert err == f"error: tree JSON height: instance size 599 exceeds the limit {TREE_JSON_MAX_HEIGHT}\n"

    def test_tree_at_the_height_limit_round_trips(self, capsys, tmp_path):
        path = path_file(tmp_path, TREE_JSON_MAX_HEIGHT + 1)
        code, tree_text, err = run(capsys, ["convert", path, "--to", "tree"])
        assert code == 0
        assert tree_height(json.loads(tree_text)) == TREE_JSON_MAX_HEIGHT
        tree_path = tmp_path / "t.json"
        tree_path.write_text(tree_text)
        code, matrix_text, err = run(capsys, ["convert", str(tree_path), "--to", "matrix"])
        assert code == 0
        matrix_path = tmp_path / "m.csv"
        matrix_path.write_text(matrix_text)
        code, out, err = run(capsys, ["convert", str(matrix_path), "--to", "tree"])
        assert (code, out) == (0, tree_text)

    @pytest.mark.parametrize("flags", [[], ["--from", "tree"]], ids=["sniffed", "from-tree"])
    def test_too_deeply_nested_tree_is_an_input_error(self, capsys, tmp_path, flags):
        # a 1200-level caterpillar, written by hand: json.dumps would overflow too
        depth = 1200
        head = "".join(
            f'{{"label": "{k}", "children": [{{"label": "0", "point": "p{k + 1}"}}, '
            for k in range(depth, 0, -1)
        )
        path = tmp_path / "deep.json"
        path.write_text(head + '{"label": "0", "point": "p1"}' + "]}" * depth)
        code, out, err = run(capsys, ["convert", *flags, str(path), "--to", "matrix"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


_HUGE = ["1e5000", "1e-5000", "1e300000000"]
_TOKENS = ["0", "1", "2", "1/2", "0.5", "2/4", " 1/2", "-1", "0..5", "x", "", "1/0", *_HUGE]
# a JSON integer literal past CPython's 4,300-digit limit; json.dumps cannot
# write it, so files carry this placeholder string in its place
_HUGE_INT = "<5001 digits>"
_JSON_TOKENS = st.sampled_from(_TOKENS) | st.sampled_from([0, 1, 2, -1, 0.5, True, None, [1], _HUGE_INT])
# a prefix of raw bytes that is not UTF-8
_PREFIXES = st.sampled_from([b"", b"", b"\xff\xfe"])


def _encoded(text: str, prefix: bytes) -> bytes:
    return prefix + text.replace(json.dumps(_HUGE_INT), "9" * 5001).encode()


@st.composite
def matrix_files(draw):
    """CSV or JSON matrix text over a token alphabet, rows possibly short."""
    n = draw(st.integers(min_value=1, max_value=4))
    points = [f"p{i}" for i in range(n)]
    as_json = draw(st.booleans())
    token = _JSON_TOKENS if as_json else st.sampled_from(_TOKENS)
    rows = [draw(st.lists(token, min_size=n - 1, max_size=n)) for _ in range(n)]
    if as_json:
        return json.dumps({"points": points, "dist": rows})
    return "\n".join(",".join(row) for row in [points, *rows]) + "\n"


_BAD_LABELS = st.sampled_from(["-1", "x", "", "1/0", None, True, 1.5, [1], *_HUGE, _HUGE_INT])


@st.composite
def tree_objs(draw):
    """Tree JSON, valid unless a drawn fault breaks it: a bad or missing
    label, a missing, non-string or repeated point, a point on an internal
    node, children that are not a list."""
    nodes: list[dict] = []

    def node(top: int) -> dict:
        if top <= 1 or draw(st.booleans()):
            obj = {"label": "0", "point": f"p{len(nodes)}"}
        else:
            label = draw(st.integers(min_value=1, max_value=top - 1))
            kids = [node(label) for _ in range(draw(st.integers(min_value=2, max_value=3)))]
            obj = {"label": str(label), "children": kids}
        nodes.append(obj)
        return obj

    root = node(4)
    for fault in draw(st.lists(st.sampled_from(["label", "no_label", "point", "no_point", "children"]), max_size=2)):
        target = draw(st.sampled_from(nodes))
        if fault == "label":
            target["label"] = draw(_BAD_LABELS)
        elif fault == "no_label":
            target.pop("label", None)
        elif fault == "point":
            target["point"] = draw(st.sampled_from([1, None, ["p0"], "p0"]))
        elif fault == "no_point":
            target.pop("point", None)
        else:
            target["children"] = draw(st.sampled_from(["x", None, [], [1]]))
    return root


@st.composite
def unrooted_objs(draw):
    """Unrooted JSON, a labeled tree unless a drawn fault breaks it: a bad
    label, a non-string or repeated id, an unknown vertex, a loop, a short
    edge, a missing edge."""
    n = draw(st.integers(min_value=1, max_value=5))
    ids = [f"v{i}" for i in range(n)]
    vertices = [{"id": v, "label": str(draw(st.integers(min_value=0, max_value=3)))} for v in ids]
    edges = [[ids[draw(st.integers(min_value=0, max_value=i - 1))], ids[i]] for i in range(1, n)]
    for fault in draw(st.lists(st.sampled_from(["label", "id", "unknown", "loop", "short", "drop"]), max_size=2)):
        if fault == "label":
            draw(st.sampled_from(vertices))["label"] = draw(_BAD_LABELS)
        elif fault == "id":
            draw(st.sampled_from(vertices))["id"] = draw(st.sampled_from([1, None, "v0"]))
        elif fault == "unknown":
            edges.append([ids[0], "z"])
        elif fault == "loop":
            edges.append([ids[-1], ids[-1]])
        elif fault == "short":
            edges.append([ids[0]])
        elif edges:
            edges.pop()
    return {"vertices": vertices, "edges": edges}


_COMMANDS = [
    ["convert", "--to", kind, *flags]
    for kind in ("matrix", "tree", "unrooted")
    for flags in ([], ["--format", "json"], ["--dot"])
] + [["tree"], ["classify"], ["validate"], ["fingerprint"]]


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestNoTraceback:
    @given(matrix_files(), _PREFIXES)
    def test_validate_exits_zero_or_two(self, text, prefix):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.txt"
            path.write_bytes(_encoded(text, prefix))
            code, out, err = _main_captured(["validate", str(path)])
        if code == 0:
            assert err == "" and out.startswith("valid:")
        else:
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    @given(tree_objs() | unrooted_objs(), _PREFIXES)
    def test_tree_and_unrooted_input_exits_zero_one_or_two(self, obj, prefix):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.json"
            path.write_bytes(_encoded(json.dumps(obj), prefix))
            for command in _COMMANDS:
                code, out, err = _main_captured([command[0], str(path), *command[1:]])
                assert code in (0, 1, 2), command
                if code == 2:
                    assert err.startswith("error:") and err.count("\n") == 1, (command, err)


_DIGITS_ERROR = "error: rational value with too many digits above or below the fraction bar\n"


class TestInputLimits:
    """Values past the digit limit and input that is not UTF-8 exit 2 with
    one error line."""

    @pytest.mark.parametrize("command", ["validate", "tree", "classify", "fingerprint"])
    @pytest.mark.parametrize("token", ["1e5000", "1e-5000"])
    def test_huge_csv_token(self, capsys, tmp_path, command, token):
        path = tmp_path / "m.csv"
        path.write_text(f"a,b\n0,{token}\n{token},0\n")
        assert run(capsys, [command, str(path)]) == (2, "", _DIGITS_ERROR)

    @pytest.mark.parametrize("command", ["validate", "tree"])
    def test_long_integer_token_has_too_many_digits(self, capsys, tmp_path, command):
        path = tmp_path / "m.csv"
        path.write_text(f"a,b\n0,{'1' * 4301}\n1,0\n")
        assert run(capsys, [command, str(path)]) == (2, "", _DIGITS_ERROR)

    def test_long_bad_token_is_cut_in_the_error_line(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"a,b\n0,{'1' * 4300}x\n1,0\n")
        assert run(capsys, ["validate", str(path)]) == (
            2,
            "",
            f"error: not a rational value: '{'1' * 40}'... (4301 characters)\n",
        )

    def test_huge_exponent_is_rejected_at_once(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n0,1e300000000\n1e300000000,0\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from ultraforest.cli import main; "
            f"sys.exit(main(['validate', {str(path)!r}]))"
        )
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=30)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", _DIGITS_ERROR)

    @pytest.mark.parametrize(
        "text",
        [
            '{"points": ["a", "b"], "dist": [[0, HUGE], [HUGE, 0]]}',
            '{"label": HUGE, "children": [{"label": 0, "point": "a"}, {"label": 0, "point": "b"}]}',
            '{"vertices": [{"id": "a", "label": HUGE}, {"id": "b", "label": 1}], "edges": [["a", "b"]]}',
        ],
        ids=["matrix", "tree", "unrooted"],
    )
    def test_huge_json_integer(self, capsys, tmp_path, text):
        path = tmp_path / "in.json"
        path.write_text(text.replace("HUGE", "9" * 5001))
        assert run(capsys, ["convert", str(path), "--to", "matrix"]) == (
            2,
            "",
            "error: invalid JSON: an integer has too many digits\n",
        )

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xff\xfea,b\n0,1\n1,0\n")
        assert run(capsys, ["validate", str(path)]) == (
            2,
            "",
            "error: input is not UTF-8: invalid start byte at byte 0\n",
        )

    def test_stdin_that_is_not_utf8(self, capsys, monkeypatch):
        raw = io.BytesIO(b"a,b\n0,1\n1,\xff\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8"))
        assert run(capsys, ["validate", "-"]) == (
            2,
            "",
            "error: input is not UTF-8: invalid start byte at byte 10\n",
        )


def _permuted(space, seed):
    """The same space with its points, rows and columns in a random order."""
    perm = random.Random(seed).sample(range(len(space)), len(space))
    return Space([space.points[i] for i in perm], [[space.dist[i][j] for j in perm] for i in perm])


class TestCanonicalOutput:
    """Node ids depend on the space alone, so a permuted copy of a file
    prints the same bytes, certificates and DOT node names included."""

    @pytest.mark.parametrize("command", [["classify", "--format", "json"], ["tree", "--dot"]])
    def test_permuted_copy_prints_the_same(self, capsys, tmp_path, command):
        for n in (6, 12, 20, 30):
            for seed in range(5):
                space = random_space(n, seed)
                outputs = []
                for k, copy in enumerate((space, _permuted(space, seed))):
                    path = tmp_path / f"{n}-{seed}-{k}.csv"
                    path.write_text(space_to_csv(copy))
                    outputs.append(run(capsys, [command[0], str(path), *command[1:]]))
                assert outputs[0] == outputs[1], (command, n, seed)


class TestHereditary:
    def test_verify_true(self, capsys):
        code, out, err = run(
            capsys, ["hereditary", "verify", "strictly_binary", "--max-n", "4"]
        )
        assert code == 0
        assert out == "hereditary: true (all spaces up to 4 points)\n"

    def test_verify_false_with_certificate(self, capsys):
        code, out, err = run(
            capsys,
            ["hereditary", "verify", "labels_same_level", "--max-n", "5", "--format", "json"],
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["hereditary"] is False
        assert len(obj["space"]["points"]) == 5
        assert obj["deleted"] in obj["space"]["points"]

    def test_counterexample_found(self, capsys):
        code, out, err = run(
            capsys, ["hereditary", "counterexample", "homogeneous", "--max-n", "4"]
        )
        assert code == 1
        assert out.splitlines()[0] == "counterexample found"

    def test_counterexample_absent(self, capsys):
        code, out, err = run(
            capsys, ["hereditary", "counterexample", "rigid", "--max-n", "4"]
        )
        assert code == 0
        assert out == "no counterexample up to 4 points\n"

    def test_budget(self, capsys):
        code, out, err = run(
            capsys,
            ["hereditary", "counterexample", "strictly_binary", "--max-n", "6", "--budget", "5"],
        )
        assert code == 2
        assert "budget" in err

    def test_negative_budget_is_an_input_error(self, capsys):
        argv = ["hereditary", "counterexample", "rigid", "--max-n", "5", "--budget"]
        assert run(capsys, [*argv, "-1"]) == (2, "", "error: budget must be at least 0\n")
        code, out, err = run(capsys, [*argv, "0"])
        assert (code, out) == (2, "")
        assert err == "error: search budget of 0 instances exhausted before a verdict\n"

    def test_verify_rejects_budget(self, capsys):
        code, out, err = run(
            capsys, ["hereditary", "verify", "rigid", "--max-n", "5", "--budget", "1"]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_class_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hereditary", "verify", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("action", ["verify", "counterexample"])
    @pytest.mark.parametrize("max_n", ["1", "-3"])
    def test_max_n_below_two_is_an_input_error(self, capsys, action, max_n):
        code, out, err = run(
            capsys,
            ["hereditary", action, "labels_same_level", "--max-n", max_n, "--format", "json"],
        )
        assert code == 2
        assert out == ""
        assert err == "error: max_n must be at least 2\n"

    @pytest.mark.parametrize("action", ["verify", "counterexample"])
    def test_max_n_two_is_accepted(self, capsys, action):
        code, out, err = run(capsys, ["hereditary", action, "rigid", "--max-n", "2"])
        assert code == 0
        assert err == ""


class TestGenerate:
    def test_deterministic_line(self, capsys):
        code, out, err = run(capsys, ["generate", "--n", "5", "--seed", "3"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        assert parse_space(lines[0]) == random_space(5, 3)

    def test_exhaustive(self, capsys):
        code, out, err = run(capsys, ["generate", "--n", "4", "--exhaustive"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        spaces = [parse_space(line) for line in lines]
        assert all(len(s) == 4 for s in spaces)


class TestFingerprint:
    def test_equal_codes_for_isometric_files(self, capsys, tmp_path, isosceles):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(space_to_csv(isosceles))
        b.write_text("c,a,b\n0,2,2\n2,0,1\n2,1,0\n")
        code, out, err = run(capsys, ["fingerprint", str(a), str(b)])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == lines[1] == "2(0(),1(0(),0()))"

    def test_rank_mode(self, capsys, tmp_path, isosceles, isosceles_scaled):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(space_to_csv(isosceles))
        b.write_text(space_to_csv(isosceles_scaled))
        code, out, err = run(capsys, ["fingerprint", "--mode", "rank_labeled", str(a), str(b)])
        lines = out.splitlines()
        assert lines[0] == lines[1]


class TestOutputPlumbing:
    def test_out_writes_file(self, capsys, tmp_path, iso_file):
        target = tmp_path / "result.txt"
        code, out, err = run(capsys, ["validate", "--out", str(target), iso_file])
        assert code == 0
        assert out == ""
        assert target.read_text() == "valid: 3 points, spectrum {0, 1, 2}\n"

    def test_stdin_input(self, capsys, monkeypatch, isosceles):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(space_to_csv(isosceles)))
        code, out, err = run(capsys, ["validate", "-"])
        assert code == 0

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
