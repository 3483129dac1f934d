import json

import pytest

from ultraforest.cli import main
from ultraforest.formats import parse_space, space_to_csv, space_to_json
from ultraforest.gen import random_space


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

        monkeypatch.setattr("ultraforest.cli.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr("ultraforest.cli.os.cpu_count", lambda: cpus)
        monkeypatch.setenv("ULTRAFOREST_THREADS", "100000")
        code, out, _ = run(capsys, ["audit", "--exhaustive", "--max-n", "4"])
        assert code == 0
        assert out == "audited 9 spaces (2..4 points): 0 discrepancies\n"
        # one CPU (or an unknown count) runs the sweep without a pool
        assert started == ([expected] if expected > 1 else [])

    def test_bad_thread_setting(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRAFOREST_THREADS", "many")
        code, out, err = run(capsys, ["audit", "--exhaustive", "--max-n", "3"])
        assert code == 2
        assert "ULTRAFOREST_THREADS" in err

    def test_needs_file_or_exhaustive(self, capsys):
        code, out, err = run(capsys, ["audit"])
        assert code == 2


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


class TestConvert:
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

    def test_unknown_class_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hereditary", "verify", "nonsense"])
        assert exc.value.code == 2


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
