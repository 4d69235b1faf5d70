import contextlib
import copy
import io
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import plopen
from plopen import cli, openness
from plopen.cli import main
from plopen.generators import GenSpec, generate
from plopen.instancefile import (
    instance_digest,
    load_document,
    plmap_to_document,
    save_document,
)

from oracles import reference_oracle


# The directory that holds the plopen package, for fresh interpreters.
SRC = str(Path(plopen.__file__).resolve().parent.parent)


def fresh_process(argv, env=()):
    """`python -m plopen.cli argv` in a new interpreter with only PATH, the
    package's path and the given environment."""
    return subprocess.run(
        [sys.executable, "-m", "plopen.cli", *argv],
        capture_output=True,
        check=False,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC, **dict(env)},
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture()
def instance_path(tmp_path):
    def write(kind, dim, name, seed=0, **kwargs):
        instance = generate(GenSpec(kind, dim, seed=seed, **kwargs))
        doc = plmap_to_document(
            instance.plmap, metadata={"generator": instance.spec.to_metadata()}
        )
        path = tmp_path / f"{name}.json"
        save_document(path, doc)
        return str(path)

    return write


class TestValidate:
    def test_valid_instance(self, capsys, instance_path):
        code, report = run_cli(capsys, "validate", instance_path("identity", 2, "ok"))
        assert code == 0 and report["valid"] and report["exit_status"] == 0

    def test_discontinuous_pieces_exit_2(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "ambient_dim": 2,
            "vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
            "cells": [[0, 1, 2], [0, 2, 3]],
            "pieces": [
                {"matrix": [["1", "0"], ["0", "1"]], "offset": ["0", "0"]},
                {"matrix": [["1", "0"], ["0", "1"]], "offset": ["1", "0"]},
            ],
        }
        path = tmp_path / "discontinuous.json"
        save_document(path, doc)
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert any("discontinuous across face" in v for v in report["violations"])

    def test_invalid_geometry_exit_2(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "ambient_dim": 2,
            "vertices": [["0", "0"], ["1", "1"], ["2", "2"]],
            "cells": [[0, 1, 2]],
            "vertex_images": [["0", "0"], ["1", "1"], ["2", "2"]],
        }
        path = tmp_path / "degenerate.json"
        save_document(path, doc)
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 2 and not report["valid"]

    def test_truncated_file_exit_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 1, "ambient_dim":')
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 3 and "line" in report["error"]

    def test_decimal_rationals_rejected(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "ambient_dim": 1,
            "vertices": [["0.5"], ["1"]],
            "cells": [[0, 1]],
            "vertex_images": [["0"], ["1"]],
        }
        path = tmp_path / "decimal.json"
        save_document(path, doc)
        code, _ = run_cli(capsys, "validate", str(path))
        assert code == 3


def write_doc(tmp_path, name, **changes):
    """The 1-D identity on [-1, 1] as a document; a key set to None is dropped."""
    doc = {
        "format_version": 1,
        "ambient_dim": 1,
        "vertices": [["-1"], ["0"], ["1"]],
        "cells": [[0, 1], [1, 2]],
        "vertex_images": [["-1"], ["0"], ["1"]],
    }
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    path = tmp_path / f"{name}.json"
    save_document(path, doc)
    return str(path)


class TestMalformedDocuments:
    def test_short_vertex_images_exit_3(self, capsys, tmp_path):
        path = write_doc(tmp_path, "short", vertex_images=[["-1"], ["0"]])
        code, report = run_cli(capsys, "validate", path)
        assert code == 3 and "vertex_images" in report["error"]

    def test_piece_without_matrix_exit_3(self, capsys, tmp_path):
        pieces = [{"offset": ["0"]}, {"matrix": [["1"]], "offset": ["0"]}]
        path = write_doc(tmp_path, "nomatrix", vertex_images=None, pieces=pieces)
        code, report = run_cli(capsys, "validate", path)
        assert code == 3 and "pieces[0]" in report["error"]

    def test_piece_without_offset_exit_3(self, capsys, tmp_path):
        pieces = [{"matrix": [["1"]], "offset": ["0"]}, {"matrix": [["1"]]}]
        path = write_doc(tmp_path, "nooffset", vertex_images=None, pieces=pieces)
        code, report = run_cli(capsys, "check-open", path)
        assert code == 3 and "pieces[1]" in report["error"]

    @pytest.mark.parametrize("cell", [[1, 9], [1, -1]])
    def test_unknown_piece_vertex_exit_2(self, capsys, tmp_path, cell):
        # the same violation as the vertex_images form, never the last vertex
        pieces = [{"matrix": [["1"]], "offset": ["0"]}] * 2
        path = write_doc(tmp_path, "pieces", vertex_images=None, pieces=pieces, cells=[[0, 1], cell])
        code, report = run_cli(capsys, "validate", path)
        assert code == 2 and report["violations"] == ["bad_cell: cell 1 references unknown vertices"]
        images_path = write_doc(tmp_path, "images", cells=[[0, 1], cell])
        code, images_report = run_cli(capsys, "validate", images_path)
        assert code == 2 and images_report["violations"] == report["violations"]

    def test_vertex_of_wrong_dimension_exit_2(self, capsys, tmp_path):
        vertices = [["-1"], [], ["1"]]
        pieces = [{"matrix": [["1"]], "offset": ["0"]}] * 2
        for path in (
            write_doc(tmp_path, "images", vertices=vertices),
            write_doc(tmp_path, "pieces", vertices=vertices, vertex_images=None, pieces=pieces),
        ):
            code, report = run_cli(capsys, "validate", path)
            assert code == 2
            assert report["violations"] == ["bad_vertex: vertex 1 has dimension 0, expected 1"]

    def test_duplicate_piece_vertex_exit_2(self, capsys, tmp_path):
        # vertices 1 and 3 coincide: the pieces form keeps both, as the
        # vertex_images form does, and reports the same violation
        vertices, cells = [["-1"], ["0"], ["1"], ["0"]], [[0, 1], [3, 2]]
        pieces = [{"matrix": [["1"]], "offset": ["0"]}] * 2
        path = write_doc(tmp_path, "pieces", vertices=vertices, cells=cells, vertex_images=None, pieces=pieces)
        code, report = run_cli(capsys, "validate", path)
        assert code == 2 and report["violations"] == ["duplicate_vertex: vertices 1 and 3 coincide"]
        images = [["-1"], ["0"], ["1"], ["0"]]
        images_path = write_doc(tmp_path, "images", vertices=vertices, cells=cells, vertex_images=images)
        code, images_report = run_cli(capsys, "validate", images_path)
        assert code == 2 and images_report["violations"] == report["violations"]

    def test_unused_piece_vertex_exit_2(self, capsys, tmp_path):
        # no piece gives vertex 3 an image
        vertices = [["-1"], ["0"], ["1"], ["5"]]
        pieces = [{"matrix": [["1"]], "offset": ["0"]}] * 2
        path = write_doc(tmp_path, "pieces", vertices=vertices, vertex_images=None, pieces=pieces)
        code, report = run_cli(capsys, "validate", path)
        assert code == 2
        assert report["violations"] == ["unused_vertex: vertex 3 is in no cell, so no piece gives its image"]

    def test_discontinuous_unsorted_cells_report_in_file_order(self, capsys, tmp_path):
        # cell 1 lists vertex 2 before vertex 0, and its piece moves both
        doc = {
            "format_version": 1,
            "ambient_dim": 2,
            "vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
            "cells": [[0, 1, 2], [2, 0, 3]],
            "pieces": [
                {"matrix": [["1", "0"], ["0", "1"]], "offset": ["0", "0"]},
                {"matrix": [["1", "0"], ["0", "1"]], "offset": ["1", "0"]},
            ],
        }
        path = tmp_path / "unsorted.json"
        save_document(path, doc)
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 2 and report["violations"] == [
            f"discontinuous: discontinuous across face (0, 2): cells 0 and 1 disagree at vertex {v}"
            for v in (2, 0)
        ]

    @pytest.mark.parametrize("entry", [False, 1, None])
    def test_rational_not_a_string_exit_3(self, capsys, tmp_path, entry):
        path = write_doc(tmp_path, "typed", vertex_images=[["-1"], [entry], ["1"]])
        code, report = run_cli(capsys, "validate", path)
        assert code == 3 and "vertex_images[1]" in report["error"]

    def test_vertices_not_a_list_exit_3(self, capsys, tmp_path):
        path = write_doc(tmp_path, "scalar", vertices=5)
        code, report = run_cli(capsys, "validate", path)
        assert code == 3 and "vertices" in report["error"]

    def test_empty_cells_exit_2(self, capsys, tmp_path):
        path = write_doc(tmp_path, "empty", cells=[])
        code, report = run_cli(capsys, "validate", path)
        assert code == 2 and report["violations"] == ["empty: complex has no cells"]
        code, report = run_cli(capsys, "check-open", path)
        assert code == 2 and not report["valid"]


class TestCheckOpen:
    def test_identity_exit_0(self, capsys, instance_path):
        code, report = run_cli(capsys, "check-open", instance_path("identity", 2, "id"))
        assert code == 0
        assert report["coherently_oriented"] and report["all_agree"]
        assert report["oracle_i"]["open_at_all_samples"]

    def test_fold_exit_1(self, capsys, instance_path):
        code, report = run_cli(capsys, "check-open", instance_path("fold1d", 1, "fold"))
        assert code == 1
        assert not report["cond_ii"]["holds"]
        assert not report["cond_iii"]["holds"]
        assert not report["cond_iv"]["holds"]
        assert report["all_agree"]

    def test_doubling_exit_0_with_branch_dim(self, capsys, instance_path):
        code, report = run_cli(
            capsys, "check-open", instance_path("doubling2d", 2, "doubling")
        )
        assert code == 0 and report["dim_branch_set"] == 0

    @pytest.mark.parametrize("kind, dim", [("fold1d", 1), ("doubling2d", 2)])
    @pytest.mark.parametrize("dirs", ["0", "1"])
    @pytest.mark.parametrize("command", ["check-open", "oracle-open"])
    def test_few_directions_report_as_the_reference(
        self, capsys, monkeypatch, instance_path, kind, dim, dirs, command
    ):
        # no base direction gives no lane at all; one gives a single lane
        argv = (command, instance_path(kind, dim, kind), "--oracle-dirs", dirs)
        got = run_cli(capsys, *argv)
        monkeypatch.setattr(openness, "openness_oracle", reference_oracle)
        monkeypatch.setattr(cli, "openness_oracle", reference_oracle)
        assert got == run_cli(capsys, *argv)

    def test_batch_mode(self, capsys, instance_path, tmp_path):
        instance_path("identity", 1, "a")
        instance_path("fold1d", 1, "b")
        code, report = run_cli(
            capsys, "check-open", str(tmp_path), "--all", "--oracle-points", "4",
            "--oracle-dirs", "8",
        )
        assert code == 1  # worst of {0, 1}
        assert set(report["results"]) == {"a.json", "b.json"}

    def test_batch_reports_each_bad_file(self, capsys, instance_path, tmp_path):
        instance_path("identity", 1, "a")
        write_doc(tmp_path, "empty", cells=[])
        (tmp_path / "truncated.json").write_text('{"format_version": 1,')
        code, report = run_cli(
            capsys, "check-open", str(tmp_path), "--all", "--oracle-points", "4",
            "--oracle-dirs", "8",
        )
        results = report["results"]
        assert code == 3  # worst of {0, 2, 3}
        assert results["a.json"]["coherently_oriented"] and "exit_status" not in results["a.json"]
        assert results["empty.json"]["exit_status"] == 2 and results["empty.json"]["violations"]
        assert results["truncated.json"]["exit_status"] == 3 and "line" in results["truncated.json"]["error"]


class TestDegreeCommands:
    def test_degree_identity(self, capsys, instance_path):
        code, report = run_cli(
            capsys, "degree", instance_path("identity", 2, "id"), "--at", "1/2,1/3"
        )
        assert code == 0 and report["degree"] == 1

    def test_degree_undefined_exit_5(self, capsys, instance_path):
        code, report = run_cli(
            capsys, "degree", instance_path("identity", 2, "id"), "--at", "0,1/2"
        )
        assert code == 5 and "degree undefined" in report["error"]

    @pytest.mark.parametrize("resolution", [[], ["--resolution", "4"]])
    def test_degree_at_an_interior_vertex_of_the_3d_identity(self, capsys, tmp_path, resolution):
        """(1, 1, 1) lies in the image of an interior vertex and of the cube
        diagonals' planes x_i = x_j, so the perturbation needs a direction
        off every such plane."""
        path = str(tmp_path / "identity3.json")
        assert main(["gen", "--kind", "identity", "--dim", "3", *resolution, "--out", path]) == 0
        capsys.readouterr()
        code, report = run_cli(capsys, "degree", path, "--at", "1,1,1")
        assert code == 0 and report["degree"] == 1
        assert report["regular_point_used"] != report["query_point"]

    def test_degree_approx_flag(self, capsys, instance_path):
        code, report = run_cli(
            capsys,
            "degree",
            instance_path("identity", 2, "id"),
            "--at",
            "1/2,1/3",
            "--approx",
        )
        assert code == 0 and report["approx_is_inexact"]
        assert report["approx"]["query_point"] == [0.5, pytest.approx(1 / 3)]

    @pytest.mark.parametrize("command", ["degree", "fibers"])
    @pytest.mark.parametrize("at", ["0.5,1/3", "1/2", "1/2,1/3,0", "1/2,,1"])
    def test_bad_query_point_exit_3(self, capsys, instance_path, command, at):
        code, report = run_cli(capsys, command, instance_path("identity", 2, "id"), "--at", at)
        assert code == 3 and report["exit_status"] == 3 and "point" in report["error"]

    @pytest.mark.parametrize("gamma", ["0.5,1/3;1,1", "1/2;3/2,5/3", "1/2,1/3", "0,0;1,1;2,2"])
    def test_bad_homotopy_path_exit_3(self, capsys, instance_path, gamma):
        path = instance_path("identity", 2, "id")
        code, report = run_cli(capsys, "homotopy", path, path, "--gamma", gamma, "--samples", "2")
        assert code == 3 and report["exit_status"] == 3 and report["error"]

    @pytest.mark.parametrize("command", ["check-open", "oracle-open"])
    @pytest.mark.parametrize("flag", ["--oracle-points", "--oracle-dirs"])
    @pytest.mark.parametrize("value", ["x", "-1", "1.5", ""])
    def test_bad_oracle_count_exit_3(self, capsys, instance_path, command, flag, value):
        path = instance_path("identity", 1, "id")
        code, report = run_cli(capsys, command, path, f"{flag}={value}")
        assert code == 3 and report["exit_status"] == 3 and flag in report["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-open", "FILE", "--seed={}"],
            ["oracle-open", "FILE", "--seed={}"],
            ["homotopy", "FILE", "FILE", "--gamma", "0;1/2", "--samples={}"],
            ["gen", "--kind", "identity", "--dim={}"],
            ["gen", "--kind", "identity", "--dim", "1", "--resolution={}"],
            ["gen", "--kind", "identity", "--dim", "1", "--seed={}"],
            ["gen", "--kind", "identity", "--dim", "1", "--den-bound={}"],
        ],
    )
    @pytest.mark.parametrize("value", ["x", "1.5", "", "1e2"])
    def test_bad_integer_flag_exit_3(self, capsys, instance_path, argv, value):
        path = instance_path("identity", 1, "id")
        argv = [path if a == "FILE" else a.format(value) for a in argv]
        flag = next(a for a in argv if "=" in a).split("=")[0]
        code, report = run_cli(capsys, *argv)
        assert code == 3 and report["exit_status"] == 3 and flag in report["error"]

    @pytest.mark.parametrize("value", ["7", "+7", " 7 ", "0007"])
    def test_integer_flags_read_as_before(self, capsys, instance_path, value):
        path = instance_path("random_mixed_signs", 1, "mixed", seed=2)
        reference = run_cli(capsys, "oracle-open", path, "--seed", "7", "--oracle-points", "5")
        got = run_cli(capsys, "oracle-open", path, f"--seed={value}", "--oracle-points", "5")
        assert got == reference
        dim = value.replace("7", "1")
        code, report = run_cli(capsys, "gen", "--kind", "identity", f"--dim={dim}", "--seed=-3")
        assert code == 0 and report["generator"]["dim"] == 1 and report["generator"]["seed"] == -3

    @pytest.mark.parametrize(
        "spec", [["--kind", "bogus", "--dim", "1"], ["--kind", "identity", "--dim", "4"]]
    )
    def test_rejected_generator_spec_exit_3(self, capsys, spec):
        code, report = run_cli(capsys, "gen", *spec)
        assert code == 3 and report["exit_status"] == 3 and "generator spec" in report["error"]

    def test_seed_env_var_read_only_without_seed_flag(self, capsys, instance_path, monkeypatch):
        path = instance_path("identity", 1, "id")
        monkeypatch.setenv("PLOPEN_SEED", "x")
        code, report = run_cli(capsys, "validate", path)
        assert code == 0 and report["valid"]
        code, report = run_cli(capsys, "oracle-open", path)
        assert code == 3 and report["exit_status"] == 3 and "PLOPEN_SEED" in report["error"]
        code, report = run_cli(capsys, "check-open", path, "--seed", "3")
        assert code == 0

    def test_fibers(self, capsys, instance_path):
        code, report = run_cli(
            capsys, "fibers", instance_path("fold1d", 1, "fold"), "--at", "1/2"
        )
        assert code == 0 and report["finite"]
        assert [p["point"] for p in report["points"]] == [["-1/2"], ["1/2"]]
        assert [p["signs"] for p in report["points"]] == [[-1], [1]]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["validate"],
            ["bogus"],
            ["whyburn", "FILE", "--bogus"],
            ["whyburn", "FILE", "extra"],
            ["degree", "FILE"],
            ["homotopy", "FILE", "FILE"],
            ["gen", "--kind", "identity"],
            ["check-open", "FILE", "--seed"],
        ],
    )
    def test_usage_error_exit_3(self, capsys, instance_path, argv):
        path = instance_path("identity", 1, "id")
        code = main([path if a == "FILE" else a for a in argv])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 3 and report["exit_status"] == 3
        assert report["error"].startswith("usage: plopen")
        assert captured.err.startswith("usage: plopen")

    @pytest.mark.parametrize("argv", [["--help"], ["whyburn", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: plopen")



class TestUnreadableFiles:
    @pytest.mark.parametrize("command", ["validate", "whyburn", "check-open"])
    def test_missing_file_exit_3(self, capsys, tmp_path, command):
        code, report = run_cli(capsys, command, str(tmp_path / "absent.json"))
        assert code == 3 and report["exit_status"] == 3 and "absent.json" in report["error"]

    def test_undecodable_file_exit_3(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00{")
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 3 and report["exit_status"] == 3 and "decode" in report["error"]

    def test_directory_for_a_file_exit_3(self, capsys, instance_path, tmp_path):
        instance_path("identity", 1, "id")
        code, report = run_cli(capsys, "validate", str(tmp_path))
        assert code == 3 and report["exit_status"] == 3
        code, report = run_cli(capsys, "check-open", str(tmp_path / "id.json"), "--all")
        assert code == 3 and report["exit_status"] == 3

    def test_batch_reports_a_directory_among_its_files(self, capsys, instance_path, tmp_path):
        instance_path("identity", 1, "id")
        (tmp_path / "sub.json").mkdir()
        code, report = run_cli(capsys, "check-open", str(tmp_path), "--all")
        assert code == 3 and report["results"]["id.json"]["coherently_oriented"]
        assert report["results"]["sub.json"]["exit_status"] == 3

    def test_unwritable_gen_out_exit_3(self, capsys, tmp_path):
        out = str(tmp_path / "absent" / "x.json")
        code, report = run_cli(capsys, "gen", "--kind", "identity", "--dim", "1", "--out", out)
        assert code == 3 and report["exit_status"] == 3 and "--out" in report["error"]


class TestOtherCommands:
    def test_graph_fold(self, capsys, instance_path):
        code, report = run_cli(capsys, "graph", instance_path("fold1d", 1, "fold"))
        assert code == 0
        assert report["num_components"] == 2 and report["connected"]

    def test_branch_set_fold(self, capsys, instance_path):
        code, report = run_cli(capsys, "branch-set", instance_path("fold1d", 1, "fold"))
        assert code == 0
        assert report["branch_faces"] == [
            {"face": [1], "dim": 0, "reason": "SignMismatchAcrossFace", "cells": [0, 1]}
        ]

    def test_whyburn_exit_codes(self, capsys, instance_path):
        code, report = run_cli(capsys, "whyburn", instance_path("identity", 2, "id"))
        assert code == 0 and report["certified"] and report["degree"] == 1
        code, report = run_cli(
            capsys, "whyburn", instance_path("interior_fold1d", 1, "ifold")
        )
        assert code == 1 and report["stage"] == 3

    def test_homotopy_constant(self, capsys, instance_path):
        path = instance_path("identity", 2, "id")
        code, report = run_cli(
            capsys, "homotopy", path, path, "--gamma", "1/2,1/3;3/2,5/3", "--samples", "5"
        )
        assert code == 0 and report["constant"] and set(report["degrees"]) == {1}

    def test_console_script_exits_with_the_report_status(self, capsys, instance_path, monkeypatch):
        # `console_main` is the `plopen` entry point of pyproject.toml
        monkeypatch.setattr(sys, "argv", ["plopen", "validate", instance_path("identity", 1, "id")])
        with pytest.raises(SystemExit) as exc:
            cli.console_main()
        assert exc.value.code == 0 and json.loads(capsys.readouterr().out)["valid"]

    def test_homotopy_over_different_complexes_exit_3(self, capsys, instance_path):
        coarse = instance_path("identity", 2, "coarse", resolution=1)
        fine = instance_path("identity", 2, "fine", resolution=2)
        code, report = run_cli(
            capsys, "homotopy", coarse, fine, "--gamma", "1/2,1/3;1/3,1/2", "--samples", "3"
        )
        assert code == 3 and report["exit_status"] == 3
        assert report["error"] == "homotopy endpoints must share one domain complex"

    def test_homotopy_of_one_complex_in_both_forms(self, capsys, tmp_path):
        pieces_path, images_path = tmp_path / "pieces.json", tmp_path / "images.json"
        save_document(pieces_path, {**_FOLD, "pieces": _FOLD_PIECES})
        save_document(images_path, {**_FOLD, "vertex_images": [["1"], ["1"], ["0"]]})
        code, report = run_cli(
            capsys, "homotopy", str(pieces_path), str(images_path), "--gamma", "1/2;1/2", "--samples", "3"
        )
        assert code == 0 and report["constant"] and report["degrees"] == [0, 0, 0]

    def test_oracle_open_fold(self, capsys, instance_path):
        code, report = run_cli(
            capsys,
            "oracle-open",
            instance_path("fold1d", 1, "fold"),
            "--oracle-points",
            "4",
            "--oracle-dirs",
            "8",
        )
        assert code == 0 and not report["open_at_all_samples"]
        assert report["failures"]

    def test_gen_round_trips_metadata(self, capsys, tmp_path):
        out = tmp_path / "generated.json"
        code, report = run_cli(
            capsys,
            "gen",
            "--kind",
            "random_mixed_signs",
            "--dim",
            "2",
            "--seed",
            "9",
            "--out",
            str(out),
        )
        assert code == 0
        doc = load_document(out)
        assert GenSpec.from_metadata(doc["metadata"]["generator"]) == GenSpec(
            "random_mixed_signs", 2, resolution=3, seed=9
        )
        assert report["instance_digest"] == instance_digest(doc)
        code2, validated = run_cli(capsys, "validate", str(out))
        assert code2 == 0 and validated["instance_digest"] == report["instance_digest"]


class TestFarVertex:
    """A valid map with one vertex 10^20 below the rest: its cell's box
    covers more grid slabs than `len` of a range can count."""

    @pytest.fixture()
    def far_path(self, tmp_path):
        doc = plmap_to_document(generate(GenSpec("identity", 2, resolution=3)).plmap)
        index = {tuple(v): i for i, v in enumerate(doc["vertices"])}
        far = ["1/2", "-100000000000000000000"]
        doc["vertices"].append(far)
        doc["vertex_images"].append(far)
        doc["cells"].append([index["0", "0"], index["1", "0"], len(doc["vertices"]) - 1])
        path = tmp_path / "far.json"
        save_document(path, doc)
        return str(path)

    # README's exit codes: 0 for valid, open, certified and computed answers.
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["check-open"],
            ["whyburn"],
            ["branch-set"],
            ["graph"],
            ["oracle-open"],
            ["degree", "--at", "1/2,-1"],
            ["fibers", "--at", "1/2,-1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_command_answers_with_exit_0(self, capsys, far_path, argv):
        code, report = run_cli(capsys, argv[0], far_path, *argv[1:])
        assert code == 0 and report["exit_status"] == 0

    def test_identity_answers(self, capsys, far_path):
        _, validated = run_cli(capsys, "validate", far_path)
        _, certified = run_cli(capsys, "whyburn", far_path)
        _, degree = run_cli(capsys, "degree", far_path, "--at", "1/2,-1")
        assert validated["valid"] and validated["num_cells"] == 19
        assert certified["certified"] and degree["degree"] == 1


def box_document(dim, resolution, mirror=False):
    """The [0, resolution]^dim grid split as `generators.box_complex` splits
    it, mapped by the identity or, with mirror, by negating the first image
    coordinate. The generators stop at dimension 3; the file format does not."""
    coords = list(itertools.product(range(resolution + 1), repeat=dim))
    index = {c: i for i, c in enumerate(coords)}
    cells = []
    for corner in itertools.product(range(resolution), repeat=dim):
        for perm in itertools.permutations(range(dim)):
            path = [corner]
            for axis in perm:
                path.append(tuple(c + (i == axis) for i, c in enumerate(path[-1])))
            cells.append([index[p] for p in path])
    images = [(-c[0], *c[1:]) if mirror else c for c in coords]
    return {
        "format_version": 1,
        "ambient_dim": dim,
        "vertices": [[str(x) for x in c] for c in coords],
        "cells": cells,
        "vertex_images": [[str(x) for x in c] for c in images],
        "metadata": {},
    }


class TestSignedPointValues:
    """argparse reads a value that starts with "-" as an option unless it is
    a plain negative number; a point given to `--at` or `--gamma` answers
    the same in the space form as in the "=" form."""

    @pytest.fixture()
    def mirror_path(self, tmp_path):
        path = tmp_path / "mirror.json"
        save_document(path, box_document(2, 2, mirror=True))
        return str(path)

    @pytest.mark.parametrize("command", ["degree", "fibers"])
    @pytest.mark.parametrize("at", ["-1/3,1/2", "-1/2,1/2", "-1,-1/2", "-3,1"])
    def test_at(self, capsys, mirror_path, command, at):
        spaced = run_cli(capsys, command, mirror_path, "--at", at)
        assert spaced == run_cli(capsys, command, mirror_path, f"--at={at}")
        assert spaced[0] == 0

    def test_degree_values(self, capsys, mirror_path, instance_path):
        # a regular point, a point on an interior edge's image, and the
        # point left of the identity's image
        _, regular = run_cli(capsys, "degree", mirror_path, "--at", "-1/3,1/2")
        _, perturbed = run_cli(capsys, "degree", mirror_path, "--at", "-1/2,1/2")
        _, outside = run_cli(capsys, "degree", instance_path("identity", 2, "x"), "--at", "-1/2,1/2")
        assert regular["degree"] == perturbed["degree"] == -1 and outside["degree"] == 0
        assert perturbed["regular_point_used"] != perturbed["query_point"]

    def test_gamma(self, capsys, mirror_path):
        argv = ["homotopy", mirror_path, mirror_path, "--samples", "3"]
        gamma = "-1/3,1/2;-1/2,1/3"
        spaced = run_cli(capsys, *argv, "--gamma", gamma)
        assert spaced == run_cli(capsys, *argv, f"--gamma={gamma}")
        assert spaced[0] == 0 and spaced[1]["degrees"] == [-1, -1, -1]

    def test_console_argv(self, mirror_path):
        spaced = fresh_process(["degree", mirror_path, "--at", "-1/2,1/2"])
        joined = fresh_process(["degree", mirror_path, "--at=-1/2,1/2"])
        assert spaced.returncode == joined.returncode == 0 and spaced.stdout == joined.stdout

    def test_a_missing_value_is_still_a_usage_error(self, capsys, mirror_path):
        code, report = run_cli(capsys, "degree", mirror_path, "--at", "--approx")
        assert code == 3 and "--at: expected one argument" in report["error"]


class TestFourDimensional:
    """One 4-D cube split into 24 cells: every frame is a side-5 matrix, which
    only the elimination computes."""

    @pytest.mark.parametrize("mirror,degree", [(False, 1), (True, -1)], ids=["identity", "mirror"])
    def test_validate_check_open_and_whyburn(self, capsys, tmp_path, mirror, degree):
        path = tmp_path / "cube4.json"
        save_document(path, box_document(4, 1, mirror))
        code, validated = run_cli(capsys, "validate", str(path))
        assert code == 0 and validated["valid"] is True and validated["num_cells"] == 24
        code, checked = run_cli(capsys, "check-open", str(path))
        assert code == 0 and checked["dim_branch_set"] == "-inf"
        code, certified = run_cli(capsys, "whyburn", str(path))
        assert code == 0 and certified["certified"] is True and certified["degree"] == degree


class TestRoundTrip:
    def test_parse_serialize_is_identity_on_canonical_documents(self, instance_path):
        from plopen.instancefile import canonical_json, document_to_plmap

        path = instance_path("random_orientation_preserving", 2, "roundtrip", seed=2)
        doc = load_document(path)
        plmap, metadata = document_to_plmap(doc)
        rebuilt = plmap_to_document(plmap, metadata=metadata)
        assert canonical_json(rebuilt) == canonical_json(doc)
        assert instance_digest(rebuilt) == instance_digest(doc)


class TestDeterminism:
    def test_reports_byte_identical_across_processes(self, instance_path):
        path = instance_path("random_mixed_signs", 2, "mixed", seed=5)
        command = [
            sys.executable,
            "-m",
            "plopen.cli",
            "check-open",
            path,
            "--seed",
            "7",
        ]
        first = subprocess.run(command, capture_output=True, check=False)
        second = subprocess.run(command, capture_output=True, check=False)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 1

    def test_seed_env_var_default(self, instance_path, monkeypatch, tmp_path):
        path = instance_path("identity", 1, "id")
        env_run = fresh_process(["oracle-open", path], {"PLOPEN_SEED": "11"})
        flag_run = fresh_process(["oracle-open", path, "--seed", "11"])
        assert env_run.returncode == flag_run.returncode == 0
        assert env_run.stdout == flag_run.stdout


class TestParserBuiltOnce:
    def test_reused_parser_answers_as_fresh_processes(self, capsys, instance_path, monkeypatch):
        path = instance_path("random_mixed_signs", 2, "mixed", seed=5)
        oracle = ["oracle-open", path, "--oracle-points", "5"]
        calls = [
            ({}, ["whyburn", path, "--bogus"]),
            ({}, ["validate", path]),
            ({"PLOPEN_SEED": "3"}, oracle),
            ({"PLOPEN_SEED": "11"}, oracle),
        ]
        outputs = []
        for env, argv in calls:
            monkeypatch.delenv("PLOPEN_SEED", raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            code = main(argv)
            captured = capsys.readouterr()
            fresh = fresh_process(argv, env)
            assert (code, captured.out, captured.err) == (
                fresh.returncode,
                fresh.stdout.decode(),
                fresh.stderr.decode(),
            )
            outputs.append(captured.out)
        assert cli._parser() is cli._parser()
        assert json.loads(outputs[0])["exit_status"] == 3
        assert outputs[2] != outputs[3]  # each call read its own PLOPEN_SEED


def _containers(node, path=()):
    """Every (path, container) pair in a JSON document, the document first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            yield from _containers(child, (*path, key))


_LINE = {
    "format_version": 1,
    "ambient_dim": 1,
    "vertices": [["-1"], ["0"], ["1"]],
    "cells": [[0, 1], [1, 2]],
}
_SQUARE = {
    "format_version": 1,
    "ambient_dim": 2,
    "vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
    "cells": [[0, 1, 2], [0, 2, 3]],
}
_IDENTITY_2D = {"matrix": [["1", "0"], ["0", "1"]], "offset": ["0", "0"]}
# |x| on [-1, 1]; the cells list the vertices in the order 1, 2, 0
_FOLD = {**_LINE, "vertices": [["1"], ["-1"], ["0"]], "cells": [[1, 2], [2, 0]]}
_FOLD_PIECES = [{"matrix": [["-1"]], "offset": ["0"]}, {"matrix": [["1"]], "offset": ["0"]}]
BASE_DOCUMENTS = [
    {**_LINE, "vertex_images": [["1"], ["0"], ["1"]]},
    {**_LINE, "pieces": [{"matrix": [["1"]], "offset": ["0"]}, {"matrix": [["-1"]], "offset": ["0"]}]},
    {**_SQUARE, "vertex_images": [["0", "0"], ["2", "0"], ["1", "1"], ["0", "1"]], "metadata": {}},
    {**_SQUARE, "pieces": [_IDENTITY_2D, _IDENTITY_2D]},
    {**_FOLD, "pieces": _FOLD_PIECES},
]
# integers of 20 to 41 digits, of either sign
_LONG = st.tuples(st.sampled_from([1, -1]), st.integers(10**19, 10**40)).map(lambda t: t[0] * t[1])
# rationals whose numerator or denominator has 20 or more digits
LONG_RATIONALS = st.one_of(
    _LONG.map(str),
    st.builds("{}/{}".format, _LONG, st.integers(1, 12)),
    st.builds("{}/{}".format, st.integers(-12, 12), _LONG.map(abs)),
)
JUNK = st.one_of(
    st.integers(-3, 12),
    st.sampled_from(["", "x", "1/0", "0.5", "-1", "3/2", "1/2/3"]),
    LONG_RATIONALS,
    st.none(),
    st.booleans(),
    st.just(0.5),
    st.lists(st.sampled_from(["0", "1", 0, 1]), max_size=3),
    st.just({}),
)


@st.composite
def mutated_documents(draw):
    """A valid document after one to three random edits.

    An edit drops a key or an entry, gives one a value of another type or a
    rational string of 20 or more digits, sets one to a small (possibly
    negative or out-of-range) integer, or appends an entry (a copy of a
    sibling makes a list one too long).
    """
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        _, node = draw(st.sampled_from(list(_containers(doc))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        edit = draw(st.sampled_from(["drop", "retype", "index", "append"])) if keys else "append"
        # values are copied in: a later edit must not change a strategy's own value
        if edit == "append" and isinstance(node, dict):
            key = draw(st.sampled_from(["vertex_images", "pieces", "metadata"]))
            node[key] = copy.deepcopy(draw(JUNK))
        elif edit == "append":
            node.append(copy.deepcopy(draw(st.sampled_from(node) if node else JUNK)))
        else:
            key = draw(st.sampled_from(keys))
            if edit == "drop":
                del node[key]
            else:
                node[key] = copy.deepcopy(draw(JUNK if edit == "retype" else st.integers(-4, 9)))
    return doc


POINT_VALUES = st.sampled_from(
    ["1/2", "-1/3", "0", "1", "1/2,1/3", "1/3,-1/5", "", ",", "x", "1/0", "0.5", "1/2,1/3,1"]
)
COUNT_VALUES = st.sampled_from(["0", "1", "3", "-1", "x", "1.5", "", "1e2"])
SEED_VALUES = st.sampled_from(["0", "7", "-3", "+2", " 5", "x", "1.5", "", "1e2"])


@st.composite
def invocations(draw):
    """An argv with the placeholders FILE, FILE2 and DIR; values are passed as
    --flag=value.

    Some have one argument dropped, or an unknown flag or argument added.
    """
    command = draw(
        st.sampled_from(
            [
                "validate",
                "check-open",
                "oracle-open",
                "degree",
                "fibers",
                "branch-set",
                "graph",
                "whyburn",
                "homotopy",
            ]
        )
    )
    argv = [command, "FILE"]
    if command == "homotopy":
        ends = draw(st.lists(POINT_VALUES, min_size=1, max_size=3))
        argv += ["FILE2", f"--gamma={';'.join(ends)}", f"--samples={draw(COUNT_VALUES)}"]
    if command == "check-open" and draw(st.booleans()):
        argv = [command, "DIR", "--all"]
    if command in ("check-open", "oracle-open"):
        argv.append(f"--oracle-points={draw(COUNT_VALUES)}")
        argv.append(f"--oracle-dirs={draw(COUNT_VALUES)}")
        if draw(st.booleans()):
            argv.append(f"--seed={draw(SEED_VALUES)}")
    if command in ("degree", "fibers"):
        argv.append(f"--at={draw(POINT_VALUES)}")
    edit = draw(st.sampled_from(["none", "drop", "unknown flag", "extra argument"]))
    if edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "unknown flag":
        argv.append("--bogus")
    elif edit == "extra argument":
        argv.append("extra")
    return argv


class TestFuzzedInput:
    @given(doc=mutated_documents(), other=st.sampled_from(BASE_DOCUMENTS), argv=invocations())
    @settings(max_examples=150, deadline=None)
    def test_every_run_reports_json_with_a_documented_code(self, doc, other, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            # outside DIR, so `check-open --all` reads only the mutated document
            other_path = Path(tmp) / "other" / "doc.json"
            other_path.parent.mkdir()
            other_path.write_text(json.dumps(other))
            argv = [{"FILE": str(path), "FILE2": str(other_path), "DIR": tmp}.get(a, a) for a in argv]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
        report = json.loads(out.getvalue())
        assert code in range(6) and report["exit_status"] == code
