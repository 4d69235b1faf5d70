import json
import subprocess
import sys

import pytest

from plopen.cli import main
from plopen.generators import GenSpec, generate
from plopen.instancefile import (
    instance_digest,
    load_document,
    plmap_to_document,
    save_document,
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

    def test_fibers(self, capsys, instance_path):
        code, report = run_cli(
            capsys, "fibers", instance_path("fold1d", 1, "fold"), "--at", "1/2"
        )
        assert code == 0 and report["finite"]
        assert [p["point"] for p in report["points"]] == [["-1/2"], ["1/2"]]
        assert [p["signs"] for p in report["points"]] == [[-1], [1]]


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
        env_run = subprocess.run(
            [sys.executable, "-m", "plopen.cli", "oracle-open", path],
            capture_output=True,
            check=False,
            env={"PLOPEN_SEED": "11", "PATH": "/usr/bin:/bin"},
        )
        flag_run = subprocess.run(
            [sys.executable, "-m", "plopen.cli", "oracle-open", path, "--seed", "11"],
            capture_output=True,
            check=False,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert env_run.stdout == flag_run.stdout
