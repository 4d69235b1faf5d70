"""Golden outputs of the CLI: stdout and exit code, byte for byte.

Every command's report is part of plopen's contract, so a faster or smaller
implementation must leave each one byte-identical. This test is that rule as
a gate. The instances are every generator kind in each of its dimensions,
with seeds 0 and 1 (one of the two in 3-D) and both document forms, plus
hand-written complexes whose cells meet improperly. On each it runs
`validate`, `whyburn`, `branch-set`, `graph`, `check-open`, and
`oracle-open` in two settings, and `degree` and `fibers` at up to five
points read off the document (`query_points`); it runs `check-open --all`
once over a directory of them.
Each run is hashed: SHA-256 of stdout, a newline and the exit code, kept to
its first 16 hex digits in GOLDEN. The set includes `whyburn` rejections at stages 1, 2 and 3
and `validate` reports with `improper_intersection` violations.

The two forms of one map must answer alike: every run on a pieces document,
and on one whose vertices are out of first-appearance order, gives the same
exit code and report, apart from `instance_digest`, as on the same map in
vertex_images form.

A deliberate change to a report means writing the table again:
`PYTHONPATH=src python tests/test_golden.py` prints it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from plopen.cli import main
from plopen.generators import KINDS, GenSpec, generate
from plopen.instancefile import document_to_plmap, plmap_to_document, save_document
from plopen.linalg import format_rational, parse_rational

DIMS = {"fold1d": (1,), "interior_fold1d": (1,), "doubling2d": (2,), "shear": (2,)}
COMMANDS = {
    "validate": [],
    "whyburn": [],
    "branch-set": [],
    "graph": [],
    "check-open": ["--oracle-points", "4", "--oracle-dirs", "12", "--seed", "5"],
}
# `oracle-open` prints every failure's point, direction, epsilon and target,
# which no other report shows; it runs with the defaults and with one other
# setting. Run key suffix -> (command, flags); a suffix has no space.
RUNS = {command: (command, flags) for command, flags in COMMANDS.items()}
RUNS["oracle-open"] = ("oracle-open", [])
RUNS["oracle-open:s7-p9-d23"] = ("oracle-open", ["--seed", "7", "--oracle-points", "9", "--oracle-dirs", "23"])

# Two intervals that overlap and share no vertex, two triangles overlapping
# beyond their common edge, and a tetrahedron with a second one inside it
# that shares a face.
_IMPROPER_1D = {
    "format_version": 1,
    "ambient_dim": 1,
    "vertices": [["0"], ["2"], ["1"], ["3"]],
    "cells": [[0, 1], [2, 3]],
    "vertex_images": [["0"], ["2"], ["1"], ["3"]],
}
_IMPROPER_2D = {
    "format_version": 1,
    "ambient_dim": 2,
    "vertices": [["0", "0"], ["2", "0"], ["0", "2"], ["1", "1"]],
    "cells": [[0, 1, 2], [0, 1, 3]],
    "vertex_images": [["0", "0"], ["2", "0"], ["0", "2"], ["1", "1"]],
}
_TETRAHEDRA = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1/4", "1/4", "1/4"]]
_IMPROPER_3D = {
    "format_version": 1,
    "ambient_dim": 3,
    "vertices": _TETRAHEDRA,
    "cells": [[0, 1, 2, 3], [0, 1, 2, 4]],
    "vertex_images": _TETRAHEDRA,
}


def _pieces_form(doc: dict, plmap) -> dict:
    out = {key: value for key, value in doc.items() if key != "vertex_images"}
    out["pieces"] = [
        {
            "matrix": [[format_rational(x) for x in row] for row in piece.matrix.entries],
            "offset": [format_rational(x) for x in piece.offset],
        }
        for piece in plmap.pieces
    ]
    return out


def golden_documents() -> dict[str, dict]:
    """Instance name -> document. Seed 0 in vertex form, seed 1 in pieces form.

    A 3-D instance costs about as much as all the 1-D and 2-D ones of its
    kind, so each 3-D kind has one seed, seeds and forms taking turns, and
    the kinds that need no interior vertex use the 6-cell resolution 1.
    """
    docs = {}
    for kind in KINDS:
        for dim in DIMS.get(kind, (1, 2, 3)):
            for seed, form in ((0, "vertex_images"), (1, "pieces")):
                if dim == 3 and seed != KINDS.index(kind) % 2:
                    continue
                coarse = dim == 3 and kind in ("identity", "singular_cell")
                spec = GenSpec(kind, dim, resolution=1 if coarse else 0, seed=seed)
                plmap = generate(spec).plmap
                doc = plmap_to_document(plmap, metadata={"generator": spec.to_metadata()})
                if form == "pieces":
                    doc = _pieces_form(doc, plmap)
                docs[f"{kind}-d{dim}-s{seed}-{form}"] = doc
    docs["improper-d1-vertex_images"] = _IMPROPER_1D
    docs["improper-d2-vertex_images"] = _IMPROPER_2D
    improper_pieces = {key: value for key, value in _IMPROPER_2D.items() if key != "vertex_images"}
    improper_pieces["pieces"] = [{"matrix": [["1", "0"], ["0", "1"]], "offset": ["0", "0"]}] * 2
    docs["improper-d2-pieces"] = improper_pieces
    docs["improper-d3-vertex_images"] = _IMPROPER_3D
    return docs


def vertex_images(doc: dict) -> list[tuple]:
    """Each vertex's image, read off the document: in pieces form, the image
    under the piece of the first cell that lists the vertex."""
    if "vertex_images" in doc:
        return [tuple(map(parse_rational, v)) for v in doc["vertex_images"]]
    vertices = [tuple(map(parse_rational, v)) for v in doc["vertices"]]
    images = [None] * len(vertices)
    for cell, piece in zip(doc["cells"], doc["pieces"]):
        for vid in cell:
            if images[vid] is None:
                images[vid] = tuple(
                    sum(parse_rational(a) * x for a, x in zip(row, vertices[vid])) + parse_rational(b)
                    for row, b in zip(piece["matrix"], piece["offset"])
                )
    return images


def query_points(doc: dict) -> dict[str, tuple]:
    """Point name -> `--at` point for `degree` and `fibers`, from the document alone.

    `vertex`: the image of the vertex in the most cells (the lowest index on
    ties). `face`: the image of the barycenter of the last interior
    (n-1)-face, which `degree` answers by perturbation when it is irregular.
    `cell`: the image of cell 0's barycenter. `boundary`: the image of the
    barycenter of the first boundary (n-1)-face, where the degree is
    undefined (exit 5). `outside`: one past the images' largest coordinate
    on every axis. An instance with no interior (n-1)-face has no `face`.
    """
    n = doc["ambient_dim"]
    vertices = [tuple(map(parse_rational, v)) for v in doc["vertices"]]
    cells = [tuple(sorted(cell)) for cell in doc["cells"]]
    images = vertex_images(doc)

    def mean(ids) -> tuple:
        return tuple(sum(images[i][c] for i in ids) / len(ids) for c in range(n))

    incidence: dict[tuple, int] = {}
    for cell in cells:
        for drop in range(n + 1):
            facet = cell[:drop] + cell[drop + 1 :]
            incidence[facet] = incidence.get(facet, 0) + 1
    interior = sorted(facet for facet, count in incidence.items() if count == 2)
    boundary = sorted(facet for facet, count in incidence.items() if count == 1)
    in_cells = [sum(vid in cell for cell in cells) for vid in range(len(vertices))]
    points = {"vertex": images[in_cells.index(max(in_cells))]}
    if interior:
        points["face"] = mean(interior[-1])
    points["cell"] = mean(cells[0])
    points["boundary"] = mean(boundary[0])
    points["outside"] = tuple(1 + max(image[c] for image in images) for c in range(n))
    return points


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(f"{out.getvalue()}\n{code}".encode()).hexdigest()[:16]


def _batch_names(names) -> list[str]:
    """The `check-open --all` directory: the 1-D instances and the improper ones."""
    return [name for name in names if "-d1-" in name or name.startswith("improper")]


def run_all(directory: Path) -> dict[str, str]:
    """Run key -> digest for every golden run, instances written under directory."""
    docs = golden_documents()
    batch = directory / "batch"
    batch.mkdir()
    digests = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        save_document(path, doc)
        if name in _batch_names(docs):
            save_document(batch / f"{name}.json", doc)
        for run, (command, flags) in RUNS.items():
            digests[f"{name} {run}"] = _run([command, str(path), *flags])
        for where, point in query_points(doc).items():
            at = ",".join(map(format_rational, point))
            for command in ("degree", "fibers"):
                digests[f"{name} {command}@{where}"] = _run([command, str(path), f"--at={at}"])
    digests["batch check-open --all"] = _run(["check-open", str(batch), "--all", *COMMANDS["check-open"]])
    return digests


# A fold of the square [0, 2]^2 about its center, vertex 0, with the two left
# cells reversed. The cells list their vertices in the order 1, 2, 0, 3, 4 of
# first appearance, not in the order of the file.
_OUT_OF_ORDER = {
    "format_version": 1,
    "ambient_dim": 2,
    "vertices": [["1", "1"], ["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]],
    "cells": [[1, 2, 0], [2, 3, 0], [3, 4, 0], [4, 1, 0]],
    "vertex_images": [["1", "1"], ["0", "0"], ["2", "0"], ["2", "2"], ["3", "1"]],
}


def twin_documents() -> dict[str, tuple[dict, dict]]:
    """Name -> (pieces document, the same map in vertex_images form), for
    every pieces document of the golden corpus and `_OUT_OF_ORDER`."""
    docs = {name: doc for name, doc in golden_documents().items() if name.endswith("-pieces")}
    docs["out_of_order-d2-pieces"] = _pieces_form(_OUT_OF_ORDER, document_to_plmap(_OUT_OF_ORDER)[0])
    twins = {}
    for name, doc in docs.items():
        twin = {key: value for key, value in doc.items() if key != "pieces"}
        twin["vertex_images"] = [list(map(format_rational, image)) for image in vertex_images(doc)]
        twins[name] = (doc, twin)
    return twins


TWINS = twin_documents()


def _report(argv: list[str]) -> tuple[int, dict]:
    """Exit code and report of one run, without the instance digest."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = json.loads(out.getvalue())
    report.pop("instance_digest", None)
    return code, report


@pytest.mark.parametrize("name", sorted(TWINS))
def test_pieces_form_answers_as_its_vertex_form(tmp_path, name):
    """Every golden run on a pieces document gives the exit code and report,
    apart from `instance_digest`, of the same map in vertex_images form: both
    forms number the vertices as the file does."""
    paths = []
    for form, doc in zip(("pieces", "vertex_images"), TWINS[name]):
        paths.append(tmp_path / f"{form}.json")
        save_document(paths[-1], doc)
    runs = [[command, *flags] for command, flags in RUNS.values()]
    runs += [
        [command, "--at=" + ",".join(map(format_rational, point))]
        for point in query_points(TWINS[name][1]).values()
        for command in ("degree", "fibers")
    ]
    differing = [
        run
        for run in runs
        if _report([run[0], str(paths[0]), *run[1:]]) != _report([run[0], str(paths[1]), *run[1:]])
    ]
    assert differing == []


# Recorded at the commit before the properness probe moved to the simplex
# frame; the oracle-open entries at the commit before the openness oracle
# and the branch set moved to integer image frames; the degree and fibers
# entries at the commit before face-image membership moved to per-face
# boxes and image frames. The 40 entries of the six pieces documents whose
# vertices are not in first-appearance order were written again when the
# pieces form stopped renumbering vertices; each now equals its
# vertex_images twin's run (`test_pieces_form_answers_as_its_vertex_form`).
# The graph entries were recorded at the commit before the component graph
# compared pieces at their vertices instead of by their matrices.
GOLDEN = {
    "identity-d1-s0-vertex_images validate": "45d8e262783be1b8",
    "identity-d1-s0-vertex_images whyburn": "08c57e6a23a5f6d9",
    "identity-d1-s0-vertex_images branch-set": "f3de3ba3aaa9d910",
    "identity-d1-s0-vertex_images graph": "7c799208021951e8",
    "identity-d1-s0-vertex_images check-open": "df02ec8dcbf3610e",
    "identity-d1-s0-vertex_images oracle-open": "30e4bc521390decc",
    "identity-d1-s0-vertex_images oracle-open:s7-p9-d23": "656f348e769d294e",
    "identity-d1-s0-vertex_images degree@vertex": "afb03180713a7060",
    "identity-d1-s0-vertex_images fibers@vertex": "4c080a39b40b4b56",
    "identity-d1-s0-vertex_images degree@face": "7f8b66392f8f4ee6",
    "identity-d1-s0-vertex_images fibers@face": "3beb84562ac4040a",
    "identity-d1-s0-vertex_images degree@cell": "0c92e6aeb6f3aa2c",
    "identity-d1-s0-vertex_images fibers@cell": "588558c0884b8b28",
    "identity-d1-s0-vertex_images degree@boundary": "7e84cf06c48ee341",
    "identity-d1-s0-vertex_images fibers@boundary": "7beabbd53929dd07",
    "identity-d1-s0-vertex_images degree@outside": "d6cc06f6f9da4067",
    "identity-d1-s0-vertex_images fibers@outside": "c0108bee25c4baf8",
    "identity-d1-s1-pieces validate": "7174e1b749dd483c",
    "identity-d1-s1-pieces whyburn": "0f97baf532a2e5c2",
    "identity-d1-s1-pieces branch-set": "8876c4bf5936e8b6",
    "identity-d1-s1-pieces graph": "45eea6637b26ba8b",
    "identity-d1-s1-pieces check-open": "b12f7de7540d909a",
    "identity-d1-s1-pieces oracle-open": "a499b65195608d69",
    "identity-d1-s1-pieces oracle-open:s7-p9-d23": "a6350caf8e4f03e7",
    "identity-d1-s1-pieces degree@vertex": "69d72ae1f67ea284",
    "identity-d1-s1-pieces fibers@vertex": "c03dcb580bb609f9",
    "identity-d1-s1-pieces degree@face": "6a014553202890c3",
    "identity-d1-s1-pieces fibers@face": "0011fdc8f142445d",
    "identity-d1-s1-pieces degree@cell": "0f0ddf3f33fc1be1",
    "identity-d1-s1-pieces fibers@cell": "74c10ac2ad1424cd",
    "identity-d1-s1-pieces degree@boundary": "a7c52d790174a4e5",
    "identity-d1-s1-pieces fibers@boundary": "96167f97cd02f00a",
    "identity-d1-s1-pieces degree@outside": "de0972ab286e75be",
    "identity-d1-s1-pieces fibers@outside": "c2e668ec1cbb2992",
    "identity-d2-s0-vertex_images validate": "2cf1fde2cf5444a5",
    "identity-d2-s0-vertex_images whyburn": "53477cb965082c84",
    "identity-d2-s0-vertex_images branch-set": "bd54fc24ebca8c70",
    "identity-d2-s0-vertex_images graph": "43ab5129ff918ac6",
    "identity-d2-s0-vertex_images check-open": "b9128303e5c53bd0",
    "identity-d2-s0-vertex_images oracle-open": "51916c574de31ba7",
    "identity-d2-s0-vertex_images oracle-open:s7-p9-d23": "95a7de7c3b778353",
    "identity-d2-s0-vertex_images degree@vertex": "b0b2b2bbfe1cfa87",
    "identity-d2-s0-vertex_images fibers@vertex": "b49beb96557ed191",
    "identity-d2-s0-vertex_images degree@face": "4526f46162698a86",
    "identity-d2-s0-vertex_images fibers@face": "5cee3b0bdf3419ed",
    "identity-d2-s0-vertex_images degree@cell": "fcaa80dc50e4a163",
    "identity-d2-s0-vertex_images fibers@cell": "950c6b909cf065b4",
    "identity-d2-s0-vertex_images degree@boundary": "a85ed546453bcb8a",
    "identity-d2-s0-vertex_images fibers@boundary": "d6aa51012de0bcf2",
    "identity-d2-s0-vertex_images degree@outside": "e24054b08076963e",
    "identity-d2-s0-vertex_images fibers@outside": "dc4adbabe0af3cd8",
    "identity-d2-s1-pieces validate": "6c2f24cd0679f376",
    "identity-d2-s1-pieces whyburn": "97b20a1a051202e3",
    "identity-d2-s1-pieces branch-set": "cd1d37fa815ed353",
    "identity-d2-s1-pieces graph": "36750a785c4a1b01",
    "identity-d2-s1-pieces check-open": "94c636a5938c1ca8",
    "identity-d2-s1-pieces oracle-open": "a7c5fda45a619197",
    "identity-d2-s1-pieces oracle-open:s7-p9-d23": "fce1efa173d7e94a",
    "identity-d2-s1-pieces degree@vertex": "ebfc0e3e918f79c6",
    "identity-d2-s1-pieces fibers@vertex": "1a746c942d1bfd5d",
    "identity-d2-s1-pieces degree@face": "96606e80581893f6",
    "identity-d2-s1-pieces fibers@face": "9210ddfbd8ed2075",
    "identity-d2-s1-pieces degree@cell": "4f6c9e281a053f71",
    "identity-d2-s1-pieces fibers@cell": "f5b63296ba0e7372",
    "identity-d2-s1-pieces degree@boundary": "a2eec9c06b3ae87a",
    "identity-d2-s1-pieces fibers@boundary": "5ae22db178d07764",
    "identity-d2-s1-pieces degree@outside": "9971701f9b9c3c3d",
    "identity-d2-s1-pieces fibers@outside": "72662610aa70c6f4",
    "identity-d3-s0-vertex_images validate": "d589df26e13a0d17",
    "identity-d3-s0-vertex_images whyburn": "73455a20ca8a5cbb",
    "identity-d3-s0-vertex_images branch-set": "7a83e8bb936a18e0",
    "identity-d3-s0-vertex_images graph": "c7b1698d2ed21dc9",
    "identity-d3-s0-vertex_images check-open": "51892ef502a7455c",
    "identity-d3-s0-vertex_images oracle-open": "f9934ebdeb146da6",
    "identity-d3-s0-vertex_images oracle-open:s7-p9-d23": "3e2277d95460c97a",
    "identity-d3-s0-vertex_images degree@vertex": "f585645ae17ee41a",
    "identity-d3-s0-vertex_images fibers@vertex": "220edc7ffd851c1b",
    "identity-d3-s0-vertex_images degree@face": "1990fb748e59032b",
    "identity-d3-s0-vertex_images fibers@face": "5089b5559ce96d65",
    "identity-d3-s0-vertex_images degree@cell": "ac38527bece6b497",
    "identity-d3-s0-vertex_images fibers@cell": "14e95267ac4d7953",
    "identity-d3-s0-vertex_images degree@boundary": "f585645ae17ee41a",
    "identity-d3-s0-vertex_images fibers@boundary": "6f3360a4339ebd0d",
    "identity-d3-s0-vertex_images degree@outside": "52dba1ca7c089812",
    "identity-d3-s0-vertex_images fibers@outside": "3a259d867496f5a0",
    "fold1d-d1-s0-vertex_images validate": "713f37fb524931a3",
    "fold1d-d1-s0-vertex_images whyburn": "05a56a7cfc7fabf4",
    "fold1d-d1-s0-vertex_images branch-set": "e08c4f18acd67cc6",
    "fold1d-d1-s0-vertex_images graph": "9eab58e9eb99d341",
    "fold1d-d1-s0-vertex_images check-open": "3b4db93d94166e6b",
    "fold1d-d1-s0-vertex_images oracle-open": "75150dcacf0b3bae",
    "fold1d-d1-s0-vertex_images oracle-open:s7-p9-d23": "a6a7e6ef301e813f",
    "fold1d-d1-s0-vertex_images degree@vertex": "f1cf54641bae78de",
    "fold1d-d1-s0-vertex_images fibers@vertex": "e1631ae0e3cebe7b",
    "fold1d-d1-s0-vertex_images degree@face": "f1cf54641bae78de",
    "fold1d-d1-s0-vertex_images fibers@face": "e1631ae0e3cebe7b",
    "fold1d-d1-s0-vertex_images degree@cell": "ba69041597817634",
    "fold1d-d1-s0-vertex_images fibers@cell": "35e6d348e3bba0c6",
    "fold1d-d1-s0-vertex_images degree@boundary": "8139225cf22ee051",
    "fold1d-d1-s0-vertex_images fibers@boundary": "1fcab8daf5c8ed62",
    "fold1d-d1-s0-vertex_images degree@outside": "6d0bae0383ed2941",
    "fold1d-d1-s0-vertex_images fibers@outside": "8ba4d46809f0a7d0",
    "fold1d-d1-s1-pieces validate": "23a5713b78c9829c",
    "fold1d-d1-s1-pieces whyburn": "300bdcb5a85d637a",
    "fold1d-d1-s1-pieces branch-set": "c8d79cba8fdd54ba",
    "fold1d-d1-s1-pieces graph": "5b3bbf9b42bde502",
    "fold1d-d1-s1-pieces check-open": "c576b80700d7e85a",
    "fold1d-d1-s1-pieces oracle-open": "bb9650f8d0b786e3",
    "fold1d-d1-s1-pieces oracle-open:s7-p9-d23": "63de00b550e60c2c",
    "fold1d-d1-s1-pieces degree@vertex": "6c6833cdd3221caa",
    "fold1d-d1-s1-pieces fibers@vertex": "4bd86172100f9ebd",
    "fold1d-d1-s1-pieces degree@face": "6c6833cdd3221caa",
    "fold1d-d1-s1-pieces fibers@face": "4bd86172100f9ebd",
    "fold1d-d1-s1-pieces degree@cell": "0777087d350f290c",
    "fold1d-d1-s1-pieces fibers@cell": "d05dbd9749d7bcad",
    "fold1d-d1-s1-pieces degree@boundary": "24e7b8bd4dfaa0d1",
    "fold1d-d1-s1-pieces fibers@boundary": "83e2ea1c73f0dc09",
    "fold1d-d1-s1-pieces degree@outside": "0bac33469c0d6e7f",
    "fold1d-d1-s1-pieces fibers@outside": "41304800932c3000",
    "interior_fold1d-d1-s0-vertex_images validate": "1ab3334149846f44",
    "interior_fold1d-d1-s0-vertex_images whyburn": "d49b591cc3c82bdb",
    "interior_fold1d-d1-s0-vertex_images branch-set": "b19c69b02acddf91",
    "interior_fold1d-d1-s0-vertex_images graph": "38597acb36672fe3",
    "interior_fold1d-d1-s0-vertex_images check-open": "99b88f824b1462dc",
    "interior_fold1d-d1-s0-vertex_images oracle-open": "9c4395f15dba0dd8",
    "interior_fold1d-d1-s0-vertex_images oracle-open:s7-p9-d23": "400abe36c52b261b",
    "interior_fold1d-d1-s0-vertex_images degree@vertex": "3d973bd869e85da9",
    "interior_fold1d-d1-s0-vertex_images fibers@vertex": "9e1547a3cbea92b4",
    "interior_fold1d-d1-s0-vertex_images degree@face": "6049e31fb48046d2",
    "interior_fold1d-d1-s0-vertex_images fibers@face": "f07a61b96a1c7278",
    "interior_fold1d-d1-s0-vertex_images degree@cell": "a962a32312690c6c",
    "interior_fold1d-d1-s0-vertex_images fibers@cell": "8942b145f2a6dda2",
    "interior_fold1d-d1-s0-vertex_images degree@boundary": "9011e5601848945a",
    "interior_fold1d-d1-s0-vertex_images fibers@boundary": "b00fcb218a8aa59c",
    "interior_fold1d-d1-s0-vertex_images degree@outside": "67c51ea86ff060af",
    "interior_fold1d-d1-s0-vertex_images fibers@outside": "33a8812b2dddcf7d",
    "interior_fold1d-d1-s1-pieces validate": "b3f68b7011dc3c20",
    "interior_fold1d-d1-s1-pieces whyburn": "f772adb4eee4ea8f",
    "interior_fold1d-d1-s1-pieces branch-set": "7f4ad9b9ab5250c5",
    "interior_fold1d-d1-s1-pieces graph": "b7308eb13a04a5e4",
    "interior_fold1d-d1-s1-pieces check-open": "9c2dc1857f760566",
    "interior_fold1d-d1-s1-pieces oracle-open": "8433524f33a4a2ba",
    "interior_fold1d-d1-s1-pieces oracle-open:s7-p9-d23": "578debf60b7c95ec",
    "interior_fold1d-d1-s1-pieces degree@vertex": "fc921c0f7404ab8c",
    "interior_fold1d-d1-s1-pieces fibers@vertex": "50e5574527c9299e",
    "interior_fold1d-d1-s1-pieces degree@face": "654cd7d608942f12",
    "interior_fold1d-d1-s1-pieces fibers@face": "eda42f66219152b4",
    "interior_fold1d-d1-s1-pieces degree@cell": "19889a9a80a70abf",
    "interior_fold1d-d1-s1-pieces fibers@cell": "7ed37a67ff0a888a",
    "interior_fold1d-d1-s1-pieces degree@boundary": "3212ec0f7a0e4d40",
    "interior_fold1d-d1-s1-pieces fibers@boundary": "ac23cf812a439341",
    "interior_fold1d-d1-s1-pieces degree@outside": "b33324c7c93e75d7",
    "interior_fold1d-d1-s1-pieces fibers@outside": "8658856f30fcefd8",
    "doubling2d-d2-s0-vertex_images validate": "a0d23dfbe1ca8c63",
    "doubling2d-d2-s0-vertex_images whyburn": "1fb3387eef84551f",
    "doubling2d-d2-s0-vertex_images branch-set": "ffbf939eda57b4e0",
    "doubling2d-d2-s0-vertex_images graph": "7c74390d8568497f",
    "doubling2d-d2-s0-vertex_images check-open": "f1471f2d3723f741",
    "doubling2d-d2-s0-vertex_images oracle-open": "6700c6e2518d3ebe",
    "doubling2d-d2-s0-vertex_images oracle-open:s7-p9-d23": "86925ebcbb96cdca",
    "doubling2d-d2-s0-vertex_images degree@vertex": "988f4e0062e402e1",
    "doubling2d-d2-s0-vertex_images fibers@vertex": "7d433c573b011078",
    "doubling2d-d2-s0-vertex_images degree@face": "0ebbfba1e7a33b96",
    "doubling2d-d2-s0-vertex_images fibers@face": "f54b596761a6972a",
    "doubling2d-d2-s0-vertex_images degree@cell": "f1979ab4efb1fa16",
    "doubling2d-d2-s0-vertex_images fibers@cell": "9b10ece73155a167",
    "doubling2d-d2-s0-vertex_images degree@boundary": "32fbb0808a52b0a1",
    "doubling2d-d2-s0-vertex_images fibers@boundary": "08ed71678028fb0c",
    "doubling2d-d2-s0-vertex_images degree@outside": "84afd1e2b9f5cd4e",
    "doubling2d-d2-s0-vertex_images fibers@outside": "1f0a2f391d7c9a6d",
    "doubling2d-d2-s1-pieces validate": "0a3189f310839ac3",
    "doubling2d-d2-s1-pieces whyburn": "583f7b2289fe903a",
    "doubling2d-d2-s1-pieces branch-set": "c83ce937a31b5f49",
    "doubling2d-d2-s1-pieces graph": "67811848acbc898f",
    "doubling2d-d2-s1-pieces check-open": "9b7a5204df94dedc",
    "doubling2d-d2-s1-pieces oracle-open": "bd20d29653d7ccba",
    "doubling2d-d2-s1-pieces oracle-open:s7-p9-d23": "af908fed24afaf9b",
    "doubling2d-d2-s1-pieces degree@vertex": "eaafe2d589147103",
    "doubling2d-d2-s1-pieces fibers@vertex": "d3af5736220b1eb8",
    "doubling2d-d2-s1-pieces degree@face": "69a126b58085c828",
    "doubling2d-d2-s1-pieces fibers@face": "3e4b2451691ed623",
    "doubling2d-d2-s1-pieces degree@cell": "e1895a0267f988e9",
    "doubling2d-d2-s1-pieces fibers@cell": "04661a9c30c3ed71",
    "doubling2d-d2-s1-pieces degree@boundary": "72f01d1197340085",
    "doubling2d-d2-s1-pieces fibers@boundary": "0fbb7282ecc02b53",
    "doubling2d-d2-s1-pieces degree@outside": "06c5e773533428de",
    "doubling2d-d2-s1-pieces fibers@outside": "5ad78507a43cffb1",
    "shear-d2-s0-vertex_images validate": "9cd9acec01d9b1d9",
    "shear-d2-s0-vertex_images whyburn": "5e76a7872518358c",
    "shear-d2-s0-vertex_images branch-set": "8bdb04433b33860d",
    "shear-d2-s0-vertex_images graph": "baf2d9ce99778224",
    "shear-d2-s0-vertex_images check-open": "a0ac243907ffc775",
    "shear-d2-s0-vertex_images oracle-open": "a0924f714a16b3d1",
    "shear-d2-s0-vertex_images oracle-open:s7-p9-d23": "53867b84fe9f4788",
    "shear-d2-s0-vertex_images degree@vertex": "56ee9709d707973f",
    "shear-d2-s0-vertex_images fibers@vertex": "34d3fb9b077eae78",
    "shear-d2-s0-vertex_images degree@cell": "08fe480b3696777d",
    "shear-d2-s0-vertex_images fibers@cell": "bc8ea2ffdbb955a1",
    "shear-d2-s0-vertex_images degree@boundary": "56ee9709d707973f",
    "shear-d2-s0-vertex_images fibers@boundary": "0d28919ad9b2ad46",
    "shear-d2-s0-vertex_images degree@outside": "d88415c5423a32e0",
    "shear-d2-s0-vertex_images fibers@outside": "6c410268cdf86f48",
    "shear-d2-s1-pieces validate": "9b376ce6c2e5281a",
    "shear-d2-s1-pieces whyburn": "0a6d19454bfb15cf",
    "shear-d2-s1-pieces branch-set": "71724285018abad3",
    "shear-d2-s1-pieces graph": "24882bf4b0330ad7",
    "shear-d2-s1-pieces check-open": "a32f5f24fbf80214",
    "shear-d2-s1-pieces oracle-open": "e13f0a5d65b6a89e",
    "shear-d2-s1-pieces oracle-open:s7-p9-d23": "3247f2bb6d864647",
    "shear-d2-s1-pieces degree@vertex": "f33d529ce5234082",
    "shear-d2-s1-pieces fibers@vertex": "bbfc74aedf399bd4",
    "shear-d2-s1-pieces degree@cell": "075048f283d95005",
    "shear-d2-s1-pieces fibers@cell": "24f6e3e0604af89b",
    "shear-d2-s1-pieces degree@boundary": "f33d529ce5234082",
    "shear-d2-s1-pieces fibers@boundary": "862c52cde01f85e5",
    "shear-d2-s1-pieces degree@outside": "b196c7039bc09944",
    "shear-d2-s1-pieces fibers@outside": "84bedde0d0075a6e",
    "singular_cell-d1-s0-vertex_images validate": "7d7e6c351ab6191a",
    "singular_cell-d1-s0-vertex_images whyburn": "931013d88154fe20",
    "singular_cell-d1-s0-vertex_images branch-set": "4cafb8d00990129a",
    "singular_cell-d1-s0-vertex_images graph": "22e811aac3a31925",
    "singular_cell-d1-s0-vertex_images check-open": "a094028bd4aac968",
    "singular_cell-d1-s0-vertex_images oracle-open": "87e5f99e65ad547f",
    "singular_cell-d1-s0-vertex_images oracle-open:s7-p9-d23": "87e5f99e65ad547f",
    "singular_cell-d1-s0-vertex_images degree@vertex": "bfce223e1a1cedf5",
    "singular_cell-d1-s0-vertex_images fibers@vertex": "04eb7e24ef978a3c",
    "singular_cell-d1-s0-vertex_images degree@face": "195608dd3ad7b67b",
    "singular_cell-d1-s0-vertex_images fibers@face": "cef60941d602982f",
    "singular_cell-d1-s0-vertex_images degree@cell": "bfce223e1a1cedf5",
    "singular_cell-d1-s0-vertex_images fibers@cell": "04eb7e24ef978a3c",
    "singular_cell-d1-s0-vertex_images degree@boundary": "bfce223e1a1cedf5",
    "singular_cell-d1-s0-vertex_images fibers@boundary": "04eb7e24ef978a3c",
    "singular_cell-d1-s0-vertex_images degree@outside": "25917148071da032",
    "singular_cell-d1-s0-vertex_images fibers@outside": "3f91015e284580b1",
    "singular_cell-d1-s1-pieces validate": "91c3b392a2e66fa0",
    "singular_cell-d1-s1-pieces whyburn": "16e3bed620fd08a2",
    "singular_cell-d1-s1-pieces branch-set": "f09de3e45ba38f1a",
    "singular_cell-d1-s1-pieces graph": "c2ed4d3c31ec4ebb",
    "singular_cell-d1-s1-pieces check-open": "e4b899a056a267a1",
    "singular_cell-d1-s1-pieces oracle-open": "285deab4e5514d7c",
    "singular_cell-d1-s1-pieces oracle-open:s7-p9-d23": "285deab4e5514d7c",
    "singular_cell-d1-s1-pieces degree@vertex": "b98642fef00ee5a4",
    "singular_cell-d1-s1-pieces fibers@vertex": "37f2a7df8d7bc07f",
    "singular_cell-d1-s1-pieces degree@face": "d8fdc137cf382b68",
    "singular_cell-d1-s1-pieces fibers@face": "b24ec43aff1882a2",
    "singular_cell-d1-s1-pieces degree@cell": "a1671013be7006fb",
    "singular_cell-d1-s1-pieces fibers@cell": "6e772a46b05773a7",
    "singular_cell-d1-s1-pieces degree@boundary": "0e4da827f4c30863",
    "singular_cell-d1-s1-pieces fibers@boundary": "25cc03aeecdc8cb6",
    "singular_cell-d1-s1-pieces degree@outside": "f97303c64c6fc45b",
    "singular_cell-d1-s1-pieces fibers@outside": "9b8b5d2ad8d82791",
    "singular_cell-d2-s0-vertex_images validate": "89c7617a6e4488ab",
    "singular_cell-d2-s0-vertex_images whyburn": "edc475c0581b01dd",
    "singular_cell-d2-s0-vertex_images branch-set": "4b6f76b59e7ce92b",
    "singular_cell-d2-s0-vertex_images graph": "0338a18a5c42794f",
    "singular_cell-d2-s0-vertex_images check-open": "357b24e215d6d0cd",
    "singular_cell-d2-s0-vertex_images oracle-open": "d9b809f733107aeb",
    "singular_cell-d2-s0-vertex_images oracle-open:s7-p9-d23": "d9b809f733107aeb",
    "singular_cell-d2-s0-vertex_images degree@vertex": "00d3e3199d50e8df",
    "singular_cell-d2-s0-vertex_images fibers@vertex": "9ab7f5fff7e4dce4",
    "singular_cell-d2-s0-vertex_images degree@face": "b21b11813d89bf88",
    "singular_cell-d2-s0-vertex_images fibers@face": "4a831d928dea125c",
    "singular_cell-d2-s0-vertex_images degree@cell": "a5eb187dff292cf6",
    "singular_cell-d2-s0-vertex_images fibers@cell": "c6bf5db75bea8938",
    "singular_cell-d2-s0-vertex_images degree@boundary": "37257bca55f66b06",
    "singular_cell-d2-s0-vertex_images fibers@boundary": "2ad9047fe7d61ffa",
    "singular_cell-d2-s0-vertex_images degree@outside": "1cb3d6c41b41baaf",
    "singular_cell-d2-s0-vertex_images fibers@outside": "433c8191dcc64256",
    "singular_cell-d2-s1-pieces validate": "3dcdce96937b6555",
    "singular_cell-d2-s1-pieces whyburn": "27adbc5d027543aa",
    "singular_cell-d2-s1-pieces branch-set": "9c1b74a1f0acd89e",
    "singular_cell-d2-s1-pieces graph": "1382485094cf7eb0",
    "singular_cell-d2-s1-pieces check-open": "669f954df8ef5fd0",
    "singular_cell-d2-s1-pieces oracle-open": "6e2ffe8e794a5815",
    "singular_cell-d2-s1-pieces oracle-open:s7-p9-d23": "6e2ffe8e794a5815",
    "singular_cell-d2-s1-pieces degree@vertex": "5d48106491dad7a8",
    "singular_cell-d2-s1-pieces fibers@vertex": "f6b9dfcf185ab40a",
    "singular_cell-d2-s1-pieces degree@face": "1f5d16c229fd2c84",
    "singular_cell-d2-s1-pieces fibers@face": "b9d9b1225485fd41",
    "singular_cell-d2-s1-pieces degree@cell": "dd24c012f91d3281",
    "singular_cell-d2-s1-pieces fibers@cell": "869309cb5c6dc550",
    "singular_cell-d2-s1-pieces degree@boundary": "2a7938ef5118c33c",
    "singular_cell-d2-s1-pieces fibers@boundary": "49e398e56154d0d5",
    "singular_cell-d2-s1-pieces degree@outside": "b282b72db7c52aeb",
    "singular_cell-d2-s1-pieces fibers@outside": "effa2afd519bc0be",
    "singular_cell-d3-s1-pieces validate": "77b7a913a528a4a2",
    "singular_cell-d3-s1-pieces whyburn": "d5b779e4015c31ca",
    "singular_cell-d3-s1-pieces branch-set": "b4b84712b55787ff",
    "singular_cell-d3-s1-pieces graph": "b236d1d10a90a4ce",
    "singular_cell-d3-s1-pieces check-open": "013e856f1e95439d",
    "singular_cell-d3-s1-pieces oracle-open": "be36312e22d4d720",
    "singular_cell-d3-s1-pieces oracle-open:s7-p9-d23": "be36312e22d4d720",
    "singular_cell-d3-s1-pieces degree@vertex": "007823de7204f7fc",
    "singular_cell-d3-s1-pieces fibers@vertex": "93316e518c504b02",
    "singular_cell-d3-s1-pieces degree@face": "f2a403f803ed7066",
    "singular_cell-d3-s1-pieces fibers@face": "9548a2449301a692",
    "singular_cell-d3-s1-pieces degree@cell": "a940c85fd6a88e25",
    "singular_cell-d3-s1-pieces fibers@cell": "23be141a1a9ce856",
    "singular_cell-d3-s1-pieces degree@boundary": "007823de7204f7fc",
    "singular_cell-d3-s1-pieces fibers@boundary": "f524c7d82b5ae853",
    "singular_cell-d3-s1-pieces degree@outside": "a64e86b0d7595482",
    "singular_cell-d3-s1-pieces fibers@outside": "af254bb2d6a54eb8",
    "random_orientation_preserving-d1-s0-vertex_images validate": "6783e5e0ccfdfa3e",
    "random_orientation_preserving-d1-s0-vertex_images whyburn": "5725c194abb95026",
    "random_orientation_preserving-d1-s0-vertex_images branch-set": "b65a2abe861daedd",
    "random_orientation_preserving-d1-s0-vertex_images graph": "f222ecd6b4724c5f",
    "random_orientation_preserving-d1-s0-vertex_images check-open": "05850e7b9aa3c065",
    "random_orientation_preserving-d1-s0-vertex_images oracle-open": "9f747359032f0012",
    "random_orientation_preserving-d1-s0-vertex_images oracle-open:s7-p9-d23": "4d059cc67e07caab",
    "random_orientation_preserving-d1-s0-vertex_images degree@vertex": "14c84b993195f776",
    "random_orientation_preserving-d1-s0-vertex_images fibers@vertex": "d66b30f36249e856",
    "random_orientation_preserving-d1-s0-vertex_images degree@face": "094f522564a34871",
    "random_orientation_preserving-d1-s0-vertex_images fibers@face": "85216806b82d42f8",
    "random_orientation_preserving-d1-s0-vertex_images degree@cell": "d25c0b5308ebef36",
    "random_orientation_preserving-d1-s0-vertex_images fibers@cell": "b79bec91de171d77",
    "random_orientation_preserving-d1-s0-vertex_images degree@boundary": "4cbfdd2c82116ef3",
    "random_orientation_preserving-d1-s0-vertex_images fibers@boundary": "7cb9622d0d653177",
    "random_orientation_preserving-d1-s0-vertex_images degree@outside": "617656883e51502c",
    "random_orientation_preserving-d1-s0-vertex_images fibers@outside": "c2b17b50b694e12e",
    "random_orientation_preserving-d1-s1-pieces validate": "339cd67a4a9beef3",
    "random_orientation_preserving-d1-s1-pieces whyburn": "389334cb6deb2476",
    "random_orientation_preserving-d1-s1-pieces branch-set": "8dc7cac85d6ad0a6",
    "random_orientation_preserving-d1-s1-pieces graph": "5416a87fefa3e22f",
    "random_orientation_preserving-d1-s1-pieces check-open": "466225fcad829949",
    "random_orientation_preserving-d1-s1-pieces oracle-open": "a49c759a75a4edc5",
    "random_orientation_preserving-d1-s1-pieces oracle-open:s7-p9-d23": "9bbf95d831f267ae",
    "random_orientation_preserving-d1-s1-pieces degree@vertex": "99fee31dfdd4d60e",
    "random_orientation_preserving-d1-s1-pieces fibers@vertex": "86bdfb9e7aa79be5",
    "random_orientation_preserving-d1-s1-pieces degree@face": "e1caf67fe52443e7",
    "random_orientation_preserving-d1-s1-pieces fibers@face": "8788f26d5299281c",
    "random_orientation_preserving-d1-s1-pieces degree@cell": "258fa87e5bf5004e",
    "random_orientation_preserving-d1-s1-pieces fibers@cell": "ed818867eeb1903c",
    "random_orientation_preserving-d1-s1-pieces degree@boundary": "9ef4e98eb1afb69d",
    "random_orientation_preserving-d1-s1-pieces fibers@boundary": "efe1908bf02d3630",
    "random_orientation_preserving-d1-s1-pieces degree@outside": "5439f71b9df67d79",
    "random_orientation_preserving-d1-s1-pieces fibers@outside": "179699446a584b46",
    "random_orientation_preserving-d2-s0-vertex_images validate": "be723a9e487381ed",
    "random_orientation_preserving-d2-s0-vertex_images whyburn": "8d002aa73d4b950a",
    "random_orientation_preserving-d2-s0-vertex_images branch-set": "d0594b0ceeeec3ce",
    "random_orientation_preserving-d2-s0-vertex_images graph": "94fb917e2d65f340",
    "random_orientation_preserving-d2-s0-vertex_images check-open": "3dd3f1b07921cfd2",
    "random_orientation_preserving-d2-s0-vertex_images oracle-open": "eb4c5466ce4a4954",
    "random_orientation_preserving-d2-s0-vertex_images oracle-open:s7-p9-d23": "abea1344466c6390",
    "random_orientation_preserving-d2-s0-vertex_images degree@vertex": "81bfcb1977987b9d",
    "random_orientation_preserving-d2-s0-vertex_images fibers@vertex": "fc150829c7337a56",
    "random_orientation_preserving-d2-s0-vertex_images degree@face": "ae974bd909013f94",
    "random_orientation_preserving-d2-s0-vertex_images fibers@face": "ff98846895020c2c",
    "random_orientation_preserving-d2-s0-vertex_images degree@cell": "bbb2ddc688f88dbe",
    "random_orientation_preserving-d2-s0-vertex_images fibers@cell": "c263908550053244",
    "random_orientation_preserving-d2-s0-vertex_images degree@boundary": "4b0ce32677b5a96a",
    "random_orientation_preserving-d2-s0-vertex_images fibers@boundary": "e2815021bd5f101b",
    "random_orientation_preserving-d2-s0-vertex_images degree@outside": "316f9953dc09dc9a",
    "random_orientation_preserving-d2-s0-vertex_images fibers@outside": "4227007b87f4e4c4",
    "random_orientation_preserving-d2-s1-pieces validate": "ca1f17b751c9ab28",
    "random_orientation_preserving-d2-s1-pieces whyburn": "78a91a01f1219b53",
    "random_orientation_preserving-d2-s1-pieces branch-set": "dabdd859919a9c09",
    "random_orientation_preserving-d2-s1-pieces graph": "9ee2afd40afe63e6",
    "random_orientation_preserving-d2-s1-pieces check-open": "92fa62bf8955322b",
    "random_orientation_preserving-d2-s1-pieces oracle-open": "a49da593724b9f80",
    "random_orientation_preserving-d2-s1-pieces oracle-open:s7-p9-d23": "d8c8d66838e80fd1",
    "random_orientation_preserving-d2-s1-pieces degree@vertex": "60fc0cff03634f27",
    "random_orientation_preserving-d2-s1-pieces fibers@vertex": "5c76e2bf19d4e139",
    "random_orientation_preserving-d2-s1-pieces degree@face": "2809e0e8b02a52d1",
    "random_orientation_preserving-d2-s1-pieces fibers@face": "9611a598d2719372",
    "random_orientation_preserving-d2-s1-pieces degree@cell": "632702dbee43945c",
    "random_orientation_preserving-d2-s1-pieces fibers@cell": "2ed9a45de1afcf7b",
    "random_orientation_preserving-d2-s1-pieces degree@boundary": "44f98824c693ab34",
    "random_orientation_preserving-d2-s1-pieces fibers@boundary": "d307185bd7d4706f",
    "random_orientation_preserving-d2-s1-pieces degree@outside": "45cfc65293954864",
    "random_orientation_preserving-d2-s1-pieces fibers@outside": "5d92e8cc5f255814",
    "random_orientation_preserving-d3-s0-vertex_images validate": "88ad6961831957de",
    "random_orientation_preserving-d3-s0-vertex_images whyburn": "ae61d92b8261e968",
    "random_orientation_preserving-d3-s0-vertex_images branch-set": "d37f086f8ebea58b",
    "random_orientation_preserving-d3-s0-vertex_images graph": "0a476baddbbb9046",
    "random_orientation_preserving-d3-s0-vertex_images check-open": "99bdd04f1e30cf7f",
    "random_orientation_preserving-d3-s0-vertex_images oracle-open": "32c68e27d1fd108b",
    "random_orientation_preserving-d3-s0-vertex_images oracle-open:s7-p9-d23": "51eb66f243a05d4a",
    "random_orientation_preserving-d3-s0-vertex_images degree@vertex": "682806ca42928eb0",
    "random_orientation_preserving-d3-s0-vertex_images fibers@vertex": "d3450cd0439cd8fc",
    "random_orientation_preserving-d3-s0-vertex_images degree@face": "e8d8a4439489e21d",
    "random_orientation_preserving-d3-s0-vertex_images fibers@face": "9f811040f700c85f",
    "random_orientation_preserving-d3-s0-vertex_images degree@cell": "6a6fc56d49ec371e",
    "random_orientation_preserving-d3-s0-vertex_images fibers@cell": "80da393875934953",
    "random_orientation_preserving-d3-s0-vertex_images degree@boundary": "03016447a3dfa85e",
    "random_orientation_preserving-d3-s0-vertex_images fibers@boundary": "882e6063e5dd0757",
    "random_orientation_preserving-d3-s0-vertex_images degree@outside": "2163d3f2761029a9",
    "random_orientation_preserving-d3-s0-vertex_images fibers@outside": "a89052ccc99c6045",
    "random_mixed_signs-d1-s0-vertex_images validate": "16aef2d8bf3866ca",
    "random_mixed_signs-d1-s0-vertex_images whyburn": "2ae1742b5c21ccb7",
    "random_mixed_signs-d1-s0-vertex_images branch-set": "b9622bca1c93229e",
    "random_mixed_signs-d1-s0-vertex_images graph": "e34107c4c886592d",
    "random_mixed_signs-d1-s0-vertex_images check-open": "705106fc81b9eb18",
    "random_mixed_signs-d1-s0-vertex_images oracle-open": "a6b288570638c7db",
    "random_mixed_signs-d1-s0-vertex_images oracle-open:s7-p9-d23": "7d7cddadfc36d8f8",
    "random_mixed_signs-d1-s0-vertex_images degree@vertex": "816ecce5b8329302",
    "random_mixed_signs-d1-s0-vertex_images fibers@vertex": "0da58156849d5e5c",
    "random_mixed_signs-d1-s0-vertex_images degree@face": "6cf3f5288abed4e6",
    "random_mixed_signs-d1-s0-vertex_images fibers@face": "2fcc8476b72b419e",
    "random_mixed_signs-d1-s0-vertex_images degree@cell": "e63fd2f3ff73348d",
    "random_mixed_signs-d1-s0-vertex_images fibers@cell": "4b239b6cc1aacd72",
    "random_mixed_signs-d1-s0-vertex_images degree@boundary": "35e70695d70f6e27",
    "random_mixed_signs-d1-s0-vertex_images fibers@boundary": "b6056097d466771f",
    "random_mixed_signs-d1-s0-vertex_images degree@outside": "424d266efc86a98c",
    "random_mixed_signs-d1-s0-vertex_images fibers@outside": "1963c906577e2b09",
    "random_mixed_signs-d1-s1-pieces validate": "100e74b1bcee5a7e",
    "random_mixed_signs-d1-s1-pieces whyburn": "261a2375d13e34ce",
    "random_mixed_signs-d1-s1-pieces branch-set": "ba95fbfd815007a8",
    "random_mixed_signs-d1-s1-pieces graph": "5455d5ef6fa0b1d6",
    "random_mixed_signs-d1-s1-pieces check-open": "2bb709dde263a7b8",
    "random_mixed_signs-d1-s1-pieces oracle-open": "cdff6fd3316e4d95",
    "random_mixed_signs-d1-s1-pieces oracle-open:s7-p9-d23": "872430831f3eff98",
    "random_mixed_signs-d1-s1-pieces degree@vertex": "f367d66941a27445",
    "random_mixed_signs-d1-s1-pieces fibers@vertex": "21b4fdd744907801",
    "random_mixed_signs-d1-s1-pieces degree@face": "97fc214511552911",
    "random_mixed_signs-d1-s1-pieces fibers@face": "e65a5eac9867da75",
    "random_mixed_signs-d1-s1-pieces degree@cell": "e74130df1c84c7f8",
    "random_mixed_signs-d1-s1-pieces fibers@cell": "2df8818c6b487fb5",
    "random_mixed_signs-d1-s1-pieces degree@boundary": "b86d5f5f9a294740",
    "random_mixed_signs-d1-s1-pieces fibers@boundary": "e44e4b58138feeab",
    "random_mixed_signs-d1-s1-pieces degree@outside": "24231d59fe4eef87",
    "random_mixed_signs-d1-s1-pieces fibers@outside": "a374cbfd8bfa639c",
    "random_mixed_signs-d2-s0-vertex_images validate": "9468c8f697236cb1",
    "random_mixed_signs-d2-s0-vertex_images whyburn": "c9446b244bf8e395",
    "random_mixed_signs-d2-s0-vertex_images branch-set": "96b5f66a23295542",
    "random_mixed_signs-d2-s0-vertex_images graph": "4a016efbbfa2cb2a",
    "random_mixed_signs-d2-s0-vertex_images check-open": "ca5b36691d743b80",
    "random_mixed_signs-d2-s0-vertex_images oracle-open": "c74c51accb803d6b",
    "random_mixed_signs-d2-s0-vertex_images oracle-open:s7-p9-d23": "012d74353843d1ac",
    "random_mixed_signs-d2-s0-vertex_images degree@vertex": "f326d3b734fda56b",
    "random_mixed_signs-d2-s0-vertex_images fibers@vertex": "8a17935e089a3cd0",
    "random_mixed_signs-d2-s0-vertex_images degree@face": "853f2c152d37af8c",
    "random_mixed_signs-d2-s0-vertex_images fibers@face": "d2a4153590deb01d",
    "random_mixed_signs-d2-s0-vertex_images degree@cell": "bff61d5e23b0fcd3",
    "random_mixed_signs-d2-s0-vertex_images fibers@cell": "024a2db18cf1f2a6",
    "random_mixed_signs-d2-s0-vertex_images degree@boundary": "50dff0b49e8d9cf2",
    "random_mixed_signs-d2-s0-vertex_images fibers@boundary": "1d0346cb570c8e3d",
    "random_mixed_signs-d2-s0-vertex_images degree@outside": "d787588ca2253fc3",
    "random_mixed_signs-d2-s0-vertex_images fibers@outside": "e887c9febf8bee2c",
    "random_mixed_signs-d2-s1-pieces validate": "06e575735699b353",
    "random_mixed_signs-d2-s1-pieces whyburn": "7cb89aeeecca20e5",
    "random_mixed_signs-d2-s1-pieces branch-set": "53c6414f98e90709",
    "random_mixed_signs-d2-s1-pieces graph": "d280c737b1c5d12f",
    "random_mixed_signs-d2-s1-pieces check-open": "eb8f312ef5018f1a",
    "random_mixed_signs-d2-s1-pieces oracle-open": "1ca1f5307b2b00ee",
    "random_mixed_signs-d2-s1-pieces oracle-open:s7-p9-d23": "d0374a1b0d966f14",
    "random_mixed_signs-d2-s1-pieces degree@vertex": "a3019cabfc403ebe",
    "random_mixed_signs-d2-s1-pieces fibers@vertex": "396d9f916aa415ef",
    "random_mixed_signs-d2-s1-pieces degree@face": "aeff3b5141821602",
    "random_mixed_signs-d2-s1-pieces fibers@face": "fca96bb4142cf26c",
    "random_mixed_signs-d2-s1-pieces degree@cell": "a2e1385377779452",
    "random_mixed_signs-d2-s1-pieces fibers@cell": "52662fc087efe6e9",
    "random_mixed_signs-d2-s1-pieces degree@boundary": "d786df3abd99b043",
    "random_mixed_signs-d2-s1-pieces fibers@boundary": "20a25e951811dc5c",
    "random_mixed_signs-d2-s1-pieces degree@outside": "7d24b8feb8b31dd8",
    "random_mixed_signs-d2-s1-pieces fibers@outside": "07fbdc08f12035a7",
    "random_mixed_signs-d3-s1-pieces validate": "3e6ae7cea8b41653",
    "random_mixed_signs-d3-s1-pieces whyburn": "d0467f75530d44c8",
    "random_mixed_signs-d3-s1-pieces branch-set": "89fbc615744af29b",
    "random_mixed_signs-d3-s1-pieces graph": "d96f3630bb37251f",
    "random_mixed_signs-d3-s1-pieces check-open": "e9a989e6381ff255",
    "random_mixed_signs-d3-s1-pieces oracle-open": "895b00fad2836459",
    "random_mixed_signs-d3-s1-pieces oracle-open:s7-p9-d23": "6560be3ab8731f8e",
    "random_mixed_signs-d3-s1-pieces degree@vertex": "03660598380a01d5",
    "random_mixed_signs-d3-s1-pieces fibers@vertex": "b08f840d4def5bda",
    "random_mixed_signs-d3-s1-pieces degree@face": "7c9156b793d0fd83",
    "random_mixed_signs-d3-s1-pieces fibers@face": "4e9e78af7df4e08e",
    "random_mixed_signs-d3-s1-pieces degree@cell": "90a0111d36fa6e55",
    "random_mixed_signs-d3-s1-pieces fibers@cell": "19474a4fac74fc7c",
    "random_mixed_signs-d3-s1-pieces degree@boundary": "0dbc843295943d06",
    "random_mixed_signs-d3-s1-pieces fibers@boundary": "89daa6a6da9544ff",
    "random_mixed_signs-d3-s1-pieces degree@outside": "c66434cb2e307e00",
    "random_mixed_signs-d3-s1-pieces fibers@outside": "f975e5dc927ffa2c",
    "improper-d1-vertex_images validate": "cca65a5e0b908527",
    "improper-d1-vertex_images whyburn": "c5c57e954cb58d11",
    "improper-d1-vertex_images branch-set": "144192ca5d45a4f4",
    "improper-d1-vertex_images graph": "4b2506641aed266a",
    "improper-d1-vertex_images check-open": "a3e5e9fb0b240d24",
    "improper-d1-vertex_images oracle-open": "55eb98495fbeb95b",
    "improper-d1-vertex_images oracle-open:s7-p9-d23": "55eb98495fbeb95b",
    "improper-d1-vertex_images degree@vertex": "d9f63d8898bbcbee",
    "improper-d1-vertex_images fibers@vertex": "80750d5c3ad77eb9",
    "improper-d1-vertex_images degree@cell": "d9f63d8898bbcbee",
    "improper-d1-vertex_images fibers@cell": "80750d5c3ad77eb9",
    "improper-d1-vertex_images degree@boundary": "d9f63d8898bbcbee",
    "improper-d1-vertex_images fibers@boundary": "80750d5c3ad77eb9",
    "improper-d1-vertex_images degree@outside": "d9f63d8898bbcbee",
    "improper-d1-vertex_images fibers@outside": "80750d5c3ad77eb9",
    "improper-d2-vertex_images validate": "a6b86280a678c971",
    "improper-d2-vertex_images whyburn": "d9831bf539e76417",
    "improper-d2-vertex_images branch-set": "a87a4dcbbb492a68",
    "improper-d2-vertex_images graph": "f31fcf86b38f72a1",
    "improper-d2-vertex_images check-open": "9068596828c176c6",
    "improper-d2-vertex_images oracle-open": "4a62ef63370144fe",
    "improper-d2-vertex_images oracle-open:s7-p9-d23": "4a62ef63370144fe",
    "improper-d2-vertex_images degree@vertex": "6685d900b5d21722",
    "improper-d2-vertex_images fibers@vertex": "bfddc467884013c5",
    "improper-d2-vertex_images degree@face": "6685d900b5d21722",
    "improper-d2-vertex_images fibers@face": "bfddc467884013c5",
    "improper-d2-vertex_images degree@cell": "6685d900b5d21722",
    "improper-d2-vertex_images fibers@cell": "bfddc467884013c5",
    "improper-d2-vertex_images degree@boundary": "6685d900b5d21722",
    "improper-d2-vertex_images fibers@boundary": "bfddc467884013c5",
    "improper-d2-vertex_images degree@outside": "6685d900b5d21722",
    "improper-d2-vertex_images fibers@outside": "bfddc467884013c5",
    "improper-d2-pieces validate": "69e57cde7a52d1f7",
    "improper-d2-pieces whyburn": "d9831bf539e76417",
    "improper-d2-pieces branch-set": "a87a4dcbbb492a68",
    "improper-d2-pieces graph": "f31fcf86b38f72a1",
    "improper-d2-pieces check-open": "9068596828c176c6",
    "improper-d2-pieces oracle-open": "4a62ef63370144fe",
    "improper-d2-pieces oracle-open:s7-p9-d23": "4a62ef63370144fe",
    "improper-d2-pieces degree@vertex": "6685d900b5d21722",
    "improper-d2-pieces fibers@vertex": "bfddc467884013c5",
    "improper-d2-pieces degree@face": "6685d900b5d21722",
    "improper-d2-pieces fibers@face": "bfddc467884013c5",
    "improper-d2-pieces degree@cell": "6685d900b5d21722",
    "improper-d2-pieces fibers@cell": "bfddc467884013c5",
    "improper-d2-pieces degree@boundary": "6685d900b5d21722",
    "improper-d2-pieces fibers@boundary": "bfddc467884013c5",
    "improper-d2-pieces degree@outside": "6685d900b5d21722",
    "improper-d2-pieces fibers@outside": "bfddc467884013c5",
    "improper-d3-vertex_images validate": "5f228d4e0049ae3f",
    "improper-d3-vertex_images whyburn": "0d1d3483197ce76e",
    "improper-d3-vertex_images branch-set": "311c25724242de29",
    "improper-d3-vertex_images graph": "ff71917e7f45153c",
    "improper-d3-vertex_images check-open": "dbfaf2cb43ba25ac",
    "improper-d3-vertex_images oracle-open": "af14c97052a1bcec",
    "improper-d3-vertex_images oracle-open:s7-p9-d23": "af14c97052a1bcec",
    "improper-d3-vertex_images degree@vertex": "45c7387784dc98fb",
    "improper-d3-vertex_images fibers@vertex": "0b8dd4e4152d51ef",
    "improper-d3-vertex_images degree@face": "45c7387784dc98fb",
    "improper-d3-vertex_images fibers@face": "0b8dd4e4152d51ef",
    "improper-d3-vertex_images degree@cell": "45c7387784dc98fb",
    "improper-d3-vertex_images fibers@cell": "0b8dd4e4152d51ef",
    "improper-d3-vertex_images degree@boundary": "45c7387784dc98fb",
    "improper-d3-vertex_images fibers@boundary": "0b8dd4e4152d51ef",
    "improper-d3-vertex_images degree@outside": "45c7387784dc98fb",
    "improper-d3-vertex_images fibers@outside": "0b8dd4e4152d51ef",
    "batch check-open --all": "db8453334dfe4565",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted({key.rsplit(" ", 1)[0] for key in GOLDEN} - {"batch check-open"}))
def test_reports_match_golden_digests(digests, name):
    got = {key: value for key, value in digests.items() if key.startswith(f"{name} ")}
    assert got == {key: value for key, value in GOLDEN.items() if key.startswith(f"{name} ")}


def test_batch_report_matches_golden_digest(digests):
    assert digests["batch check-open --all"] == GOLDEN["batch check-open --all"]


def test_golden_table_covers_every_run(digests):
    assert digests.keys() == GOLDEN.keys()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = run_all(Path(tmp))
    print("GOLDEN = {")
    for key, value in table.items():
        print(f"    {json.dumps(key)}: {json.dumps(value)},")
    print("}")
