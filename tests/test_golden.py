"""Golden outputs of the CLI: stdout and exit code, byte for byte.

Every command's report is part of plopen's contract, so a faster or smaller
implementation must leave each one byte-identical. This test is that rule as
a gate. The instances are every generator kind in each of its dimensions,
with seeds 0 and 1 (one of the two in 3-D) and both document forms, plus
hand-written complexes whose cells meet improperly. On each it runs
`validate`, `whyburn`, `branch-set`, `check-open`, and `oracle-open` in two
settings, and it runs `check-open --all` once over a directory of them.
Each run is hashed: SHA-256 of stdout, a newline and the exit code, kept to
its first 16 hex digits in GOLDEN. The set includes `whyburn` rejections at stages 1, 2 and 3
and `validate` reports with `improper_intersection` violations.

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
from plopen.instancefile import plmap_to_document, save_document
from plopen.linalg import format_rational

DIMS = {"fold1d": (1,), "interior_fold1d": (1,), "doubling2d": (2,), "shear": (2,)}
COMMANDS = {
    "validate": [],
    "whyburn": [],
    "branch-set": [],
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
    digests["batch check-open --all"] = _run(["check-open", str(batch), "--all", *COMMANDS["check-open"]])
    return digests


# Recorded at the commit before the properness probe moved to the simplex
# frame; the oracle-open entries at the commit before the openness oracle
# and the branch set moved to integer image frames.
GOLDEN = {
    "identity-d1-s0-vertex_images validate": "45d8e262783be1b8",
    "identity-d1-s0-vertex_images whyburn": "08c57e6a23a5f6d9",
    "identity-d1-s0-vertex_images branch-set": "f3de3ba3aaa9d910",
    "identity-d1-s0-vertex_images check-open": "df02ec8dcbf3610e",
    "identity-d1-s0-vertex_images oracle-open": "30e4bc521390decc",
    "identity-d1-s0-vertex_images oracle-open:s7-p9-d23": "656f348e769d294e",
    "identity-d1-s1-pieces validate": "7174e1b749dd483c",
    "identity-d1-s1-pieces whyburn": "0f97baf532a2e5c2",
    "identity-d1-s1-pieces branch-set": "8876c4bf5936e8b6",
    "identity-d1-s1-pieces check-open": "b12f7de7540d909a",
    "identity-d1-s1-pieces oracle-open": "a499b65195608d69",
    "identity-d1-s1-pieces oracle-open:s7-p9-d23": "a6350caf8e4f03e7",
    "identity-d2-s0-vertex_images validate": "2cf1fde2cf5444a5",
    "identity-d2-s0-vertex_images whyburn": "53477cb965082c84",
    "identity-d2-s0-vertex_images branch-set": "bd54fc24ebca8c70",
    "identity-d2-s0-vertex_images check-open": "b9128303e5c53bd0",
    "identity-d2-s0-vertex_images oracle-open": "51916c574de31ba7",
    "identity-d2-s0-vertex_images oracle-open:s7-p9-d23": "95a7de7c3b778353",
    "identity-d2-s1-pieces validate": "6c2f24cd0679f376",
    "identity-d2-s1-pieces whyburn": "97b20a1a051202e3",
    "identity-d2-s1-pieces branch-set": "cd1d37fa815ed353",
    "identity-d2-s1-pieces check-open": "94c636a5938c1ca8",
    "identity-d2-s1-pieces oracle-open": "a7c5fda45a619197",
    "identity-d2-s1-pieces oracle-open:s7-p9-d23": "fce1efa173d7e94a",
    "identity-d3-s0-vertex_images validate": "d589df26e13a0d17",
    "identity-d3-s0-vertex_images whyburn": "73455a20ca8a5cbb",
    "identity-d3-s0-vertex_images branch-set": "7a83e8bb936a18e0",
    "identity-d3-s0-vertex_images check-open": "51892ef502a7455c",
    "identity-d3-s0-vertex_images oracle-open": "f9934ebdeb146da6",
    "identity-d3-s0-vertex_images oracle-open:s7-p9-d23": "3e2277d95460c97a",
    "fold1d-d1-s0-vertex_images validate": "713f37fb524931a3",
    "fold1d-d1-s0-vertex_images whyburn": "05a56a7cfc7fabf4",
    "fold1d-d1-s0-vertex_images branch-set": "e08c4f18acd67cc6",
    "fold1d-d1-s0-vertex_images check-open": "3b4db93d94166e6b",
    "fold1d-d1-s0-vertex_images oracle-open": "75150dcacf0b3bae",
    "fold1d-d1-s0-vertex_images oracle-open:s7-p9-d23": "a6a7e6ef301e813f",
    "fold1d-d1-s1-pieces validate": "23a5713b78c9829c",
    "fold1d-d1-s1-pieces whyburn": "300bdcb5a85d637a",
    "fold1d-d1-s1-pieces branch-set": "c8d79cba8fdd54ba",
    "fold1d-d1-s1-pieces check-open": "c576b80700d7e85a",
    "fold1d-d1-s1-pieces oracle-open": "bb9650f8d0b786e3",
    "fold1d-d1-s1-pieces oracle-open:s7-p9-d23": "63de00b550e60c2c",
    "interior_fold1d-d1-s0-vertex_images validate": "1ab3334149846f44",
    "interior_fold1d-d1-s0-vertex_images whyburn": "d49b591cc3c82bdb",
    "interior_fold1d-d1-s0-vertex_images branch-set": "b19c69b02acddf91",
    "interior_fold1d-d1-s0-vertex_images check-open": "99b88f824b1462dc",
    "interior_fold1d-d1-s0-vertex_images oracle-open": "9c4395f15dba0dd8",
    "interior_fold1d-d1-s0-vertex_images oracle-open:s7-p9-d23": "400abe36c52b261b",
    "interior_fold1d-d1-s1-pieces validate": "b3f68b7011dc3c20",
    "interior_fold1d-d1-s1-pieces whyburn": "f772adb4eee4ea8f",
    "interior_fold1d-d1-s1-pieces branch-set": "7f4ad9b9ab5250c5",
    "interior_fold1d-d1-s1-pieces check-open": "9c2dc1857f760566",
    "interior_fold1d-d1-s1-pieces oracle-open": "8433524f33a4a2ba",
    "interior_fold1d-d1-s1-pieces oracle-open:s7-p9-d23": "578debf60b7c95ec",
    "doubling2d-d2-s0-vertex_images validate": "a0d23dfbe1ca8c63",
    "doubling2d-d2-s0-vertex_images whyburn": "1fb3387eef84551f",
    "doubling2d-d2-s0-vertex_images branch-set": "ffbf939eda57b4e0",
    "doubling2d-d2-s0-vertex_images check-open": "f1471f2d3723f741",
    "doubling2d-d2-s0-vertex_images oracle-open": "6700c6e2518d3ebe",
    "doubling2d-d2-s0-vertex_images oracle-open:s7-p9-d23": "86925ebcbb96cdca",
    "doubling2d-d2-s1-pieces validate": "0a3189f310839ac3",
    "doubling2d-d2-s1-pieces whyburn": "583f7b2289fe903a",
    "doubling2d-d2-s1-pieces branch-set": "c83ce937a31b5f49",
    "doubling2d-d2-s1-pieces check-open": "9b7a5204df94dedc",
    "doubling2d-d2-s1-pieces oracle-open": "bd20d29653d7ccba",
    "doubling2d-d2-s1-pieces oracle-open:s7-p9-d23": "af908fed24afaf9b",
    "shear-d2-s0-vertex_images validate": "9cd9acec01d9b1d9",
    "shear-d2-s0-vertex_images whyburn": "5e76a7872518358c",
    "shear-d2-s0-vertex_images branch-set": "8bdb04433b33860d",
    "shear-d2-s0-vertex_images check-open": "a0ac243907ffc775",
    "shear-d2-s0-vertex_images oracle-open": "a0924f714a16b3d1",
    "shear-d2-s0-vertex_images oracle-open:s7-p9-d23": "53867b84fe9f4788",
    "shear-d2-s1-pieces validate": "9b376ce6c2e5281a",
    "shear-d2-s1-pieces whyburn": "0a6d19454bfb15cf",
    "shear-d2-s1-pieces branch-set": "71724285018abad3",
    "shear-d2-s1-pieces check-open": "a32f5f24fbf80214",
    "shear-d2-s1-pieces oracle-open": "e13f0a5d65b6a89e",
    "shear-d2-s1-pieces oracle-open:s7-p9-d23": "3247f2bb6d864647",
    "singular_cell-d1-s0-vertex_images validate": "7d7e6c351ab6191a",
    "singular_cell-d1-s0-vertex_images whyburn": "931013d88154fe20",
    "singular_cell-d1-s0-vertex_images branch-set": "4cafb8d00990129a",
    "singular_cell-d1-s0-vertex_images check-open": "a094028bd4aac968",
    "singular_cell-d1-s0-vertex_images oracle-open": "87e5f99e65ad547f",
    "singular_cell-d1-s0-vertex_images oracle-open:s7-p9-d23": "87e5f99e65ad547f",
    "singular_cell-d1-s1-pieces validate": "91c3b392a2e66fa0",
    "singular_cell-d1-s1-pieces whyburn": "16e3bed620fd08a2",
    "singular_cell-d1-s1-pieces branch-set": "f09de3e45ba38f1a",
    "singular_cell-d1-s1-pieces check-open": "e4b899a056a267a1",
    "singular_cell-d1-s1-pieces oracle-open": "285deab4e5514d7c",
    "singular_cell-d1-s1-pieces oracle-open:s7-p9-d23": "285deab4e5514d7c",
    "singular_cell-d2-s0-vertex_images validate": "89c7617a6e4488ab",
    "singular_cell-d2-s0-vertex_images whyburn": "edc475c0581b01dd",
    "singular_cell-d2-s0-vertex_images branch-set": "4b6f76b59e7ce92b",
    "singular_cell-d2-s0-vertex_images check-open": "357b24e215d6d0cd",
    "singular_cell-d2-s0-vertex_images oracle-open": "d9b809f733107aeb",
    "singular_cell-d2-s0-vertex_images oracle-open:s7-p9-d23": "d9b809f733107aeb",
    "singular_cell-d2-s1-pieces validate": "3dcdce96937b6555",
    "singular_cell-d2-s1-pieces whyburn": "27adbc5d027543aa",
    "singular_cell-d2-s1-pieces branch-set": "9c1b74a1f0acd89e",
    "singular_cell-d2-s1-pieces check-open": "669f954df8ef5fd0",
    "singular_cell-d2-s1-pieces oracle-open": "6e2ffe8e794a5815",
    "singular_cell-d2-s1-pieces oracle-open:s7-p9-d23": "6e2ffe8e794a5815",
    "singular_cell-d3-s1-pieces validate": "77b7a913a528a4a2",
    "singular_cell-d3-s1-pieces whyburn": "5124d9ac0aa4c22d",
    "singular_cell-d3-s1-pieces branch-set": "4ba33061295ae5c1",
    "singular_cell-d3-s1-pieces check-open": "013e856f1e95439d",
    "singular_cell-d3-s1-pieces oracle-open": "5e936488e929447f",
    "singular_cell-d3-s1-pieces oracle-open:s7-p9-d23": "5e936488e929447f",
    "random_orientation_preserving-d1-s0-vertex_images validate": "6783e5e0ccfdfa3e",
    "random_orientation_preserving-d1-s0-vertex_images whyburn": "5725c194abb95026",
    "random_orientation_preserving-d1-s0-vertex_images branch-set": "b65a2abe861daedd",
    "random_orientation_preserving-d1-s0-vertex_images check-open": "05850e7b9aa3c065",
    "random_orientation_preserving-d1-s0-vertex_images oracle-open": "9f747359032f0012",
    "random_orientation_preserving-d1-s0-vertex_images oracle-open:s7-p9-d23": "4d059cc67e07caab",
    "random_orientation_preserving-d1-s1-pieces validate": "339cd67a4a9beef3",
    "random_orientation_preserving-d1-s1-pieces whyburn": "389334cb6deb2476",
    "random_orientation_preserving-d1-s1-pieces branch-set": "8dc7cac85d6ad0a6",
    "random_orientation_preserving-d1-s1-pieces check-open": "466225fcad829949",
    "random_orientation_preserving-d1-s1-pieces oracle-open": "a49c759a75a4edc5",
    "random_orientation_preserving-d1-s1-pieces oracle-open:s7-p9-d23": "9bbf95d831f267ae",
    "random_orientation_preserving-d2-s0-vertex_images validate": "be723a9e487381ed",
    "random_orientation_preserving-d2-s0-vertex_images whyburn": "8d002aa73d4b950a",
    "random_orientation_preserving-d2-s0-vertex_images branch-set": "d0594b0ceeeec3ce",
    "random_orientation_preserving-d2-s0-vertex_images check-open": "3dd3f1b07921cfd2",
    "random_orientation_preserving-d2-s0-vertex_images oracle-open": "eb4c5466ce4a4954",
    "random_orientation_preserving-d2-s0-vertex_images oracle-open:s7-p9-d23": "abea1344466c6390",
    "random_orientation_preserving-d2-s1-pieces validate": "ca1f17b751c9ab28",
    "random_orientation_preserving-d2-s1-pieces whyburn": "78a91a01f1219b53",
    "random_orientation_preserving-d2-s1-pieces branch-set": "dabdd859919a9c09",
    "random_orientation_preserving-d2-s1-pieces check-open": "92fa62bf8955322b",
    "random_orientation_preserving-d2-s1-pieces oracle-open": "a49da593724b9f80",
    "random_orientation_preserving-d2-s1-pieces oracle-open:s7-p9-d23": "d8c8d66838e80fd1",
    "random_orientation_preserving-d3-s0-vertex_images validate": "88ad6961831957de",
    "random_orientation_preserving-d3-s0-vertex_images whyburn": "ae61d92b8261e968",
    "random_orientation_preserving-d3-s0-vertex_images branch-set": "d37f086f8ebea58b",
    "random_orientation_preserving-d3-s0-vertex_images check-open": "99bdd04f1e30cf7f",
    "random_orientation_preserving-d3-s0-vertex_images oracle-open": "32c68e27d1fd108b",
    "random_orientation_preserving-d3-s0-vertex_images oracle-open:s7-p9-d23": "51eb66f243a05d4a",
    "random_mixed_signs-d1-s0-vertex_images validate": "16aef2d8bf3866ca",
    "random_mixed_signs-d1-s0-vertex_images whyburn": "2ae1742b5c21ccb7",
    "random_mixed_signs-d1-s0-vertex_images branch-set": "b9622bca1c93229e",
    "random_mixed_signs-d1-s0-vertex_images check-open": "705106fc81b9eb18",
    "random_mixed_signs-d1-s0-vertex_images oracle-open": "a6b288570638c7db",
    "random_mixed_signs-d1-s0-vertex_images oracle-open:s7-p9-d23": "7d7cddadfc36d8f8",
    "random_mixed_signs-d1-s1-pieces validate": "100e74b1bcee5a7e",
    "random_mixed_signs-d1-s1-pieces whyburn": "261a2375d13e34ce",
    "random_mixed_signs-d1-s1-pieces branch-set": "ba95fbfd815007a8",
    "random_mixed_signs-d1-s1-pieces check-open": "2bb709dde263a7b8",
    "random_mixed_signs-d1-s1-pieces oracle-open": "cdff6fd3316e4d95",
    "random_mixed_signs-d1-s1-pieces oracle-open:s7-p9-d23": "872430831f3eff98",
    "random_mixed_signs-d2-s0-vertex_images validate": "9468c8f697236cb1",
    "random_mixed_signs-d2-s0-vertex_images whyburn": "c9446b244bf8e395",
    "random_mixed_signs-d2-s0-vertex_images branch-set": "96b5f66a23295542",
    "random_mixed_signs-d2-s0-vertex_images check-open": "ca5b36691d743b80",
    "random_mixed_signs-d2-s0-vertex_images oracle-open": "c74c51accb803d6b",
    "random_mixed_signs-d2-s0-vertex_images oracle-open:s7-p9-d23": "012d74353843d1ac",
    "random_mixed_signs-d2-s1-pieces validate": "06e575735699b353",
    "random_mixed_signs-d2-s1-pieces whyburn": "7cb89aeeecca20e5",
    "random_mixed_signs-d2-s1-pieces branch-set": "194cefdaab480d74",
    "random_mixed_signs-d2-s1-pieces check-open": "eb8f312ef5018f1a",
    "random_mixed_signs-d2-s1-pieces oracle-open": "7ef13152e57900e9",
    "random_mixed_signs-d2-s1-pieces oracle-open:s7-p9-d23": "d6b763af4d3504af",
    "random_mixed_signs-d3-s1-pieces validate": "3e6ae7cea8b41653",
    "random_mixed_signs-d3-s1-pieces whyburn": "d0467f75530d44c8",
    "random_mixed_signs-d3-s1-pieces branch-set": "c180c0fa031bad34",
    "random_mixed_signs-d3-s1-pieces check-open": "e9a989e6381ff255",
    "random_mixed_signs-d3-s1-pieces oracle-open": "4321c2b1d0afea5b",
    "random_mixed_signs-d3-s1-pieces oracle-open:s7-p9-d23": "a6b01c57aee47dd1",
    "improper-d1-vertex_images validate": "cca65a5e0b908527",
    "improper-d1-vertex_images whyburn": "c5c57e954cb58d11",
    "improper-d1-vertex_images branch-set": "144192ca5d45a4f4",
    "improper-d1-vertex_images check-open": "a3e5e9fb0b240d24",
    "improper-d1-vertex_images oracle-open": "55eb98495fbeb95b",
    "improper-d1-vertex_images oracle-open:s7-p9-d23": "55eb98495fbeb95b",
    "improper-d2-vertex_images validate": "a6b86280a678c971",
    "improper-d2-vertex_images whyburn": "d9831bf539e76417",
    "improper-d2-vertex_images branch-set": "a87a4dcbbb492a68",
    "improper-d2-vertex_images check-open": "9068596828c176c6",
    "improper-d2-vertex_images oracle-open": "4a62ef63370144fe",
    "improper-d2-vertex_images oracle-open:s7-p9-d23": "4a62ef63370144fe",
    "improper-d2-pieces validate": "69e57cde7a52d1f7",
    "improper-d2-pieces whyburn": "d9831bf539e76417",
    "improper-d2-pieces branch-set": "a87a4dcbbb492a68",
    "improper-d2-pieces check-open": "9068596828c176c6",
    "improper-d2-pieces oracle-open": "4a62ef63370144fe",
    "improper-d2-pieces oracle-open:s7-p9-d23": "4a62ef63370144fe",
    "improper-d3-vertex_images validate": "5f228d4e0049ae3f",
    "improper-d3-vertex_images whyburn": "0d1d3483197ce76e",
    "improper-d3-vertex_images branch-set": "311c25724242de29",
    "improper-d3-vertex_images check-open": "dbfaf2cb43ba25ac",
    "improper-d3-vertex_images oracle-open": "af14c97052a1bcec",
    "improper-d3-vertex_images oracle-open:s7-p9-d23": "af14c97052a1bcec",
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
