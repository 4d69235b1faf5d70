"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. All comparisons are exact (tolerance zero): every expected value is
either pinned from an independent brute-force oracle or is a structural
invariant.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from plopen.cli import main as cli_main
from plopen.complexes import cells_connected
from plopen.degree import HomotopyHypothesisViolation, degree, homotopy_degree_constant
from plopen.generators import GenSpec, generate
from plopen.instancefile import plmap_to_document, save_document
from plopen.linalg import Matrix
from plopen.openness import branch_set, check_conditions, openness_oracle
from plopen.plmap import (
    FiniteFiber,
    PLMap,
    build_plmap,
    component_graph,
    fiber,
    finite_fibers,
)
from plopen.whyburn import Certified, Rejected, certify_ball_map

from oracles import brute_force_sign_sum, global_collision, point_in_simplex, shrunk_star_images


def F(*args):
    return Fraction(*args)


def report(capsys, criterion: str, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


RANDOM_SEEDS = {1: range(9), 2: range(8), 3: range(8)}  # 9 + 8 + 8 = 25 per class


def _named_fixtures() -> list[tuple[str, PLMap]]:
    named: list[tuple[str, PLMap]] = []
    for dim, resolutions in ((1, (2, 3, 4, 5)), (2, (1, 2, 3)), (3, (1, 2))):
        for res in resolutions:
            named.append(
                (f"identity-{dim}d-r{res}", generate(GenSpec("identity", dim, resolution=res)).plmap)
            )
    for kind, dim in (("fold1d", 1), ("interior_fold1d", 1), ("doubling2d", 2), ("shear", 2)):
        named.append((kind, generate(GenSpec(kind, dim)).plmap))
    shear2 = Matrix.from_rows([[1, 1], [0, 1]])
    shear3 = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    rot90 = Matrix.from_rows([[0, -1], [1, 0]])
    for dim in (1, 2, 3):
        domain = generate(GenSpec("identity", dim)).plmap.domain
        named.append(
            (f"translated-{dim}d", build_plmap(domain, [tuple(c + 1 for c in v) for v in domain.vertices]))
        )
        named.append(
            (f"scaled-{dim}d", build_plmap(domain, [tuple(2 * c for c in v) for v in domain.vertices]))
        )
        named.append(
            (
                f"mirrored-{dim}d",
                build_plmap(domain, [(-v[0], *v[1:]) for v in domain.vertices]),
            )
        )
    for name, dim, matrix in (("shear-box-2d", 2, shear2), ("shear-box-3d", 3, shear3), ("rot90-2d", 2, rot90)):
        domain = generate(GenSpec("identity", dim)).plmap.domain
        named.append((name, build_plmap(domain, [matrix.mul_vec(v) for v in domain.vertices])))
    return named


def corpus_instances() -> list[tuple[str, PLMap]]:
    instances: list[tuple[str, PLMap]] = []
    for kind in ("random_orientation_preserving", "random_mixed_signs", "singular_cell"):
        for dim, seeds in RANDOM_SEEDS.items():
            for seed in seeds:
                instances.append(
                    (f"{kind}-{dim}d-s{seed}", generate(GenSpec(kind, dim, seed=seed)).plmap)
                )
    instances.extend(_named_fixtures())
    assert len(instances) >= 100
    return instances


@pytest.fixture(scope="module")
def corpus():
    return corpus_instances()


def test_criterion_1_theorem_equivalence(corpus, capsys):
    started = time.monotonic()
    disagreements = []
    for name, plmap in corpus:
        verdict = check_conditions(plmap)
        flags = (
            verdict.cond_ii.holds,
            verdict.cond_iii.holds,
            verdict.cond_iv.holds,
            verdict.coherent,
        )
        if len(set(flags)) != 1 or not verdict.all_agree:
            disagreements.append((name, flags))
    elapsed = time.monotonic() - started
    passed = not disagreements and elapsed < 60
    report(
        capsys,
        "1 (theorem equivalence)",
        passed,
        f"{len(corpus)} instances, {len(disagreements)} disagreements, {elapsed:.1f}s (< 60s)",
    )
    assert not disagreements, disagreements
    assert elapsed < 60


def test_criterion_2_coherence_oracle_crosscheck(corpus, capsys):
    checked = mismatches = revalidated = 0
    for name, plmap in corpus:
        if not finite_fibers(plmap):
            continue
        checked += 1
        coherent = {p.det_sign for p in plmap.pieces} in ({1}, {-1})
        result = openness_oracle(plmap, num_points=20, num_directions=64, rng_seed=0)
        if coherent != result.open_at_all_samples:
            mismatches += 1
            continue
        if not coherent:
            assert result.failures
            star_cache = {}
            for failure in result.failures:
                outcome = fiber(plmap, failure.target)
                assert isinstance(outcome, FiniteFiber)
                key = (failure.point, failure.carrier)
                if key not in star_cache:
                    star_cache[key] = shrunk_star_images(plmap, failure.point, failure.carrier)
                for fiber_point in outcome.points:
                    for _, shrunk_points, _ in star_cache[key]:
                        assert not point_in_simplex(fiber_point.point, shrunk_points), (
                            name,
                            failure,
                        )
                revalidated += 1
    passed = mismatches == 0 and checked > 0
    report(
        capsys,
        "2 (coherence vs openness oracle)",
        passed,
        f"{checked} finite-fiber instances, {mismatches} mismatches, "
        f"{revalidated} failure witnesses re-validated via fiber()",
    )
    assert passed


def test_criterion_3_degree_engine(capsys):
    identity = generate(GenSpec("identity", 2)).plmap
    fold = generate(GenSpec("fold1d", 1)).plmap
    doubling = generate(GenSpec("doubling2d", 2)).plmap

    outcomes = []

    cert = degree(identity, (F(1, 2), F(1, 3)))
    outcomes.append(cert.degree == 1 == brute_force_sign_sum(identity, cert.regular_point_used))

    cert = degree(fold, (F(1, 2),))
    outcomes.append(cert.degree == 0 == brute_force_sign_sum(fold, cert.regular_point_used))

    cert = degree(fold, (F(0),))
    outcomes.append(cert.regular_point_used != (F(0),))
    outcomes.append(cert.degree == 0 == brute_force_sign_sum(fold, cert.regular_point_used))

    cert = degree(doubling, (F(1, 2), F(1, 4)))
    outcomes.append(cert.degree == 2 == brute_force_sign_sum(doubling, cert.regular_point_used))

    cert = degree(doubling, (F(0), F(0)))
    outcomes.append(cert.regular_point_used != (F(0), F(0)))
    outcomes.append(cert.degree == 2 == brute_force_sign_sum(doubling, cert.regular_point_used))

    shear = generate(GenSpec("shear", 2)).plmap
    shear_identity = build_plmap(shear.domain, list(shear.domain.vertices))
    anchor = (F(2, 3), F(1, 8))
    verdict = homotopy_degree_constant(
        shear_identity, shear, (anchor, anchor), [F(k, 32) for k in range(33)]
    )
    outcomes.append(verdict.constant and set(verdict.degrees) == {1} and len(verdict.degrees) == 33)

    box = generate(GenSpec("identity", 2, resolution=2)).plmap
    center = (F(1), F(1))
    reflected = build_plmap(
        box.domain, [tuple(2 * c - v for v, c in zip(vert, center)) for vert in box.domain.vertices]
    )
    try:
        homotopy_degree_constant(box, reflected, (center, center), [F(k, 32) for k in range(33)])
        flagged = False
    except HomotopyHypothesisViolation as exc:
        flagged = exc.t == F(1, 2)
    outcomes.append(flagged)

    passed = all(outcomes)
    report(
        capsys,
        "3 (degree engine)",
        passed,
        f"{sum(outcomes)}/{len(outcomes)} exact degree checks (sign sums, perturbation, homotopy)",
    )
    assert passed


def test_criterion_4_branch_sets(capsys):
    identity = generate(GenSpec("identity", 2)).plmap
    fold = generate(GenSpec("fold1d", 1)).plmap
    doubling = generate(GenSpec("doubling2d", 2)).plmap

    doubling_report = branch_set(doubling)
    fold_report = branch_set(fold)
    identity_report = branch_set(identity)

    checks = [
        [bf.face for bf in doubling_report.branch_faces] == [(0,)],
        doubling_report.dim_branch_set == 0,
        [bf.face for bf in fold_report.branch_faces] == [(1,)],
        fold_report.dim_branch_set == 0,
        identity_report.branch_faces == () and identity_report.dim_branch_set is None,
    ]

    def exit_code_of(plmap):
        import contextlib
        import io
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "instance.json"
            save_document(path, plmap_to_document(plmap))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(
                    ["check-open", str(path), "--oracle-points", "4", "--oracle-dirs", "8"]
                )
        return code

    checks.append(exit_code_of(doubling) == 0)
    checks.append(exit_code_of(fold) == 1)
    checks.append(exit_code_of(identity) == 0)

    passed = all(checks)
    report(capsys, "4 (branch sets)", passed, f"{sum(checks)}/{len(checks)} exact checks and exit codes")
    assert passed


def test_criterion_5_whyburn_certifier(capsys):
    started = time.monotonic()
    checks = []
    # Stages 4 and 5 follow from stages 1-3, so the certifier has no stage-4
    # sweep; the reference sweep keeps "zero stage-4 collisions" checked on
    # every certified map.
    for dim in (1, 2, 3):
        ball = generate(GenSpec("identity", dim)).ball
        outcome = certify_ball_map(ball)
        checks.append(isinstance(outcome, Certified) and outcome.degree == 1)
        checks.append(global_collision(ball.map) is None)

    random_count = 0
    random_ok = 0
    for dim, count in ((1, 20), (2, 20), (3, 10)):
        for seed in range(count):
            ball = generate(GenSpec("random_orientation_preserving", dim, seed=seed)).ball
            outcome = certify_ball_map(ball)
            random_count += 1
            if isinstance(outcome, Certified) and outcome.degree == 1:
                random_ok += 1
                checks.append(global_collision(ball.map) is None)
    checks.append(random_count >= 50 and random_ok == random_count)

    fold_outcome = certify_ball_map(generate(GenSpec("interior_fold1d", 1)).ball)
    checks.append(isinstance(fold_outcome, Rejected) and fold_outcome.stage == 3)
    doubling_outcome = certify_ball_map(generate(GenSpec("doubling2d", 2)).ball)
    checks.append(isinstance(doubling_outcome, Rejected) and doubling_outcome.stage == 2)

    elapsed = time.monotonic() - started
    checks.append(elapsed < 120)
    passed = all(checks)
    report(
        capsys,
        "5 (whyburn certifier)",
            passed,
        f"identity balls + {random_ok}/{random_count} random instances certified "
        f"with zero stage-4 collisions, fixtures rejected at stages 3 and 2, "
        f"{elapsed:.1f}s (< 120s)",
    )
    assert passed


def test_criterion_6_dimension_and_component_lemmas(corpus, capsys):
    dim_checked = dim_failures = 0
    graph_checked = graph_failures = 0
    for name, plmap in corpus:
        if not finite_fibers(plmap):
            continue
        from plopen.plmap import image_dimension

        for face in plmap.domain.faces:
            dim_checked += 1
            if image_dimension(plmap, [face]) != len(face) - 1:
                dim_failures += 1
        for dim in range(plmap.ambient_dim + 1):
            faces = sorted(ids for ids in plmap.domain.faces if len(ids) == dim + 1)
            if faces and image_dimension(plmap, faces) != dim:
                dim_failures += 1
        if cells_connected(plmap.domain):
            graph_checked += 1
            if not component_graph(plmap).is_connected:
                graph_failures += 1
    passed = dim_failures == 0 and graph_failures == 0 and graph_checked > 0
    report(
        capsys,
        "6 (dimension preservation + component graph)",
        passed,
        f"{dim_checked} face-subcomplex dimension checks, {dim_failures} failures; "
        f"{graph_checked} component graphs, {graph_failures} disconnected",
    )
    assert passed


def test_criterion_7_exactness_and_determinism(tmp_path, capsys):
    substitution_ok = 0
    for kind, dim, seed in (
        ("random_orientation_preserving", 2, 3),
        ("random_mixed_signs", 2, 3),
        ("random_orientation_preserving", 3, 1),
        ("doubling2d", 2, 0),
    ):
        plmap = generate(GenSpec(kind, dim, seed=seed)).plmap
        query = plmap.pieces[0].apply(plmap.domain.barycenter(plmap.domain.cells[0].vertex_ids))
        outcome = fiber(plmap, query)
        assert isinstance(outcome, FiniteFiber) and outcome.points
        for fiber_point in outcome.points:
            assert plmap.evaluate(fiber_point.point) == query
            substitution_ok += 1
        cert = degree(plmap, query)
        for point, _ in cert.fiber:
            assert plmap.evaluate(point) == cert.regular_point_used
            substitution_ok += 1

    instance = generate(GenSpec("random_mixed_signs", 2, seed=5))
    path = tmp_path / "instance.json"
    save_document(path, plmap_to_document(instance.plmap))
    identical = True
    for command in (
        ["check-open", str(path), "--seed", "3"],
        ["degree", str(path), "--at", "1/2,1/2"],
        ["branch-set", str(path)],
    ):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "plopen.cli", *command], capture_output=True, check=False
            )
            for _ in range(2)
        ]
        if runs[0].stdout != runs[1].stdout or runs[0].returncode != runs[1].returncode:
            identical = False
    passed = identical and substitution_ok > 0
    report(
        capsys,
        "7 (exactness + determinism)",
        passed,
        f"{substitution_ok} exact witness substitutions, reports byte-identical across reruns",
    )
    assert passed
