from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plopen import cli, feasible, whyburn
from plopen.complexes import validate_complex
from plopen.degree import PerturbationExhausted
from plopen.feasible import (
    hull_contains,
    hull_leaves_affine_span,
    hulls_intersect,
    relint_preimage_witness,
    simplex_frame,
)
from plopen.generators import _FIXED_DIMS, KINDS, GenSpec, generate
from plopen.instancefile import document_to_plmap, plmap_to_document, save_document
from plopen.openness import coherently_oriented
from plopen.plmap import build_plmap
from plopen.whyburn import (
    Certified,
    InvalidBallError,
    Rejected,
    boundary_preimage_ok,
    boundary_restriction_injective,
    certify_ball_map,
    make_ball_instance,
)

from oracles import certify_in_stage_order, face_frame_boundary_injective, global_collision


def F(*args):
    return Fraction(*args)


def interval_map(images):
    # map on [-1, 1] with breakpoint 0
    complex_ = validate_complex([[-1], [0], [1]], [[0, 1], [1, 2]], 1)
    return make_ball_instance(build_plmap(complex_, images))


class TestBallValidation:
    def test_boxes_are_balls(self):
        for dim in (1, 2, 3):
            generate(GenSpec("identity", dim))  # raises if not a valid ball

    def test_disconnected_support_rejected(self):
        vertices = [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]]
        f = build_plmap(
            validate_complex(vertices, [[0, 1, 2], [3, 4, 5]]), [list(v) for v in vertices]
        )
        with pytest.raises(InvalidBallError):
            make_ball_instance(f)

    def test_annulus_rejected_by_euler_characteristic(self):
        # square ring (hole in the middle): boundary is two disjoint cycles
        outer = [(0, 0), (3, 0), (3, 3), (0, 3)]
        inner = [(1, 1), (2, 1), (2, 2), (1, 2)]
        vertices = [list(p) for p in outer + inner]
        cells = [
            [0, 1, 4], [1, 4, 5], [1, 2, 5], [2, 5, 6],
            [2, 3, 6], [3, 6, 7], [0, 3, 7], [0, 4, 7],
        ]
        f = build_plmap(validate_complex(vertices, cells), vertices)
        with pytest.raises(InvalidBallError) as err:
            make_ball_instance(f)
        assert any("connected" in r or "Euler" in r for r in err.value.reasons)


class TestBoundaryPreimage:
    def test_identity_ok(self):
        inst = generate(GenSpec("identity", 2)).ball
        ok, witness = boundary_preimage_ok(inst)
        assert ok and witness is None

    def test_interval_with_interior_values_ok(self):
        inst = interval_map([[-1], [F(1, 4)], [1]])
        ok, _ = boundary_preimage_ok(inst)
        assert ok

    def test_interior_vertex_sent_to_boundary_image(self):
        # the interior breakpoint 0 maps exactly onto the image of the right
        # endpoint, and no other interior point reaches a boundary image
        complex_ = validate_complex(
            [[-1], [0], [F(1, 2)], [1]], [[0, 1], [1, 2], [2, 3]], 1
        )
        inst = make_ball_instance(
            build_plmap(complex_, [[-1], [1], [F(1, 4)], [1]])
        )
        ok, witness = boundary_preimage_ok(inst)
        assert not ok
        assert witness == (F(0),)
        # witness re-check: its image lies in some boundary-face image
        f = inst.map
        value = f.evaluate(witness)
        assert any(
            hull_contains(f.image_of_face(face), value) for face in inst.boundary
        )

    def test_interior_cell_crossing_boundary_image(self):
        inst = interval_map([[-1], [2], [1]])
        ok, witness = boundary_preimage_ok(inst)
        assert not ok
        f = inst.map
        assert f.domain.locate(witness).kind != "outside"
        value = f.evaluate(witness)
        assert any(
            hull_contains(f.image_of_face(face), value) for face in inst.boundary
        )

    def test_degenerate_boundary_image_decided_in_vertex_form(self):
        # boundary edge (0, 1) collapses to the point (0, 0), which has no
        # frame; the centre maps there, and the witness is the vertex form's
        vertices = [[0, 0], [1, 0], [1, 1], [0, 1], [F(1, 2), F(1, 2)]]
        cells = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
        images = [[0, 0], [0, 0], [1, 1], [0, 1], [0, 0]]
        inst = make_ball_instance(build_plmap(validate_complex(vertices, cells), images))
        assert inst.boundary[0] == (0, 1)
        with pytest.raises(ValueError):
            simplex_frame(inst.map.images.cols((0, 1)))
        assert boundary_preimage_ok(inst) == (False, (F(1, 2), F(1, 2)))
        assert boundary_preimage_ok(inst) == _boundary_preimage_by_vertex_form(inst)

    @pytest.mark.parametrize("kind", ["random_mixed_signs", "singular_cell"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_frame_probe_matches_vertex_form(self, kind, dim):
        for seed in range(3):
            inst = generate(GenSpec(kind, dim, seed=seed)).ball
            assert boundary_preimage_ok(inst) == _boundary_preimage_by_vertex_form(inst)


def _boundary_preimage_by_vertex_form(inst):
    """Reference: every (interior face, boundary face) pair in vertex form."""
    f = inst.map
    for ids in f.domain.interior_faces():
        for face in inst.boundary:
            witness = relint_preimage_witness(
                f.domain.face_points(ids), f.image_of_face(ids), f.image_of_face(face)
            )
            if witness is not None:
                return False, witness
    return True, None


class TestBoundaryInjectivity:
    def test_identity_injective(self):
        inst = generate(GenSpec("identity", 2)).ball
        ok, pair = boundary_restriction_injective(inst)
        assert ok and pair is None

    def test_fold_endpoints_collide(self):
        inst = make_ball_instance(generate(GenSpec("fold1d", 1)).plmap)
        ok, pair = boundary_restriction_injective(inst)
        assert not ok and pair == ((0,), (2,))

    def test_doubling_boundary_wraps_twice(self, doubling2d):
        inst = doubling2d.ball
        ok, pair = boundary_restriction_injective(inst)
        assert not ok and pair is not None
        face_a, face_b = pair
        # re-check the collision: the two boundary edges overlap beyond the
        # image of their shared subface
        f = inst.map
        shared = [k for k, v in enumerate(face_a) if v in face_b]
        img_a, img_b = f.image_of_face(face_a), f.image_of_face(face_b)
        if shared:
            assert hull_leaves_affine_span(
                simplex_frame(f.images.cols(face_a)), f.images.cols(face_b), shared
            )
        else:
            assert hulls_intersect(img_a, img_b)


class TestCertify:
    def test_identity_balls_certified(self):
        for dim in (1, 2, 3):
            outcome = certify_ball_map(generate(GenSpec("identity", dim)).ball)
            assert isinstance(outcome, Certified) and outcome.degree == 1

    def test_interior_fold_rejected_at_openness(self, interior_fold1d):
        outcome = certify_ball_map(interior_fold1d.ball)
        assert isinstance(outcome, Rejected) and outcome.stage == 3

    def test_doubling_rejected_at_boundary_injectivity(self, doubling2d):
        outcome = certify_ball_map(doubling2d.ball)
        assert isinstance(outcome, Rejected) and outcome.stage == 2

    def test_interior_collapse_rejected_at_stage_one(self):
        inst = interval_map([[-1], [1], [F(1, 2)]])
        outcome = certify_ball_map(inst)
        assert isinstance(outcome, Rejected) and outcome.stage == 1

    def test_orientation_preserving_perturbations_certify(self):
        for seed in (0, 1, 2):
            inst = generate(GenSpec("random_orientation_preserving", 2, seed=seed)).ball
            outcome = certify_ball_map(inst)
            assert isinstance(outcome, Certified)
            assert outcome.degree == 1
            assert len(outcome.certificate.fiber) == 1


class TestDegreeCertificate:
    """Once stages 1-3 hold, one `degree` call is the certificate; rejected
    maps never compute a degree."""

    @pytest.fixture()
    def degrees(self, monkeypatch):
        calls = []
        real = whyburn.degree

        def counted(f, value):
            calls.append(real(f, value))
            return calls[-1]

        monkeypatch.setattr(whyburn, "degree", counted)
        return calls

    def test_certificate_is_the_single_degree_call(self, degrees):
        for dim in (1, 2, 3):
            degrees.clear()
            outcome = certify_ball_map(generate(GenSpec("identity", dim)).ball)
            assert isinstance(outcome, Certified) and outcome.degree == 1
            assert len(degrees) == 1 and outcome.certificate is degrees[0]

    def test_rejections_never_compute_the_degree(
        self, degrees, interior_fold1d, doubling2d
    ):
        cases = (
            (interior_fold1d.ball, 3),
            (doubling2d.ball, 2),
            (interval_map([[-1], [1], [F(1, 2)]]), 1),
        )
        for inst, stage in cases:
            outcome = certify_ball_map(inst)
            assert isinstance(outcome, Rejected) and outcome.stage == stage
        assert degrees == []

    def test_degree_error_propagates(self, monkeypatch):
        inst = generate(GenSpec("identity", 2)).ball

        def exhausted(f, value):
            raise PerturbationExhausted(tuple(value), [])

        monkeypatch.setattr(whyburn, "degree", exhausted)
        with pytest.raises(PerturbationExhausted):
            certify_ball_map(inst)

    def test_certified_maps_have_singleton_regular_fibers(self):
        from plopen.degree import is_regular_value
        from plopen.plmap import fiber

        inst = generate(GenSpec("random_orientation_preserving", 2, seed=1))
        assert isinstance(certify_ball_map(inst.ball), Certified)
        f = inst.plmap
        sampled = 0
        for ci in range(0, len(f.domain.cells), 3):
            value = f.pieces[ci].apply(f.domain.barycenter(f.domain.cells[ci].vertex_ids))
            if is_regular_value(f, value)[0]:
                result = fiber(f, value)
                assert len(result.points) == 1
                assert result.points[0].signs == (1,)
                sampled += 1
        assert sampled

    def test_identity_certifies_on_any_valid_ball_complex(self, doubling2d):
        # same domain as the doubling map (the octagon fan), identity images
        fan = doubling2d.plmap.domain
        outcome = certify_ball_map(
            make_ball_instance(build_plmap(fan, list(fan.vertices)))
        )
        assert isinstance(outcome, Certified) and outcome.degree == 1

    def test_adjacent_equal_sign_images_stay_in_shared_hull(self):
        # the stage-4 shortcut: equal signs across a facet separate the two
        # cell images along the shared image hyperplane
        f = generate(GenSpec("random_orientation_preserving", 3, seed=2)).plmap
        n = f.ambient_dim
        checked = 0
        for ids, info in f.domain.faces.items():
            if len(ids) != n or len(info.cells) != 2:
                continue
            a, b = info.cells
            ids_a, ids_b = f.domain.cells[a].vertex_ids, f.domain.cells[b].vertex_ids
            assert not hull_leaves_affine_span(
                simplex_frame(f.images.cols(ids_a)),
                f.images.cols(ids_b),
                [k for k, v in enumerate(ids_a) if v in ids],
            )
            checked += 1
        assert checked

    def test_mirror_identity_certifies_with_negative_degree(self):
        complex_ = generate(GenSpec("identity", 2)).plmap.domain
        mirrored = build_plmap(
            complex_, [(-v[0], v[1]) for v in complex_.vertices]
        )
        outcome = certify_ball_map(make_ball_instance(mirrored))
        assert isinstance(outcome, Certified) and outcome.degree == -1


def test_each_vertex_and_image_column_is_built_once(monkeypatch):
    """Loading and certifying a ball builds one homogeneous column per vertex,
    one per vertex image, and otherwise only the degree's query columns.

    Counts only: the complex and the map each keep one `IntegerPoints`, and
    every box, frame and column of a face is read from it.
    """
    spec = GenSpec("random_orientation_preserving", 3, resolution=2, seed=1)
    doc = plmap_to_document(generate(spec).plmap)
    built = []
    column = feasible.homogeneous_column

    def counting(point):
        built.append(point)
        return column(point)

    monkeypatch.setattr(feasible, "homogeneous_column", counting)
    f, _ = document_to_plmap(doc)
    assert (len(f.domain.vertices), len(f.domain.cells)) == (27, 48)
    assert len(built) == 2 * 27
    built.clear()
    outcome = certify_ball_map(make_ball_instance(f))
    assert isinstance(outcome, Certified)
    # the value stage 5 reads is regular: one column for the one image scan
    # that decides the boundary test, regularity and the fiber
    value = outcome.certificate.query_point
    assert outcome.certificate.regular_point_used == value
    assert built == [value]


def test_certifying_builds_no_proper_face_grid(monkeypatch):
    """Validation, the certifier's stages and its degree query build grids
    over cells and boundary faces only: no grid over every proper face."""
    spec = GenSpec("random_orientation_preserving", 3, resolution=2, seed=1)
    doc = plmap_to_document(generate(spec).plmap)
    built = []
    grid = feasible.IntegerPoints.grid

    def recording(points, faces, cells):
        built.append(faces)
        return grid(points, faces, cells)

    monkeypatch.setattr(feasible.IntegerPoints, "grid", recording)
    f, _ = document_to_plmap(doc)
    inst = make_ball_instance(f)
    assert isinstance(certify_ball_map(inst), Certified)
    assert built and all(len(face) >= 3 for faces in built for face in faces)
    assert any(faces is f.domain.boundary for faces in built)


# -- stage 1 by the degree argument --------------------------------------------


def _mirrored(f):
    return build_plmap(f.domain, [(-v[0], *v[1:]) for v in f.vertex_images])


def _outcome(certify, f):
    """What `certify` answers on a fresh ball instance of f, or the type and
    message of what it raised."""
    try:
        return certify(make_ball_instance(build_plmap(f.domain, f.vertex_images)))
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _assert_stage_order_agrees(f, name=""):
    """The certifier answers as running stages 1 to 5 in order does, stage 2
    answers as it does in per-face frames, and wherever stages 2 and 3 hold,
    so do stage 1, stage 4 (no collision in the reference sweep) and stage 5
    (the certifier's degree is ±1)."""
    outcome = _outcome(certify_ball_map, f)
    assert outcome == _outcome(certify_in_stage_order, f), name
    inst = make_ball_instance(f)
    injective = boundary_restriction_injective(inst)
    assert injective == face_frame_boundary_injective(inst), name
    if coherently_oriented(f) and injective[0]:
        assert boundary_preimage_ok(inst) == (True, None), name
        assert global_collision(f) is None, name
        assert isinstance(outcome, Certified) and outcome.degree in (1, -1), name


def _generated_maps():
    """Every generator kind in each of its dimensions, seeds 0 and 1."""
    for kind in KINDS:
        for dim in (1, 2, 3):
            if _FIXED_DIMS.get(kind, dim) == dim:
                for seed in (0, 1):
                    yield f"{kind}-{dim}d-s{seed}", generate(GenSpec(kind, dim, seed=seed)).plmap


def _multi_stage_failures(doubling2d):
    """Named balls that fail several of stages 1-3 at once, and doubling2d,
    which fails stage 2 alone: (name, failing stages, map)."""
    fan = doubling2d.plmap.domain
    # the fan's boundary wound twice around the origin, once at radius 1 and
    # once at radius 2: every cell keeps its sign, and the edges from the
    # centre to the outer loop pass through the inner loop's vertices
    two_loops = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (2, 0), (0, 2), (-2, 0), (0, -2)]
    crossing = interval_map([[-1], [2], [1]]).map  # mixed signs; the middle overshoots 1
    return [
        ("two-loop fan", {1, 2}, build_plmap(fan, two_loops)),
        ("overshooting interval", {1, 3}, crossing),
        ("fold1d", {2, 3}, generate(GenSpec("fold1d", 1)).plmap),
        ("doubling2d", {2}, doubling2d.plmap),
        ("singular_cell-3d-s0", {1, 2, 3}, generate(GenSpec("singular_cell", 3, seed=0)).plmap),
    ]


_SMALL_BALLS = {
    dim: generate(GenSpec("identity", dim, resolution=res)).plmap.domain
    for dim, res in ((1, 3), (2, 2), (3, 1))
}


class TestStageOneByDegree:
    """Stage 1 is skipped once stages 2 and 3 hold; no answer changes."""

    def test_acceptance_corpus_agrees_with_stage_order(self):
        from test_acceptance import corpus_instances

        for name, f in corpus_instances():
            _assert_stage_order_agrees(f, name)

    def test_generator_kinds_and_mirrors_agree_with_stage_order(self):
        for name, f in _generated_maps():
            _assert_stage_order_agrees(f, name)
            _assert_stage_order_agrees(_mirrored(f), f"mirrored {name}")

    def test_multi_stage_failures_report_the_earliest_stage(self, doubling2d):
        for name, failing, f in _multi_stage_failures(doubling2d):
            inst = make_ball_instance(f)
            stages = {
                1: boundary_preimage_ok(inst)[0],
                2: boundary_restriction_injective(inst)[0],
                3: coherently_oriented(f),
            }
            assert {k for k, ok in stages.items() if not ok} == failing, name
            outcome = certify_ball_map(make_ball_instance(f))
            assert isinstance(outcome, Rejected) and outcome.stage == min(failing), name
            _assert_stage_order_agrees(f, name)
            _assert_stage_order_agrees(_mirrored(f), f"mirrored {name}")

    @given(st.data())
    @settings(settings.get_profile("ci"), max_examples=60, deadline=None)
    def test_perturbed_small_balls_agree(self, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        domain = _SMALL_BALLS[dim]
        # small moves keep every sign (certified); larger ones fold cells and
        # push interior images across the boundary image
        scale = data.draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 2), F(1)]), label="scale")
        offset = st.integers(-2, 2).map(lambda k: k * scale)
        images = [tuple(c + data.draw(offset) for c in v) for v in domain.vertices]
        _assert_stage_order_agrees(build_plmap(domain, images))


def _collapse_boundary_cells(f, count):
    """f with the cells of its first `count` boundary faces collapsed: the
    image of each such cell's vertex off the face moves to the centroid of
    the face's images, so the face's image keeps its frame while its cell's
    image has none."""
    images = list(f.vertex_images)
    for face in f.domain.boundary[:count]:
        (owner,) = f.domain.faces[face].cells
        (far,) = (v for v in f.domain.cell_ids[owner] if v not in face)
        images[far] = tuple(sum(c) / len(face) for c in zip(*(images[v] for v in face)))
    return build_plmap(f.domain, images)


class TestStageTwoFrames:
    """Stage 2 reads each boundary face's image frame off its cell's image
    frame and builds the face's own frame only where that cell's image
    collapsed; it answers as per-face frames do (`_assert_stage_order_agrees`
    compares the two on every map the stage-order tests run)."""

    @pytest.mark.parametrize("kind", ["singular_cell", "random_mixed_signs"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_collapsed_cell_images_fall_back_to_face_frames(self, kind, dim, monkeypatch):
        asked = []
        frame = feasible.IntegerPoints.frame

        def recording(points, ids):
            asked.append(ids)
            return frame(points, ids)

        monkeypatch.setattr(feasible.IntegerPoints, "frame", recording)
        fallbacks = 0
        for seed in (0, 1):
            generated = generate(GenSpec(kind, dim, seed=seed)).plmap
            for f in (generated, _collapse_boundary_cells(generated, 3)):
                inst = make_ball_instance(f)
                cells, n = f.domain.cell_ids, f.ambient_dim
                collapsed = [
                    face
                    for face in inst.boundary
                    if f.images.frame(cells[f.domain.faces[face].cells[0]]) is None
                ]
                asked.clear()
                injective = boundary_restriction_injective(inst)
                assert [ids for ids in asked if len(ids) == n] == collapsed
                assert injective == face_frame_boundary_injective(inst)
                fallbacks += len(collapsed)
        assert fallbacks


class TestCertifiedBallsSkipTheSweep:
    """`whyburn` on a certified ball never calls the stage-1 sweep, and its
    report is the golden one."""

    CERTIFIED = (
        "identity-d1-s0-vertex_images",
        "identity-d2-s1-pieces",
        "identity-d3-s0-vertex_images",
        "random_orientation_preserving-d1-s0-vertex_images",
        "random_orientation_preserving-d2-s0-vertex_images",
        "random_orientation_preserving-d3-s0-vertex_images",
        "shear-d2-s0-vertex_images",
    )

    @pytest.fixture()
    def sweeps(self, monkeypatch):
        calls = []

        def forbidden(inst):
            calls.append(inst)
            raise AssertionError("stage-1 sweep called")

        monkeypatch.setattr(whyburn, "boundary_preimage_ok", forbidden)
        return calls

    def test_certified_balls_keep_their_golden_reports(self, sweeps, tmp_path):
        from test_golden import GOLDEN, _run, golden_documents

        docs = golden_documents()
        for name in self.CERTIFIED:
            path = tmp_path / f"{name}.json"
            save_document(path, docs[name])
            assert _run(["whyburn", str(path)]) == GOLDEN[f"{name} whyburn"], name
        assert sweeps == []

    def test_mixed_signs_still_reach_stage_one(self, sweeps, tmp_path):
        path = tmp_path / "mixed.json"
        save_document(path, plmap_to_document(generate(GenSpec("random_mixed_signs", 2)).plmap))
        with pytest.raises(AssertionError, match="stage-1 sweep called"):
            cli.main(["whyburn", str(path)])
        assert len(sweeps) == 1
