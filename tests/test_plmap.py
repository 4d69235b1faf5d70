import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from plopen import cli, feasible, linalg, plmap
from plopen.complexes import validate_complex
from plopen.degree import degree, is_regular_value, point_on_boundary_image
from plopen.generators import _FIXED_DIMS, KINDS, GenSpec, box_complex, generate
from plopen.instancefile import document_to_plmap, plmap_to_document, save_document
from plopen.complexes import InvalidComplexError
from plopen.feasible import constrained_hull_dim
from plopen.linalg import Matrix, format_rational, vec_sub
from plopen.openness import OracleConfig, check_conditions
from plopen.plmap import (
    ALL_POSITIVE,
    MIXED,
    DiscontinuityError,
    FiniteFiber,
    InfiniteFiber,
    build_plmap,
    component_graph,
    fiber,
    finite_fibers,
    image_dimension,
    ingest_pieces,
    sign_profile,
)
from plopen.whyburn import Certified, certify_ball_map, make_ball_instance

from oracles import (
    affine_piece_of,
    brute_force_fiber,
    build_and_compare_ingest,
    det_by_permutation_expansion,
    hull_dim,
    matrix_component_graph,
    matrix_constrained_hull_dim,
    piece_by_inverse,
    vertex_form_hull_contains,
)
from test_cli import box_document
from test_degree import SCAN_MAPS


def F(*args):
    return Fraction(*args)


TWO_TRIANGLES = ([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])

SPECS = [
    GenSpec(kind, dim, seed=seed)
    for kind in KINDS
    for dim in (1, 2, 3)
    if _FIXED_DIMS.get(kind, dim) == dim
    for seed in (0, 1)
]
NONSINGULAR_SPECS = [spec for spec in SPECS if spec.kind != "singular_cell"]
# every kind in each of its dimensions, seeds 0-3: the corpus on which each
# decision on pieces is compared with its matrix-form reference
CORPUS = [
    GenSpec(kind, dim, seed=seed)
    for kind in KINDS
    for dim in (1, 2, 3)
    if _FIXED_DIMS.get(kind, dim) == dim
    for seed in range(4)
]


@lru_cache(maxsize=None)
def sample_map(spec):
    return generate(spec).plmap


def sample_points(f, count=6):
    """(x, f(x)) pairs, at most `count` of each: vertices, barycenters of
    interior faces below cell dimension (shared by several cells), and seeded
    generic points of cells. The same map gives the same pairs."""
    rng = random.Random(7)
    domain, n = f.domain, f.ambient_dim
    vertices = rng.sample(range(len(domain.vertices)), min(count, len(domain.vertices)))
    out = [(domain.vertices[v], f.vertex_images[v]) for v in vertices]
    shared = [ids for ids in domain.interior_faces() if len(ids) <= n]
    for ids in rng.sample(shared, min(count, len(shared))):
        x = domain.barycenter(ids)
        out.append((x, f.pieces[domain.star(ids)[0]].apply(x)))
    for _ in range(count):
        ci = rng.randrange(len(domain.cells))
        weights = [rng.randint(1, 97) for _ in range(n + 1)]
        points = domain.cell_points(ci)
        x = tuple(sum(w * p[c] for w, p in zip(weights, points)) / sum(weights) for c in range(n))
        out.append((x, f.pieces[ci].apply(x)))
    return out


def _sign(x):
    return (x > 0) - (x < 0)


def assert_pieces_match_reference(f):
    """Each piece's matrix and offset are the plain interpolation's and its
    sign is that matrix's permutation-expansion sign; each full-dimensional
    frame, of a cell or of a cell's image, has the orientation of the
    permutation expansion over its homogeneous points (a collapsed image,
    expansion 0, has no frame)."""
    for ci, (ids, piece) in enumerate(zip(f.domain.cell_ids, f.pieces)):
        points, images = f.domain.cell_points(ci), f.image_of_face(ids)
        matrix, offset = affine_piece_of(points, images)
        assert piece.det_sign == _sign(det_by_permutation_expansion(matrix))
        assert piece.matrix.entries == tuple(matrix)
        assert piece.offset == offset
        for owner, hull in ((f.domain.points, points), (f.images, images)):
            frame = owner.frame(ids)
            expected = _sign(det_by_permutation_expansion([(*p, 1) for p in hull]))
            assert (0 if frame is None else frame.orientation) == expected


def pieces_document(f):
    """f's document in pieces form: one matrix and offset per cell."""
    doc = {key: value for key, value in plmap_to_document(f).items() if key != "vertex_images"}
    doc["pieces"] = [
        {
            "matrix": [[format_rational(x) for x in row] for row in piece.matrix.entries],
            "offset": [format_rational(x) for x in piece.offset],
        }
        for piece in f.pieces
    ]
    return doc


class TestBuild:
    def test_identity_images(self, identity_square):
        for piece in identity_square.pieces:
            assert piece.matrix == Matrix.identity(2)
            assert piece.offset == (F(0), F(0))
            assert piece.det_sign == 1

    def test_absolute_value_fold(self, fold1d):
        assert [p.matrix.entries for p in fold1d.pieces] == [
            (((F(-1),),)),
            (((F(1),),)),
        ]
        assert fold1d.evaluate((F(-1, 2),)) == (F(1, 2),)

    def test_moving_one_private_vertex_rescales_one_determinant(self):
        # Doubling the offset of vertex (1,0) from the opposite edge (the
        # diagonal) sends it to (3/2,-1/2) and doubles that piece's
        # determinant only. Expected values recomputed by the plain
        # interpolation oracle and the permutation-expansion determinant.
        complex_ = validate_complex(*TWO_TRIANGLES)
        images = [[0, 0], [F(3, 2), F(-1, 2)], [1, 1], [0, 1]]
        mapped = build_plmap(complex_, images)

        cell_points = complex_.cell_points(0)
        oracle_matrix, oracle_offset = affine_piece_of(
            cell_points, [tuple(map(Fraction, images[i])) for i in (0, 1, 2)]
        )
        assert mapped.pieces[0].matrix.entries == tuple(oracle_matrix)
        assert det_by_permutation_expansion(oracle_matrix) == 2
        assert mapped.pieces[0].det_sign == 1
        assert mapped.pieces[1].matrix == Matrix.identity(2)
        assert det_by_permutation_expansion(mapped.pieces[1].matrix.entries) == 1

    def test_pieces_interpolate_exactly(self, doubling2d):
        f = doubling2d.plmap
        for ci, cell in enumerate(f.domain.cells):
            for vid in cell.vertex_ids:
                assert f.pieces[ci].apply(f.domain.vertices[vid]) == f.vertex_images[vid]

    def test_incident_pieces_agree_on_shared_faces(self):
        # continuity witness: across every interior facet the two incident
        # pieces agree pointwise on the facet's vertices
        for spec in (GenSpec("doubling2d", 2), GenSpec("random_mixed_signs", 2, seed=7)):
            f = generate(spec).plmap
            n = f.ambient_dim
            for ids, info in f.domain.faces.items():
                if len(ids) != n or len(info.cells) != 2:
                    continue
                a, b = info.cells
                for vid in ids:
                    vertex = f.domain.vertices[vid]
                    assert f.pieces[a].apply(vertex) == f.pieces[b].apply(vertex)

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_pieces_read_from_cell_frames_match_the_inverse_formula(
        self, spec, forbid_inverse, forbid_det_sign
    ):
        # each piece and its sign come from the integer frames: no rational
        # inverse and no rational determinant sign
        forbid_inverse()
        forbid_det_sign()
        f = generate(spec).plmap
        for ci, piece in enumerate(f.pieces):
            points, images = f.domain.cell_points(ci), f.image_of_face(f.domain.cell_ids[ci])
            matrix, offset, sign = piece_by_inverse(points, images)
            assert piece.matrix.entries == tuple(matrix)
            assert piece.offset == offset and piece.det_sign == sign


_SMALL_BOXES = {dim: box_complex(dim, res) for dim, res in ((1, 3), (2, 2), (3, 1))}


def draw_perturbed_map(data):
    """A small box complex in dims 1-3 with each vertex moved by a drawn
    multiple of a drawn scale, often mirrored, sometimes with one edge
    collapsed (every cell on it is then singular)."""
    dim = data.draw(st.integers(1, 3), label="dim")
    domain = _SMALL_BOXES[dim]
    # larger moves fold cells, so negatively oriented pieces are common
    scale = data.draw(st.sampled_from([F(1, 8), F(1, 3), F(1)]), label="scale")
    offset = st.integers(-2, 2).map(lambda k: k * scale)
    images = [[c + data.draw(offset) for c in v] for v in domain.vertices]
    if data.draw(st.booleans(), label="mirror"):
        images = [[-v[0], *v[1:]] for v in images]
    edge = None
    if data.draw(st.booleans(), label="collapse"):
        # two vertices of one cell share an image: every cell on that edge
        # collapses
        ids = domain.cell_ids[data.draw(st.integers(0, len(domain.cells) - 1))]
        edge = tuple(sorted(data.draw(st.sets(st.sampled_from(ids), min_size=2, max_size=2))))
        images[edge[0]] = images[edge[1]]
    f = build_plmap(domain, images)
    assert edge is None or all(f.pieces[ci].det_sign == 0 for ci in domain.star(edge))
    return f


class TestLazyPieces:
    """A piece's sign comes from two integer orientations and its matrix and
    offset are built at first read; all three are the reference's."""

    @pytest.mark.parametrize("name", sorted(SCAN_MAPS))
    def test_kinds_mirrors_and_collapsed_fixtures_match_the_reference(self, name):
        # a fresh map of the same images, so every piece is built here
        f = SCAN_MAPS[name]
        assert_pieces_match_reference(build_plmap(f.domain, f.vertex_images))

    @given(st.data())
    @settings(settings.get_profile("ci"), deadline=None)
    def test_perturbed_maps_match_the_reference(self, data):
        assert_pieces_match_reference(draw_perturbed_map(data))


class TestPiecesBuiltOnlyWhenRead:
    """No piece's matrix is built where no report reads one."""

    SPEC = GenSpec("random_orientation_preserving", 3, resolution=4)

    @pytest.fixture()
    def built(self, monkeypatch):
        calls = []
        frame_piece = plmap._frame_piece

        def counting(bary, vertex_columns, image_columns):
            calls.append(image_columns)
            return frame_piece(bary, vertex_columns, image_columns)

        monkeypatch.setattr(plmap, "_frame_piece", counting)
        return calls

    def test_generation_loading_and_conditions_build_no_piece(self, built):
        doc = plmap_to_document(generate(self.SPEC).plmap)
        f, _ = document_to_plmap(doc)
        assert check_conditions(f, OracleConfig()).coherent
        assert built == []

    def test_loading_a_pieces_document_builds_no_piece(self, built):
        doc = pieces_document(generate(self.SPEC).plmap)
        built.clear()  # writing the document read every piece
        f, _ = document_to_plmap(doc)
        assert len(f.pieces) == 384
        assert built == []

    def test_validate_check_open_whyburn_and_graph_build_no_piece(
        self, built, tmp_path, capsys
    ):
        path = tmp_path / "map.json"
        save_document(path, plmap_to_document(generate(self.SPEC).plmap))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["check-open", str(path)]) == 0
        assert cli.main(["whyburn", str(path)]) == 0
        assert cli.main(["graph", str(path)]) == 0
        capsys.readouterr()
        assert built == []

    def test_certify_builds_no_piece(self, built):
        f, _ = document_to_plmap(plmap_to_document(generate(self.SPEC).plmap))
        assert isinstance(certify_ball_map(make_ball_instance(f)), Certified)
        assert built == []

    def test_fibers_at_a_collapsed_cells_image_build_no_piece(self, built, tmp_path, capsys):
        f = generate(GenSpec("singular_cell", 3, seed=1)).plmap
        ci = next(ci for ci, p in enumerate(f.pieces) if p.det_sign == 0)
        at = ",".join(map(format_rational, mean_image(f, f.domain.cell_ids[ci])))
        path = tmp_path / "map.json"
        save_document(path, plmap_to_document(f))
        assert cli.main(["fibers", str(path), f"--at={at}"]) == 0
        assert json.loads(capsys.readouterr().out)["finite"] is False
        assert built == []


class TestFramesWithoutElimination:
    """In dimensions 1-3 every frame and orientation is a matrix of side at
    most 4, which the cofactor formulas compute with no elimination."""

    @pytest.fixture()
    def eliminations(self, monkeypatch):
        calls = []
        eliminate = linalg._eliminate

        def counting(a, columns):
            calls.append(len(a))
            return eliminate(a, columns)

        monkeypatch.setattr(linalg, "_eliminate", counting)
        return calls

    def test_loading_frames_and_certify_make_no_elimination(self, eliminations):
        doc = plmap_to_document(generate(GenSpec("random_orientation_preserving", 3, resolution=2)).plmap)
        f, _ = document_to_plmap(doc)
        for ids in f.domain.cell_ids:
            assert f.domain.points.frame(ids).orientation != 0
            assert f.images.frame(ids).orientation != 0
        assert isinstance(certify_ball_map(make_ball_instance(f)), Certified)
        assert eliminations == []

    def test_a_4d_map_is_loaded_by_elimination(self, eliminations):
        f, _ = document_to_plmap(box_document(4, 1))
        assert len(f.pieces) == 24 and eliminations and set(eliminations) == {5}


class TestIngest:
    def test_identity_pieces_on_two_triangles(self):
        vertices, cells = TWO_TRIANGLES
        f = ingest_pieces(vertices, cells, [(Matrix.identity(2), (0, 0))] * 2)
        assert all(p.matrix == Matrix.identity(2) for p in f.pieces)

    def test_discontinuous_pieces_rejected(self):
        vertices, cells = TWO_TRIANGLES
        pieces = [(Matrix.identity(2), (0, 0)), (Matrix.identity(2), (1, 0))]
        with pytest.raises(DiscontinuityError) as err:
            ingest_pieces(vertices, cells, pieces)
        assert "discontinuous across face" in str(err.value)

    def test_fold_pieces_agree_at_breakpoint(self):
        pieces = [(Matrix.from_rows([[-1]]), (0,)), (Matrix.from_rows([[1]]), (0,))]
        f = ingest_pieces([(-1,), (0,), (1,)], [[0, 1], [1, 2]], pieces)
        assert [p.det_sign for p in f.pieces] == [-1, 1]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_pieces_form_keeps_the_documents_pieces(self, spec, forbid_inverse):
        expected, _ = document_to_plmap(plmap_to_document(generate(spec).plmap))
        doc = pieces_document(expected)
        forbid_inverse()
        f, _ = document_to_plmap(doc)
        assert f.pieces == expected.pieces
        assert_pieces_match_reference(f)
        assert list(f.domain.vertices) == list(expected.domain.vertices)
        assert list(f.vertex_images) == list(expected.vertex_images)

    @pytest.mark.parametrize("cell", [0, 3], ids=["first", "all_vertices_seen"])
    @pytest.mark.parametrize(
        "piece",
        [
            (Matrix.from_rows([[1, 0, 0], [0, 1, 0]]), (0, 0)),
            (Matrix.from_rows([[1, 0]]), (0,)),
            (Matrix.identity(2), (0, 0, 0)),
        ],
        ids=["three_columns", "one_row", "three_offsets"],
    )
    def test_a_piece_of_the_wrong_shape_raises(self, cell, piece):
        # the square [0, 2]^2 fanned about its centre: the last cell lists
        # only vertices that earlier cells list
        vertices = [[0, 0], [2, 0], [2, 2], [0, 2], [1, 1]]
        cells = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
        pieces = [(Matrix.identity(2), (0, 0))] * 4
        pieces[cell] = piece
        with pytest.raises(ValueError):
            ingest_pieces(vertices, cells, pieces)

    def test_round_trip_reproduces_pieces(self, doubling2d):
        f = doubling2d.plmap
        rebuilt, _ = document_to_plmap(pieces_document(f))
        assert rebuilt.vertex_images == f.vertex_images
        assert [p.matrix for p in rebuilt.pieces] == [p.matrix for p in f.pieces]
        assert [p.offset for p in rebuilt.pieces] == [p.offset for p in f.pieces]


def mean_image(f, face):
    """The image of a face's barycentre: the mean of its vertex images."""
    images = f.image_of_face(face)
    return tuple(sum(axis) / len(images) for axis in zip(*images))


def ingest_outcome(ingest, vertices, cells, pieces, n):
    """The map's vertex images and pieces, or the error's type and violations."""
    try:
        f = ingest(vertices, cells, pieces, n)
    except (InvalidComplexError, DiscontinuityError) as exc:
        return type(exc).__name__, [str(v) for v in exc.violations]
    return f.vertex_images, f.pieces


class TestPiecesAskedAtVertices:
    """Ingest, the component graph and the collapsed-cell fiber decide at
    the vertices, in integers, what their matrix-form references in
    tests/oracles.py decide with the pieces' Fraction matrices."""

    @pytest.mark.parametrize("spec", CORPUS, ids=str)
    def test_ingest_matches_build_and_compare(self, spec):
        f = sample_map(spec)
        vertices, cells = f.domain.vertices, [list(ids) for ids in f.domain.cell_ids]
        pieces = [(p.matrix, p.offset) for p in f.pieces]
        n = f.ambient_dim
        got = ingest_outcome(ingest_pieces, vertices, cells, pieces, n)
        assert got == ingest_outcome(build_and_compare_ingest, vertices, cells, pieces, n)
        assert got == (f.vertex_images, f.pieces)

    @given(st.data())
    @settings(settings.get_profile("ci"), deadline=None)
    def test_drawn_pieces_documents_match_build_and_compare(self, data):
        # one entry of one piece changed, or each cell's vertices listed in
        # a drawn order (which orders the violations), or both
        f = sample_map(data.draw(st.sampled_from(SPECS), label="spec"))
        n = f.ambient_dim
        cells = [list(ids) for ids in f.domain.cell_ids]
        pieces = [(p.matrix, p.offset) for p in f.pieces]
        unsorted = data.draw(st.booleans(), label="unsorted")
        if unsorted:
            cells = [data.draw(st.permutations(cell)) for cell in cells]
        if not unsorted or data.draw(st.booleans(), label="changed"):
            ci = data.draw(st.integers(0, len(cells) - 1), label="cell")
            r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n))
            delta = data.draw(st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 3)]), label="delta")
            matrix, offset = pieces[ci]
            rows = [list(row) for row in matrix.entries]
            offset = list(offset)
            if c < n:
                rows[r][c] += delta
            else:
                offset[r] += delta
            pieces[ci] = (Matrix.from_rows(rows), offset)
        got = ingest_outcome(ingest_pieces, f.domain.vertices, cells, pieces, n)
        assert got == ingest_outcome(build_and_compare_ingest, f.domain.vertices, cells, pieces, n)

    @pytest.mark.parametrize("spec", CORPUS, ids=str)
    def test_component_graph_matches_the_matrix_comparison(self, spec):
        f = sample_map(spec)
        assert component_graph(f) == matrix_component_graph(f)

    @given(st.data())
    @settings(settings.get_profile("ci"), deadline=None)
    def test_perturbed_component_graphs_match_the_matrix_comparison(self, data):
        f = draw_perturbed_map(data)
        assert component_graph(f) == matrix_component_graph(f)

    @pytest.mark.parametrize("spec", CORPUS, ids=str)
    def test_constrained_hull_dim_matches_the_matrix_form(self, spec):
        # at the image of the barycentre of each cell, of each of its facets
        # and of each of its vertices, and beyond every image: a collapsed
        # cell answers with a segment, a point, or nothing
        f = sample_map(spec)
        beyond = tuple(1 + max(q[c] for q in f.vertex_images) for c in range(f.ambient_dim))
        for ci, (ids, piece) in enumerate(zip(f.domain.cell_ids, f.pieces)):
            points, images = f.domain.cell_points(ci), f.image_of_face(ids)
            faces = [ids, *(ids[:k] + ids[k + 1 :] for k in range(len(ids))), *((v,) for v in ids)]
            queries = [mean_image(f, face) for face in faces] + [beyond]
            for query in queries:
                expected = matrix_constrained_hull_dim(
                    points, piece.matrix, vec_sub(query, piece.offset)
                )
                assert constrained_hull_dim(points, images, query) == expected


class TestSignProfile:
    def test_identity_all_positive(self, identity_square):
        profile = sign_profile(identity_square)
        assert profile.classification == ALL_POSITIVE
        assert (profile.num_pos, profile.num_neg, profile.num_zero) == (2, 0, 0)

    def test_fold_mixed(self, fold1d):
        assert sign_profile(fold1d).classification == MIXED

    def test_doubling_all_positive_by_oracle(self, doubling2d):
        f = doubling2d.plmap
        oracle_dets = [
            det_by_permutation_expansion(p.matrix.entries) for p in f.pieces
        ]
        assert all(d > 0 for d in oracle_dets)
        assert len(oracle_dets) == 8
        profile = sign_profile(f)
        assert profile.classification == ALL_POSITIVE and profile.num_pos == 8


class TestFibers:
    def test_finite_fibers_flags(self, identity_square, fold1d):
        assert finite_fibers(identity_square)
        assert finite_fibers(fold1d)
        singular = generate(GenSpec("singular_cell", 2, seed=1)).plmap
        assert not finite_fibers(singular)

    def test_identity_fiber_is_the_point(self, identity_square):
        result = fiber(identity_square, (F(1, 3), F(1, 5)))
        assert isinstance(result, FiniteFiber)
        assert [fp.point for fp in result.points] == [(F(1, 3), F(1, 5))]

    def test_fold_fiber_with_signs(self, fold1d):
        result = fiber(fold1d, (F(1, 2),))
        assert [(fp.point, fp.signs) for fp in result.points] == [
            ((F(-1, 2),), (-1,)),
            ((F(1, 2),), (1,)),
        ]

    def test_breakpoint_deduplicated_with_both_cells(self, fold1d):
        result = fiber(fold1d, (F(0),))
        assert len(result.points) == 1
        assert result.points[0].cells == (0, 1)

    @pytest.mark.parametrize("spec", NONSINGULAR_SPECS, ids=str)
    def test_fiber_matches_brute_force(self, spec):
        f = generate(spec).plmap
        assert finite_fibers(f)
        for _, query in sample_points(f):
            result = fiber(f, query)
            expected = brute_force_fiber(f, query)
            assert [(fp.point, fp.cells) for fp in result.points] == expected

    def test_singular_cell_gives_witness_segment(self):
        instance = generate(GenSpec("singular_cell", 2, seed=1))
        f = instance.plmap
        collapsed = next(ci for ci, p in enumerate(f.pieces) if p.det_sign == 0)
        target = f.pieces[collapsed].apply(
            f.domain.barycenter(f.domain.cells[collapsed].vertex_ids)
        )
        result = fiber(f, target)
        assert isinstance(result, InfiniteFiber)
        a, b = result.segment
        assert a != b
        assert f.pieces[result.cell].apply(a) == target
        assert f.pieces[result.cell].apply(b) == target


class TestComponentGraph:
    def test_identity_single_node(self, identity_square):
        graph = component_graph(identity_square)
        assert graph.nodes == ((0, 1),)
        assert graph.edges == ()
        assert graph.is_connected

    def test_fold_two_nodes_one_edge(self, fold1d):
        graph = component_graph(fold1d)
        assert graph.nodes == ((0,), (1,))
        assert graph.edges == ((0, 1),)
        assert graph.is_connected

    def test_nodes_partition_nonsingular_cells(self):
        instance = generate(GenSpec("random_mixed_signs", 2, seed=11))
        graph = component_graph(instance.plmap)
        listed = sorted(ci for node in graph.nodes for ci in node)
        assert listed == list(range(len(instance.plmap.domain.cells)))

    def test_singular_cells_excluded(self):
        instance = generate(GenSpec("singular_cell", 1, seed=0))
        f = instance.plmap
        graph = component_graph(f)
        singular = {ci for ci, p in enumerate(f.pieces) if p.det_sign == 0}
        assert singular
        assert not singular & {ci for node in graph.nodes for ci in node}


class TestImageDimension:
    def test_edge_under_identity(self, identity_square):
        assert image_dimension(identity_square, [(0, 2)]) == 1

    def test_collapsed_cell(self):
        complex_ = validate_complex([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        collapse = build_plmap(complex_, [[0, 0], [1, 0], [0, 0]])
        assert collapse.pieces[0].det_sign == 0
        assert image_dimension(collapse, [(0, 1, 2)]) == 1

    def test_rejects_non_faces(self, identity_square):
        with pytest.raises(ValueError):
            image_dimension(identity_square, [(1, 3)])

    def test_union_takes_max(self, identity_square):
        assert image_dimension(identity_square, [(0,), (0, 1), (0, 1, 2)]) == 2


def degree_outcome(f, point):
    """The degree certificate at a point, or the type and text of its error."""
    try:
        return degree(f, point)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


class TestQueryPathStaysInIntegerFrames:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_same_results_without_rational_inverse(self, spec, forbid_inverse):
        def answers(f):
            points = sample_points(f, count=3)
            far = 1 + max(c for v in f.domain.vertices for c in v)
            outside = (far,) * f.ambient_dim
            return (
                [f.domain.locate(x) for x, _ in points] + [f.domain.locate(outside)],
                [fiber(f, y) for _, y in points],
                [degree_outcome(f, y) for _, y in points],
            )

        expected = answers(generate(spec).plmap)
        f = generate(spec).plmap  # a fresh map, so no cache from the run above helps
        forbid_inverse()
        assert answers(f) == expected


class TestFaceImageMembership:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_frame_sign_test_matches_probe(self, data):
        """The image frame's sign test is the vertex-form membership probe."""
        f = sample_map(data.draw(st.sampled_from(SPECS)))
        n = f.ambient_dim
        face = data.draw(st.sampled_from(sorted(f.domain.faces)))
        images = f.image_of_face(face)
        frame = f.images.frame(face)
        # only an affinely dependent image has no frame
        assert (frame is None) == (hull_dim(images) < len(face) - 1)
        if frame is None:
            return
        mode = data.draw(st.sampled_from(("face", "vertex image", "off axis", "off vertex")))
        if mode == "vertex image":
            # any vertex's image, often shared with or lying on the face's
            point = data.draw(st.sampled_from(f.vertex_images))
        else:
            # a face point with some weights 0, so often on a lower face
            weights = data.draw(
                st.lists(st.integers(0, 3), min_size=len(face), max_size=len(face)).filter(any)
            )
            point = tuple(
                sum(w * q[c] for w, q in zip(weights, images)) / sum(weights) for c in range(n)
            )
            step = F(data.draw(st.sampled_from((1, -1))), data.draw(st.sampled_from((64, 2**20))))
            if mode == "off axis":
                axis = data.draw(st.integers(0, n - 1))
                point = tuple(x + step * (c == axis) for c, x in enumerate(point))
            elif mode == "off vertex":
                # along the line through a vertex image: off the face when
                # that vertex's weight was 0 and the step is positive
                q = images[data.draw(st.integers(0, len(face) - 1))]
                point = tuple(x + step * (x - qc) for x, qc in zip(point, q))
        column = feasible.homogeneous_column(point)
        assert frame.contains(column) == vertex_form_hull_contains(images, point)

    @pytest.mark.parametrize("spec", NONSINGULAR_SPECS, ids=str)
    def test_nonsingular_maps_need_no_membership_probe(self, spec, monkeypatch):
        """Every face image of a nonsingular map is a nondegenerate simplex, so
        the scans and the degree never fall back to the probe of an image
        with no frame (`hull_meets_segment`)."""

        def answers(f):
            far = 1 + max(c for q in f.vertex_images for c in q)
            points = [y for _, y in sample_points(f, count=3)] + [(far,) * f.ambient_dim]
            return (
                [point_on_boundary_image(f, y) for y in points],
                [is_regular_value(f, y) for y in points],
                [degree_outcome(f, y) for y in points],
            )

        expected = answers(generate(spec).plmap)

        def forbidden(*args, **kwargs):
            raise AssertionError("membership probe called")

        f = generate(spec).plmap  # a fresh map, so no cache from the run above helps
        monkeypatch.setattr(feasible, "hull_meets_segment", forbidden)
        assert answers(f) == expected

    def test_first_degree_call_builds_frames_only_for_box_hits(self, monkeypatch):
        """On a fresh map, one frame per cell whose image box holds the point.

        At a regular point the one image scan reads the point's weights in
        the frame of each cell the cell grid names and in no face's frame, so
        the frames built are exactly the cells' box hits.
        """
        spec = GenSpec("random_orientation_preserving", 3)
        reference = sample_map(spec)
        y = next(
            y
            for _, y in sample_points(reference)
            if point_on_boundary_image(reference, y) is None and is_regular_value(reference, y)[0]
        )
        f = generate(spec).plmap
        built = []
        simplex_frame = feasible.simplex_frame

        def counting(columns):
            built.append(tuple(columns))
            return simplex_frame(columns)

        monkeypatch.setattr(feasible, "simplex_frame", counting)
        assert degree(f, y).regular_point_used == y
        hits = [
            ids
            for ids in f.domain.cell_ids
            if all(min(axis) <= c <= max(axis) for c, axis in zip(y, zip(*f.image_of_face(ids))))
        ]
        assert sorted(built) == sorted(f.images.cols(ids) for ids in hits)
        assert len(hits) < len(f.domain.cells)
