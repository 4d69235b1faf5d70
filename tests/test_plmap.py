import random
from fractions import Fraction

import pytest

from plopen.complexes import validate_complex
from plopen.degree import degree
from plopen.generators import _FIXED_DIMS, KINDS, GenSpec, generate
from plopen.instancefile import document_to_plmap, plmap_to_document
from plopen.linalg import Matrix, format_rational
from plopen.plmap import (
    ALL_POSITIVE,
    MIXED,
    DiscontinuityError,
    FiniteFiber,
    InfiniteFiber,
    build_plmap,
    component_graph,
    export_pieces,
    fiber,
    finite_fibers,
    image_dimension,
    ingest_pieces,
    sign_profile,
)

from oracles import (
    affine_piece_of,
    brute_force_fiber,
    det_by_permutation_expansion,
)


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


def sample_points(f, count=6):
    """(x, f(x)) pairs, at most `count` of each: vertices, barycenters of
    interior faces below cell dimension (shared by several cells), and seeded
    generic points of cells. The same map gives the same pairs."""
    rng = random.Random(7)
    domain, n = f.domain, f.ambient_dim
    vertices = rng.sample(range(len(domain.vertices)), min(count, len(domain.vertices)))
    out = [(domain.vertices[v], f.vertex_images[v]) for v in vertices]
    shared = domain.interior_faces(max_dim=n - 1)
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


class TestIngest:
    def test_identity_pieces_on_two_triangles(self):
        tri = [[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]]
        triples = [(pts, Matrix.identity(2), (0, 0)) for pts in tri]
        f = ingest_pieces(triples)
        assert all(p.matrix == Matrix.identity(2) for p in f.pieces)

    def test_discontinuous_pieces_rejected(self):
        tri = [[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]]
        triples = [
            (tri[0], Matrix.identity(2), (0, 0)),
            (tri[1], Matrix.identity(2), (1, 0)),
        ]
        with pytest.raises(DiscontinuityError) as err:
            ingest_pieces(triples)
        assert "discontinuous across face" in str(err.value)

    def test_fold_pieces_agree_at_breakpoint(self):
        triples = [
            ([(-1,), (0,)], Matrix.from_rows([[-1]]), (0,)),
            ([(0,), (1,)], Matrix.from_rows([[1]]), (0,)),
        ]
        f = ingest_pieces(triples)
        assert [p.det_sign for p in f.pieces] == [-1, 1]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_pieces_form_keeps_the_documents_pieces(self, spec, forbid_inverse):
        expected, _ = document_to_plmap(plmap_to_document(generate(spec).plmap))
        doc = pieces_document(expected)
        forbid_inverse()
        f, _ = document_to_plmap(doc)
        assert f.pieces == expected.pieces
        # the pieces form numbers vertices by first appearance in the cells
        assert dict(zip(f.domain.vertices, f.vertex_images)) == dict(
            zip(expected.domain.vertices, expected.vertex_images)
        )

    def test_round_trip_reproduces_pieces(self, doubling2d):
        f = doubling2d.plmap
        rebuilt = ingest_pieces(export_pieces(f))
        assert rebuilt.vertex_images == f.vertex_images
        assert [p.matrix for p in rebuilt.pieces] == [p.matrix for p in f.pieces]
        assert [p.offset for p in rebuilt.pieces] == [p.offset for p in f.pieces]


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
