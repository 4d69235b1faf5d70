"""Checks of every answer against `exact.py` and the properties the theorems force.

Each function returns a list of problems; an empty list means the answer is
right. Nothing is compared with a stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from corpus import MIXED, OP, SINGULAR, Written

# Kinds whose boundary map is the identity of the box, so the degree is +1 at
# every value inside the box (and 0 outside it): the interior perturbations.
_BOX_FIXED = {OP, MIXED, "identity"}

# (open, dim_branch_set) that the kind forces; n is the dimension.
_EXPECTED_OPENNESS = {
    OP: lambda n: (True, "-inf"),
    "identity": lambda n: (True, "-inf"),
    "shear": lambda n: (True, "-inf"),
    "mirror": lambda n: (True, "-inf"),
    MIXED: lambda n: (False, n - 1),
    SINGULAR: lambda n: (False, n),
    "doubling2d": lambda n: (True, 0),
    "fold1d": lambda n: (False, 0),
    "interior_fold1d": lambda n: (False, 0),
}

_CERTIFIES = {OP: 1, "identity": 1, "mirror": -1}
_REJECTED = {MIXED, SINGULAR, "doubling2d"}


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _point(raw) -> tuple:
    return tuple(Fraction(c) for c in raw)


def _input_problems(w: Written) -> list[str]:
    """The generated input has the properties its kind promises."""
    geom = w.geom
    problems = []
    if w.item.kind in (OP, MIXED):
        moved = [
            v for face in geom.boundary for v in face if geom.images[v] != geom.vertices[v]
        ]
        if moved:
            problems.append(f"input: boundary vertices {sorted(set(moved))} moved")
    if w.item.kind == OP and set(geom.signs) != {1}:
        problems.append("input: orientation-preserving map has a non-positive cell")
    return problems


def _box_degree(w: Written, y: tuple):
    """Degree forced by the boundary map, or None when the kind fixes none."""
    kind = w.item.kind
    if kind == "doubling2d":
        return 2  # the boundary octagon wraps twice around the diamond image
    if kind in _BOX_FIXED or kind == "mirror":
        res = w.item.spec.effective_resolution
        sign = -1 if kind == "mirror" else 1
        coords = (sign * y[0], *y[1:])
        inside = all(0 < c < res for c in coords)
        return sign if inside else 0
    return None


def check_regular_point(w: Written, point: tuple, reported_degree: int) -> list[str]:
    """The reported degree is the sign sum over the fiber of a regular value."""
    geom = w.geom
    if geom.on_boundary_image(point):
        return [f"regular point {point} lies on the boundary image"]
    total = geom.regular_sign_sum(point)
    if total is None:
        return [f"point {point} used as regular is not a regular value"]
    if total != reported_degree:
        return [f"degree {reported_degree} but the sign sum at {point} is {total}"]
    return []


# -- certify -------------------------------------------------------------------


def check_certify(w: Written, code, report: dict) -> list[str]:
    problems = _input_problems(w)
    if report.get("instance_digest") != digest(w.doc):
        problems.append("instance digest differs from the document's")
    kind = w.item.kind
    if kind in _CERTIFIES:
        if code != 0 or report.get("certified") is not True:
            return problems + [f"{kind} map not certified (exit {code}, stage {report.get('stage')})"]
        if report["degree"] != _CERTIFIES[kind]:
            problems.append(f"certified degree {report['degree']}, expected {_CERTIFIES[kind]}")
        problems += check_regular_point(w, _point(report["regular_point_used"]), report["degree"])
        return problems
    if kind not in _REJECTED:
        return problems + [f"no expectation for kind {kind}"]
    if code != 1 or report.get("certified") is not False:
        return problems + [f"{kind} map not rejected (exit {code})"]
    problems += _check_rejection(w, report["stage"], report["witness"])
    return problems


def _check_rejection(w: Written, stage: int, witness) -> list[str]:
    geom = w.geom
    if stage == 1:
        x = _point(witness)
        cells = [ci for ci in range(len(geom.cells)) if geom.cell_weights(ci, x) is not None]
        if not cells:
            return [f"stage 1 witness {x} is outside the support"]
        if geom.on_boundary(x):
            return [f"stage 1 witness {x} is on the boundary"]
        if not geom.on_boundary_image(geom.image_in_cell(cells[0], x)):
            return [f"stage 1 witness {x} does not map onto the boundary image"]
        return []
    if stage == 2:
        boundary = set(geom.boundary)
        if len(witness) != 2 or not all(tuple(face) in boundary for face in witness):
            return [f"stage 2 witness {witness} is not a pair of boundary faces"]
        return []
    if stage == 3:
        pos, neg, zero = counts = geom.sign_counts()
        if tuple(witness) != counts:
            return [f"stage 3 witness {witness}, own sign counts {counts}"]
        if zero == 0 and (pos == 0 or neg == 0):
            return [f"stage 3 rejected a coherently oriented map {counts}"]
        return []
    if stage == 4:
        if len(witness) != 2 or not all(0 <= c < len(geom.cells) for c in witness):
            return [f"stage 4 witness {witness} is not a pair of cells"]
        return []
    return [f"rejected at stage {stage}"]


# -- check ---------------------------------------------------------------------


def check_batch(batch: list[Written], code, report: dict) -> list[str]:
    results = report.get("results", {})
    if code == 4:
        return ["exit 4: the openness conditions disagree"]
    if set(results) != {w.path.name for w in batch}:
        return [f"batch reports {sorted(results)}"]
    problems = []
    any_closed = False
    for w in batch:
        payload = results[w.path.name]
        problems += [f"{w.path.name}: {p}" for p in _check_openness(w, payload)]
        any_closed |= not payload.get("coherently_oriented", True)
    if code != (1 if any_closed else 0):
        problems.append(f"batch exit {code}")
    return problems


def _check_openness(w: Written, payload: dict) -> list[str]:
    geom, n = w.geom, w.geom.n
    problems = _input_problems(w)
    if payload["instance_digest"] != digest(w.doc):
        problems.append("instance digest differs from the document's")
    pos, neg, zero = geom.sign_counts()
    profile = payload["sign_profile"]
    if (profile["num_pos"], profile["num_neg"], profile["num_zero"]) != (pos, neg, zero):
        problems.append(f"sign profile {profile}, own determinant signs {(pos, neg, zero)}")
    coherent = zero == 0 and (pos == 0 or neg == 0)
    if payload["coherently_oriented"] != coherent:
        problems.append(f"coherently_oriented {payload['coherently_oriented']}, own {coherent}")
    if not payload["all_agree"]:
        problems.append("conditions disagree")
    for cond in ("cond_ii", "cond_iii", "cond_iv"):
        if payload[cond]["holds"] != coherent:
            problems.append(f"{cond} holds={payload[cond]['holds']}")
        if payload[cond]["finite_fibers"] != (zero == 0):
            problems.append(f"{cond} finite_fibers={payload[cond]['finite_fibers']}")
    expected_open, expected_dim = _EXPECTED_OPENNESS[w.item.kind](n)
    if coherent != expected_open:
        problems.append(f"{w.item.kind} map has open={coherent}")
    if payload["dim_branch_set"] != expected_dim:
        problems.append(f"dim_branch_set {payload['dim_branch_set']}, expected {expected_dim}")
    oracle = payload["oracle_i"]
    if coherent and (oracle["failures"] or not oracle["open_at_all_samples"]):
        problems.append(f"oracle reports {oracle['failures']} failures on an open map")
    if zero and not oracle["failures"]:
        problems.append("oracle finds no failure on a map with a collapsed cell")
    return problems


# -- query ---------------------------------------------------------------------


def check_query(w: Written, kind: str, y: tuple, answer, fib) -> list[str]:
    """answer: ("degree", DegreeCertificate) or ("undefined", message)."""
    geom = w.geom
    problems = []
    if kind == "boundary" and not geom.on_boundary_image(y):
        problems.append("a boundary query point is not on the boundary image")
    if geom.on_boundary_image(y):
        if answer[0] != "undefined":
            problems.append(f"degree {answer} on the boundary image; it is undefined there")
    elif answer[0] != "degree":
        problems.append(f"degree reported {answer[0]} off the boundary image")
    else:
        cert = answer[1]
        if tuple(cert.query_point) != y:
            problems.append("certificate names another query point")
        used = tuple(cert.regular_point_used)
        problems += check_regular_point(w, used, cert.degree)
        own_points, _ = geom.brute_fiber(used)
        own = sorted((x, geom.signs[min(cells)]) for x, cells in own_points.items())
        if sorted(cert.fiber) != own:
            problems.append("certificate fiber differs from the brute-force fiber")
        if used == y and geom.regular_sign_sum(y) is None:
            problems.append("irregular query point treated as regular")
        if kind == "lowface" and used == y:
            problems.append("a value on a lower-dimensional face image was not perturbed")
        expected = _box_degree(w, y)
        if expected is not None and cert.degree != expected:
            problems.append(f"degree {cert.degree}, the boundary map forces {expected}")
    problems += _check_fiber(w, y, fib)
    return problems


def _check_fiber(w: Written, y: tuple, fib) -> list[str]:
    geom = w.geom
    own_points, segment_cells = geom.brute_fiber(y)
    if hasattr(fib, "segment"):
        a, b = (tuple(p) for p in fib.segment)
        if fib.cell not in segment_cells:
            return [f"infinite fiber claimed in cell {fib.cell}, own fiber there is not a segment"]
        if a == b:
            return ["infinite-fiber witness segment is a point"]
        for end in (a, b):
            if geom.image_in_cell(fib.cell, end) != y:
                return [f"witness endpoint {end} does not map onto {y}"]
        return []
    if segment_cells:
        return [f"finite fiber reported; cells {sorted(segment_cells)} hold a segment of preimages"]
    reported = {tuple(fp.point): (set(fp.cells), list(fp.signs)) for fp in fib.points}
    if set(reported) != set(own_points):
        return [f"fiber {sorted(reported)}, brute force {sorted(own_points)}"]
    for x, (cells, signs) in reported.items():
        if cells != own_points[x]:
            return [f"fiber point {x} in cells {sorted(cells)}, own {sorted(own_points[x])}"]
        if sorted(signs) != sorted(geom.signs[c] for c in cells):
            return [f"fiber point {x} signs {signs}"]
    return []
