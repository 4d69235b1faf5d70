"""Command-line surface.

Reports are JSON on stdout (exact rational strings, deterministic key order);
diagnostics go to stderr. Exit codes are a total function of the verdict:

    0  success (valid / open / certified / computed)
    1  exact conditions fail (map not open; whyburn rejected; homotopy
       non-constant or hypothesis violated)
    2  instance validation violations
    3  malformed input file, query point (`--at`, `--gamma`) or oracle count
       (`--oracle-points`, `--oracle-dirs`)
    4  exact openness conditions disagree among themselves (implementation
       bug sentinel: the conditions are provably equivalent, so this cannot
       happen for a correct build)
    5  degree undefined (query point on the boundary image)

Decimal rendering of any rational output is available only behind --approx
and is labeled inexact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import instancefile
from .complexes import InvalidComplexError
from .degree import (
    BoundaryImageError,
    HomotopyHypothesisViolation,
    PerturbationExhausted,
    degree,
    homotopy_degree_constant,
)
from .generators import GenSpec, GenerationError, generate
from .instancefile import ParseError
from .linalg import format_rational, parse_rational
from .openness import OracleConfig, check_conditions, openness_oracle
from .plmap import (
    DiscontinuityError,
    FiniteFiber,
    InfiniteFiber,
    component_graph,
    fiber,
)
from .whyburn import Certified, InvalidBallError, certify_ball_map, make_ball_instance

EXIT_OK = 0
EXIT_CONDITION_FAIL = 1
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_DISAGREEMENT = 4
EXIT_DEGREE_UNDEFINED = 5

SEED_ENV_VAR = "PLOPEN_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    return int(raw) if raw else 0


def _point_strings(point) -> list[str]:
    return [format_rational(c) for c in point]


def _parse_point(text: str, dim: int) -> tuple:
    """An exact point from "p/q,p/q,..." with exactly dim coordinates."""
    try:
        point = tuple(parse_rational(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"point {text!r}: {exc}") from exc
    if len(point) != dim:
        raise ParseError(f"point {text!r} has {len(point)} coordinates, expected {dim}")
    return point


def _parse_count(text: str, flag: str) -> int:
    """A non-negative decimal integer flag value."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{flag} {text!r}: expected a non-negative integer")
    return int(text)


def _oracle_config(args) -> OracleConfig:
    return OracleConfig(
        _parse_count(args.oracle_points, "--oracle-points"),
        _parse_count(args.oracle_dirs, "--oracle-dirs"),
        args.seed,
    )


def _emit(report: dict, exit_status: int, approx: bool = False) -> int:
    report["exit_status"] = exit_status
    if approx:
        report["approx_is_inexact"] = True
    print(json.dumps(report, sort_keys=True, indent=2))
    return exit_status


def _approx_value(value):
    if isinstance(value, str) and ("/" in value or value.lstrip("-").isdigit()):
        return float(Fraction(value))
    if isinstance(value, list):
        return [_approx_value(v) for v in value]
    return value


_INPUT_ERRORS = (ParseError, InvalidComplexError, DiscontinuityError)


def _input_failure(exc: Exception) -> tuple[dict, int]:
    """Report fields and exit status for one of the _INPUT_ERRORS."""
    if isinstance(exc, ParseError):
        return {"error": str(exc)}, EXIT_PARSE
    return {"valid": False, "violations": [str(v) for v in exc.violations]}, EXIT_INVALID


def _load(path: str) -> tuple:
    doc = instancefile.load_document(path)
    plmap, metadata = instancefile.document_to_plmap(doc)
    return plmap, metadata, instancefile.instance_digest(doc)


def _report_skeleton(command: str, digest: str | None = None) -> dict:
    report = {"command": command, "format_version": instancefile.FORMAT_VERSION}
    if digest is not None:
        report["instance_digest"] = digest
    return report


def _cmd_validate(args) -> int:
    report = _report_skeleton("validate")
    try:
        doc = instancefile.load_document(args.path)
    except ParseError as exc:
        report["error"] = str(exc)
        return _emit(report, EXIT_PARSE)
    report["instance_digest"] = instancefile.instance_digest(doc)
    try:
        plmap, metadata = instancefile.document_to_plmap(doc)
    except ParseError as exc:
        report["error"] = str(exc)
        return _emit(report, EXIT_PARSE)
    except (InvalidComplexError, DiscontinuityError) as exc:
        report["valid"] = False
        report["violations"] = [str(v) for v in exc.violations]
        return _emit(report, EXIT_INVALID)
    report["valid"] = True
    report["num_vertices"] = len(plmap.domain.vertices)
    report["num_cells"] = len(plmap.domain.cells)
    report["ambient_dim"] = plmap.ambient_dim
    return _emit(report, EXIT_OK)


def _openness_payload(plmap, config: OracleConfig) -> tuple[dict, int]:
    verdict = check_conditions(plmap, config)
    payload = {
        "cond_ii": {
            "finite_fibers": verdict.cond_ii.finite_fibers,
            "sign_not_mixed": verdict.cond_ii.sign_not_mixed,
            "holds": verdict.cond_ii.holds,
        },
        "cond_iii": {
            "finite_fibers": verdict.cond_iii.finite_fibers,
            "sign_not_mixed": verdict.cond_iii.sign_not_mixed,
            "holds": verdict.cond_iii.holds,
        },
        "cond_iv": {
            "finite_fibers": verdict.cond_iv.finite_fibers,
            "dim_branch_ok": verdict.cond_iv.dim_branch_ok,
            "holds": verdict.cond_iv.holds,
        },
        "coherently_oriented": verdict.coherent,
        "all_agree": verdict.all_agree,
        "sign_profile": {
            "num_pos": verdict.profile.num_pos,
            "num_neg": verdict.profile.num_neg,
            "num_zero": verdict.profile.num_zero,
            "classification": verdict.profile.classification,
        },
        "dim_branch_set": (
            "-inf" if verdict.branch.dim_branch_set is None else verdict.branch.dim_branch_set
        ),
    }
    if verdict.oracle is not None:
        payload["oracle_i"] = {
            "checked": True,
            "open_at_all_samples": verdict.oracle.open_at_all_samples,
            "samples": verdict.oracle.samples,
            "failures": len(verdict.oracle.failures),
        }
    if not verdict.all_agree:
        status = EXIT_DISAGREEMENT
    elif verdict.coherent:
        status = EXIT_OK
    else:
        status = EXIT_CONDITION_FAIL
    return payload, status


def _cmd_check_open(args) -> int:
    config = _oracle_config(args)
    if args.all:
        directory = Path(args.path)
        files = sorted(p for p in directory.iterdir() if p.suffix == ".json")
        report = _report_skeleton("check-open")
        report["batch"] = True
        results = {}
        worst = EXIT_OK
        for path in files:
            try:
                plmap, _, digest = _load(str(path))
            except _INPUT_ERRORS as exc:
                entry, status = _input_failure(exc)
                entry["exit_status"] = status
            else:
                entry, status = _openness_payload(plmap, config)
                entry["instance_digest"] = digest
            results[path.name] = entry
            if status == EXIT_DISAGREEMENT or worst == EXIT_DISAGREEMENT:
                worst = EXIT_DISAGREEMENT
            else:
                worst = max(worst, status)
        report["results"] = results
        return _emit(report, worst)

    plmap, _, digest = _load(args.path)
    report = _report_skeleton("check-open", digest)
    payload, status = _openness_payload(plmap, config)
    report.update(payload)
    return _emit(report, status)


def _cmd_degree(args) -> int:
    plmap, _, digest = _load(args.path)
    report = _report_skeleton("degree", digest)
    point = _parse_point(args.at, plmap.ambient_dim)
    try:
        certificate = degree(plmap, point)
    except BoundaryImageError as exc:
        report["error"] = f"degree undefined: {exc}"
        return _emit(report, EXIT_DEGREE_UNDEFINED)
    except PerturbationExhausted as exc:
        report["error"] = str(exc)
        report["attempted_points"] = [_point_strings(p) for p in exc.attempts]
        return _emit(report, EXIT_CONDITION_FAIL)
    report["degree"] = certificate.degree
    report["query_point"] = _point_strings(certificate.query_point)
    report["regular_point_used"] = _point_strings(certificate.regular_point_used)
    report["fiber"] = [
        {"point": _point_strings(p), "sign": s} for p, s in certificate.fiber
    ]
    report["path_evidence"] = {
        "statement": certificate.path_evidence.statement,
        "obstacles": [
            {"face": list(face), "segment_hits": hit}
            for face, hit in certificate.path_evidence.obstacle_checks
        ],
    }
    if args.approx:
        report["approx"] = {
            "query_point": _approx_value(report["query_point"]),
            "fiber": [_approx_value(e["point"]) for e in report["fiber"]],
        }
    return _emit(report, EXIT_OK, approx=args.approx)


def _cmd_fibers(args) -> int:
    plmap, _, digest = _load(args.path)
    report = _report_skeleton("fibers", digest)
    result = fiber(plmap, _parse_point(args.at, plmap.ambient_dim))
    if isinstance(result, InfiniteFiber):
        report["finite"] = False
        report["witness_segment"] = [
            _point_strings(result.segment[0]),
            _point_strings(result.segment[1]),
        ]
        report["cell"] = result.cell
    else:
        assert isinstance(result, FiniteFiber)
        report["finite"] = True
        report["points"] = [
            {
                "point": _point_strings(fp.point),
                "cells": list(fp.cells),
                "signs": list(fp.signs),
            }
            for fp in result.points
        ]
    return _emit(report, EXIT_OK)


def _cmd_branch_set(args) -> int:
    from .openness import branch_set

    plmap, _, digest = _load(args.path)
    report = _report_skeleton("branch-set", digest)
    branch = branch_set(plmap)
    report["branch_faces"] = [
        {
            "face": list(bf.face),
            "dim": bf.dim,
            "reason": bf.reason,
            "cells": list(bf.cells),
        }
        for bf in branch.branch_faces
    ]
    report["dim_branch_set"] = "-inf" if branch.dim_branch_set is None else branch.dim_branch_set
    return _emit(report, EXIT_OK)


def _cmd_graph(args) -> int:
    plmap, _, digest = _load(args.path)
    report = _report_skeleton("graph", digest)
    graph = component_graph(plmap)
    report["nodes"] = [list(node) for node in graph.nodes]
    report["edges"] = [list(edge) for edge in graph.edges]
    report["num_components"] = len(graph.nodes)
    report["connected"] = graph.is_connected
    return _emit(report, EXIT_OK)


def _cmd_whyburn(args) -> int:
    plmap, _, digest = _load(args.path)
    report = _report_skeleton("whyburn", digest)
    try:
        instance = make_ball_instance(plmap)
    except InvalidBallError as exc:
        report["error"] = "not a combinatorial ball"
        report["reasons"] = list(exc.reasons)
        return _emit(report, EXIT_INVALID)
    outcome = certify_ball_map(instance)
    if isinstance(outcome, Certified):
        report["certified"] = True
        report["degree"] = outcome.degree
        report["regular_point_used"] = _point_strings(
            outcome.certificate.regular_point_used
        )
        return _emit(report, EXIT_OK)
    report["certified"] = False
    report["stage"] = outcome.stage
    report["reason"] = outcome.reason
    witness = outcome.witness
    if isinstance(witness, tuple) and witness and isinstance(witness[0], Fraction):
        report["witness"] = _point_strings(witness)
    else:
        report["witness"] = json.loads(json.dumps(witness, default=str))
    return _emit(report, EXIT_CONDITION_FAIL)


def _cmd_homotopy(args) -> int:
    map_f, _, digest_f = _load(args.path_f)
    map_g, _, digest_g = _load(args.path_g)
    report = _report_skeleton("homotopy")
    report["instance_digest"] = digest_f
    report["instance_digest_g"] = digest_g
    ends = args.gamma.split(";")
    if len(ends) != 2:
        raise ParseError(f"gamma {args.gamma!r}: expected two points separated by ';'")
    gamma = tuple(_parse_point(text, map_f.ambient_dim) for text in ends)
    count = args.samples
    times = [Fraction(k, count - 1) for k in range(count)] if count > 1 else [Fraction(0)]
    try:
        verdict = homotopy_degree_constant(map_f, map_g, gamma, times)
    except HomotopyHypothesisViolation as exc:
        report["hypothesis_violation"] = {
            "t": format_rational(exc.t),
            "face": list(exc.face),
        }
        return _emit(report, EXIT_CONDITION_FAIL)
    report["constant"] = verdict.constant
    report["degrees"] = list(verdict.degrees)
    report["samples"] = [format_rational(t) for t in verdict.samples]
    report["note"] = verdict.note
    return _emit(report, EXIT_OK if verdict.constant else EXIT_CONDITION_FAIL)


def _cmd_gen(args) -> int:
    report = _report_skeleton("gen")
    spec = GenSpec(
        kind=args.kind,
        dim=args.dim,
        resolution=args.resolution,
        seed=args.seed,
        denominator_bound=args.den_bound,
    )
    try:
        instance = generate(spec)
    except GenerationError as exc:
        report["error"] = str(exc)
        return _emit(report, EXIT_CONDITION_FAIL)
    doc = instancefile.plmap_to_document(
        instance.plmap, metadata={"generator": spec.to_metadata()}
    )
    digest = instancefile.instance_digest(doc)
    report["instance_digest"] = digest
    report["generator"] = spec.to_metadata()
    if args.out:
        instancefile.save_document(args.out, doc)
        report["written"] = args.out
    else:
        report["instance"] = doc
    return _emit(report, EXIT_OK)


def _cmd_oracle_open(args) -> int:
    config = _oracle_config(args)
    plmap, _, digest = _load(args.path)
    report = _report_skeleton("oracle-open", digest)
    result = openness_oracle(plmap, config.num_points, config.num_directions, config.rng_seed)
    report["open_at_all_samples"] = result.open_at_all_samples
    report["samples"] = result.samples
    report["failures"] = [
        {
            "point": _point_strings(fail.point),
            "carrier": list(fail.carrier),
            "direction": _point_strings(fail.direction),
            "epsilon": format_rational(fail.epsilon),
            "target": _point_strings(fail.target),
        }
        for fail in result.failures
    ]
    return _emit(report, EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plopen",
        description="Exact openness, degree, branch-set and ball-map analysis "
        "of piecewise-affine maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an instance file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check-open", help="evaluate the openness conditions")
    p.add_argument("path")
    p.add_argument("--all", action="store_true", help="treat PATH as a directory of instances")
    p.add_argument("--oracle-points", default="20")
    p.add_argument("--oracle-dirs", default="64")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=_cmd_check_open)

    p = sub.add_parser("degree", help="degree certificate at a query point")
    p.add_argument("path")
    p.add_argument("--at", required=True, help="query point, e.g. '1/2,3'")
    p.add_argument("--approx", action="store_true", help="add inexact decimal renderings")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("fibers", help="exact preimage of a point")
    p.add_argument("path")
    p.add_argument("--at", required=True)
    p.set_defaults(func=_cmd_fibers)

    p = sub.add_parser("branch-set", help="branch faces and their dimension")
    p.add_argument("path")
    p.set_defaults(func=_cmd_branch_set)

    p = sub.add_parser("graph", help="component graph of the nonsingular locus")
    p.add_argument("path")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("whyburn", help="certify a ball map as a global homeomorphism")
    p.add_argument("path")
    p.set_defaults(func=_cmd_whyburn)

    p = sub.add_parser("homotopy", help="sampled homotopy-invariance check")
    p.add_argument("path_f")
    p.add_argument("path_g")
    p.add_argument("--gamma", required=True, help="path endpoints, e.g. '0,0;1,1'")
    p.add_argument("--samples", type=int, default=33)
    p.set_defaults(func=_cmd_homotopy)

    p = sub.add_parser("gen", help="generate a deterministic instance")
    p.add_argument("--kind", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--resolution", type=int, default=0)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--den-bound", type=int, default=64)
    p.add_argument("--out", help="write the instance file here")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle-open", help="probabilistic openness oracle only")
    p.add_argument("path")
    p.add_argument("--oracle-points", default="20")
    p.add_argument("--oracle-dirs", default="64")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=_cmd_oracle_open)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        report, status = _input_failure(exc)
        report["command"] = args.command
        return _emit(report, status)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
