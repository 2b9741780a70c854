"""Command-line entry point.

Exit codes: 0 success / property verified, 1 property violation found,
2 usage error, 3 resource bound exceeded.  Outputs are deterministic
JSON documents carrying a run manifest (inputs hashed, no timestamps).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .diagram import Diagram, DiagramError, curvature_weights, is_degenerate_digon, \
    is_phi_reduced, is_reduced, uniform_weights, validate_howie
from .freeprod import FreeProduct
from .groups import GroupTable
from .moves import MoveError, ReductionBoundExceeded, reduce_to_chain
from .presentation import (RelPresentation, RewriteError, back_substitute,
                           initial_rewrite, minimize, verify_conditions)
from .search import (EnumerationConfig, SearchBoundExceeded,
                     brute_force_enumerate, curvature_audit, enumerate_diagrams)
from .conjugacy import (OracleBoundExceeded, center_certificate, malnormality_oracle,
                        reduce_conjugator)
from .words import WordParseError, is_cyclically_reduced, is_unimodular, \
    parse_h_word, parse_word, word_str

OK, VIOLATION, USAGE, RESOURCE = 0, 1, 2, 3


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest(args: argparse.Namespace, inputs: list[str], status: int) -> dict:
    outputs = [os.path.basename(v) for k, v in sorted(vars(args).items())
               if k in ("out", "outdir", "trace") and v]
    return {
        "subcommand": args.command + " " + getattr(args, "subcommand", ""),
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("command", "subcommand", "func") and v is not None},
        "input_hashes": {os.path.basename(p): _sha(p) for p in inputs},
        "outputs": outputs,
        "exit_status": status,
    }


def _emit(args, inputs: list[str], status: int, result: dict) -> int:
    doc = {"manifest": _manifest(args, inputs, status), "result": result}
    text = json.dumps(doc, sort_keys=True, indent=1)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return status


def _load_group(path: str) -> GroupTable:
    return GroupTable.from_file(path)


# -- word ----------------------------------------------------------------


def cmd_word_check(args) -> int:
    group = _load_group(args.group)
    base = FreeProduct(group, args.s)
    w = parse_word(args.word, base)
    red = w.free_reduce()
    result = {
        "word": word_str(red),
        "t_exponent_sum": red.exponent_sum(),
        "unimodular": is_unimodular(w),
        "cyclically_reduced": is_cyclically_reduced(w),
    }
    if args.k:
        result["t_exponent_residue"] = red.exponent_sum() % args.k
    status = OK if result["unimodular"] else VIOLATION
    return _emit(args, [args.group], status, result)


# -- presentation ----------------------------------------------------------


def cmd_presentation_rewrite(args) -> int:
    group = _load_group(args.group)
    w = parse_word(args.word, FreeProduct(group, 0))
    pres = initial_rewrite(group, w, args.k)
    if not args.no_minimize:
        pres = minimize(pres)
    report = verify_conditions(pres)
    from .words import cyclic_equal
    oracle = cyclic_equal(back_substitute(pres), w.pow(args.k))
    result = {
        "presentation": pres.to_dict(),
        "conditions_ok": report.all_ok,
        "back_substitution_ok": oracle,
    }
    status = OK if (report.all_ok or args.no_minimize) and oracle else VIOLATION
    return _emit(args, [args.group], status, result)


def cmd_presentation_verify(args) -> int:
    pres = RelPresentation.from_file(args.pres)
    report = verify_conditions(pres)
    result = {
        "s": pres.s, "m": pres.m, "k": pres.k,
        "conditions": {
            "nonempty_product": [report.nonempty_product.ok, report.nonempty_product.witness],
            "fragments_outside_slices": [report.fragments_outside_slices.ok,
                                         report.fragments_outside_slices.witness],
            "certificate_exists": [report.certificate_exists.ok,
                                   report.certificate_exists.witness],
            "slice_structure": [report.slice_structure.ok, report.slice_structure.witness],
        },
    }
    return _emit(args, [args.pres], OK if report.all_ok else VIOLATION, result)


# -- diagram ----------------------------------------------------------------


def _load_diagram(path: str) -> Diagram:
    with open(path, encoding="utf-8") as fh:
        return Diagram.from_dict(json.load(fh))


def cmd_diagram_validate(args) -> int:
    d = _load_diagram(args.infile)
    result = {
        "vertices": len(d.vertices), "edges": len(d.edges),
        "faces": len(d.faces), "chi": d.chi,
        "connected": d.is_connected(),
    }
    status = OK
    if args.pres:
        pres = RelPresentation.from_file(args.pres)
        rep = validate_howie(d, pres, allow_null_faces=not args.strict)
        result["howie_valid"] = rep.ok
        result["failures"] = list(rep.failures)
        result["face_kinds"] = [fc.kind for fc in rep.face_classes]
        result["reduced"] = is_reduced(d)[0]
        result["clean"] = is_phi_reduced(d, pres)[0]
        result["degenerate_digon"] = is_degenerate_digon(d, pres)
        status = OK if rep.ok else VIOLATION
    return _emit(args, [args.infile] + ([args.pres] if args.pres else []), status, result)


_FRACTION = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _load_weights(path: str, d: Diagram) -> dict:
    """A weight file: one JSON object mapping corner refs of ``d``, written
    ``"face,slot"``, to an integer or a ``"p/q"`` string.  A float is
    refused, since it would become a binary fraction, and so is a key
    given twice, of which JSON keeps only the last."""
    def unique(pairs: list) -> dict:
        obj = {}
        for key, val in pairs:
            if key in obj:
                raise DiagramError(f"weight file {path}: {key!r} is given twice")
            obj[key] = val
        return obj

    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh, object_pairs_hook=unique)
    if not isinstance(raw, dict):
        raise DiagramError(f"weight file {path}: expected an object of corner weights")
    corners = {f"{fi},{si}": (fi, si) for fi, face in enumerate(d.faces)
               for si in range(len(face))}
    weights = {}
    for key, val in raw.items():
        if key not in corners:
            raise DiagramError(f"weight file {path}: {key!r} is not a corner of the diagram")
        if isinstance(val, int) and not isinstance(val, bool):
            weights[corners[key]] = Fraction(val)
        elif isinstance(val, str) and _FRACTION.fullmatch(val):
            weights[corners[key]] = Fraction(val)
        else:
            raise DiagramError(f"weight file {path}: the weight of {key!r} must be an "
                               f"integer or a \"p/q\" string, not {json.dumps(val)}")
    return weights


def cmd_diagram_curvature(args) -> int:
    d = _load_diagram(args.infile)
    inputs = [args.infile]
    audit_doc = None
    if args.weights == "uniform":
        weights = uniform_weights(d)
    elif args.weights == "rule":
        if not args.pres:
            print(json.dumps({"error": "--weights rule needs --pres"}))
            return USAGE
        pres = RelPresentation.from_file(args.pres)
        inputs.append(args.pres)
        if args.audit:
            audit = curvature_audit(d, pres)
            audit_doc = {"ok": audit.ok,
                         "entries": [[e.kind, e.index, e.value, e.ok]
                                     for e in audit.entries]}
        try:
            weights = curvature_weights(d, pres).weights
        except DiagramError as exc:
            # the weight rule does not apply: a violation, as the audit types it
            result = {"audit": audit_doc} if audit_doc is not None else {"weight_rule": str(exc)}
            return _emit(args, inputs, VIOLATION, result)
    else:
        weights = _load_weights(args.weights, d)
        inputs.append(args.weights)
    report = d.curvature(weights)
    result = {
        "chi": report.chi,
        "total": str(report.total),
        "identity_holds": report.satisfies_identity,
        "vertex_curvatures": [str(k) for k in report.vertex_curvatures],
        "face_curvatures": [str(k) for k in report.face_curvatures],
    }
    status = OK if report.satisfies_identity else VIOLATION
    if audit_doc is not None:
        result["audit"] = audit_doc
        status = OK if audit_doc["ok"] and report.satisfies_identity else VIOLATION
    return _emit(args, inputs, status, result)


def cmd_diagram_reduce(args) -> int:
    d = _load_diagram(args.infile)
    pres = RelPresentation.from_file(args.pres)
    try:
        chain, trace = reduce_to_chain(d, pres)
    except ReductionBoundExceeded as exc:
        return _emit(args, [args.infile, args.pres], RESOURCE, {"error": str(exc)})
    os.makedirs(args.outdir, exist_ok=True)
    paths = []
    for i, dd in enumerate(chain.diagrams):
        path = os.path.join(args.outdir, f"chain_{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dd.to_dict(), sort_keys=True, indent=1) + "\n")
        paths.append(path)
    trace_doc = [{"move": e.move, "edge": list(e.edge_darts),
                  "before": e.before, "after": list(e.after),
                  "links": list(e.link_labels) if e.link_labels else None}
                 for e in trace.entries]
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(trace_doc, sort_keys=True, indent=1) + "\n")
    links_conjugate = chain.links_conjugate()
    result = {
        "chain_length": len(chain.diagrams),
        "chain_files": [os.path.basename(p) for p in paths],
        "links_conjugate": links_conjugate,
        "moves": [e.move for e in trace.entries],
    }
    status = OK if links_conjugate else VIOLATION
    return _emit(args, [args.infile, args.pres], status, result)


# -- conjugacy ---------------------------------------------------------------


def cmd_conjugacy_reduce(args) -> int:
    pres = RelPresentation.from_file(args.pres)
    amb = pres.ambient
    u = parse_word(args.u, amb)
    h = parse_h_word(args.h, amb)
    outcome = reduce_conjugator(u, h)
    result = {
        "status": outcome.status,
        "final_conjugator": word_str(outcome.final_conjugator),
        "steps": outcome.steps,
        "residual_t_power": outcome.residual_t_power,
        "final_conjugate": str(outcome.final_conjugate) if outcome.final_conjugate else None,
        "stuck_at": list(outcome.stuck_at) if outcome.stuck_at else None,
        "substitutions": [list(sub) for sub in outcome.substitutions],
    }
    return _emit(args, [args.pres], OK, result)


def cmd_conjugacy_oracle(args) -> int:
    group = _load_group(args.group)
    g = group.index_of(args.g)
    try:
        rep = malnormality_oracle(group, g, args.k, args.max_syllables)
    except OracleBoundExceeded as exc:
        return _emit(args, [args.group], RESOURCE, {"error": str(exc)})

    def model_word(letters) -> list:
        """Copy 0 of the model is the base group G, copy 1 is <x>."""
        return [["Gx"[copy], value] for copy, value in letters]

    result = {
        "malnormal_at_bound": rep.holds,
        "checked": rep.checked,
        "counterexample": None if rep.counterexample is None else {
            "conjugator": model_word(rep.counterexample[0]),
            "element": group.names[rep.counterexample[1]],
            "value": model_word(rep.counterexample[2]),
        },
    }
    return _emit(args, [args.group], OK if rep.holds else VIOLATION, result)


def cmd_conjugacy_center(args) -> int:
    pres = RelPresentation.from_file(args.pres)
    rep = center_certificate(pres)
    result = {
        "trivial_center_certified": rep.trivial_center_certified,
        "group_nontrivial": rep.group_nontrivial,
        "t_outside_base": list(rep.t_outside_base) if rep.t_outside_base else None,
        "element_checks": [list(c) for c in rep.element_checks],
        "notes": rep.notes,
    }
    return _emit(args, [args.pres], OK if rep.trivial_center_certified else VIOLATION,
                 result)


# -- search -------------------------------------------------------------------


def cmd_search_enumerate(args) -> int:
    pres = RelPresentation.from_file(args.pres)
    config = EnumerationConfig(pres, max_interior_faces=args.max_faces,
                               digon_syllables=args.digon_syllables)
    try:
        if args.brute_force:
            res = brute_force_enumerate(config)
        else:
            res = enumerate_diagrams(config)
    except SearchBoundExceeded as exc:
        return _emit(args, [args.pres], RESOURCE, {"error": str(exc)})
    survivors = []
    for form in sorted(res.survivors):
        d = res.survivors[form]
        audit = curvature_audit(d, pres)
        survivors.append({
            "degenerate_digon": is_degenerate_digon(d, pres),
            "exterior_labels": [str(d.vertex_label(v))
                                for v in sorted(d.exterior_vertices)],
            "audit_ok": audit.ok,
            "diagram": d.to_dict(),
        })
    result = {
        "survivor_count": len(survivors),
        "survivors": survivors,
        "counts_per_multiset": {" + ".join(k): v
                                for k, v in sorted(res.counts_per_multiset.items())},
        "matchings_tried": res.matchings_tried,
        "complete": res.complete,
    }
    status = OK if res.complete else RESOURCE
    return _emit(args, [args.pres], status, result)


# -- parser --------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="relpres",
        description="Exact tools for one-relator relative presentations, "
                    "labeled diagrams, curvature tests, and conjugacy certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    word = sub.add_parser("word", help="word utilities").add_subparsers(
        dest="subcommand", required=True)
    check = word.add_parser("check", help="parse a word, report exponent data")
    check.add_argument("--group", required=True)
    check.add_argument("--word", required=True)
    check.add_argument("--s", type=int, default=0, help="ambient copy count")
    check.add_argument("--k", type=int, help="power for the residue report")
    check.add_argument("--out")
    check.set_defaults(func=cmd_word_check)

    pres = sub.add_parser("presentation", help="rewriting pipeline").add_subparsers(
        dest="subcommand", required=True)
    rew = pres.add_parser("rewrite")
    rew.add_argument("--group", required=True)
    rew.add_argument("--word", required=True)
    rew.add_argument("--k", type=int, required=True)
    rew.add_argument("--no-minimize", action="store_true")
    rew.add_argument("--out")
    rew.set_defaults(func=cmd_presentation_rewrite)
    ver = pres.add_parser("verify")
    ver.add_argument("--pres", required=True)
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_presentation_verify)

    dia = sub.add_parser("diagram", help="diagram validation and analysis"
                         ).add_subparsers(dest="subcommand", required=True)
    val = dia.add_parser("validate")
    val.add_argument("--in", dest="infile", required=True)
    val.add_argument("--pres")
    val.add_argument("--strict", action="store_true",
                     help="forbid trivial-label faces")
    val.add_argument("--out")
    val.set_defaults(func=cmd_diagram_validate)
    cur = dia.add_parser("curvature")
    cur.add_argument("--in", dest="infile", required=True)
    cur.add_argument("--weights", default="uniform",
                     help="uniform | rule | path to a weight file")
    cur.add_argument("--pres", help="needed for the rule weights")
    cur.add_argument("--audit", action="store_true")
    cur.add_argument("--out")
    cur.set_defaults(func=cmd_diagram_curvature)
    red = dia.add_parser("reduce")
    red.add_argument("--in", dest="infile", required=True)
    red.add_argument("--pres", required=True)
    red.add_argument("--out", dest="outdir", required=True)
    red.add_argument("--trace")
    red.set_defaults(func=cmd_diagram_reduce)

    conj = sub.add_parser("conjugacy", help="conjugator tools").add_subparsers(
        dest="subcommand", required=True)
    cred = conj.add_parser("reduce")
    cred.add_argument("--pres", required=True)
    cred.add_argument("--u", required=True)
    cred.add_argument("--h", required=True)
    cred.add_argument("--out")
    cred.set_defaults(func=cmd_conjugacy_reduce)
    orc = conj.add_parser("oracle")
    orc.add_argument("--group", required=True)
    orc.add_argument("--g", required=True)
    orc.add_argument("--k", type=int, required=True)
    orc.add_argument("--max-syllables", type=int, default=4)
    orc.add_argument("--out")
    orc.set_defaults(func=cmd_conjugacy_oracle)
    cen = conj.add_parser("center")
    cen.add_argument("--pres", required=True)
    cen.add_argument("--out")
    cen.set_defaults(func=cmd_conjugacy_center)

    sea = sub.add_parser("search", help="diagram enumeration").add_subparsers(
        dest="subcommand", required=True)
    enu = sea.add_parser("enumerate")
    enu.add_argument("--pres", required=True)
    enu.add_argument("--max-faces", type=int, default=2)
    enu.add_argument("--digon-syllables", type=int, default=1)
    enu.add_argument("--brute-force", action="store_true")
    enu.add_argument("--out")
    enu.set_defaults(func=cmd_search_enumerate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (WordParseError, RewriteError, DiagramError, MoveError,
            FileNotFoundError, KeyError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
