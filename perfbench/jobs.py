"""One function per job kind: the timed calls into relpres, then the checks.

``run(tracer, spec, work)`` times only the library calls a user's task
makes and returns an ``Outcome``.  ``check(outcome)`` compares it with the
spec's known answers outside the timed region and returns the list of
mismatches.  Every library call goes through ``tracer.call`` under the name
``<module>.<function>``; with tracing off that is a plain call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

from relpres import cli
from relpres.conjugacy import center_certificate, malnormality_oracle, reduce_conjugator
from relpres.diagram import (Diagram, is_degenerate_digon, is_phi_reduced,
                             validate_howie)
from relpres.freeprod import FreeProduct
from relpres.groups import GroupTable
from relpres.moves import reduce_to_chain, replay_trace
from relpres.presentation import (RelPresentation, back_substitute, initial_rewrite,
                                  minimize, verify_conditions)
from relpres.search import (EnumerationConfig, brute_force_enumerate, curvature_audit,
                            enumerate_diagrams)
from relpres.words import cyclic_equal, parse_h_word, parse_word

from gen import weights_of

MOVE_KINDS = ("merge_digons", "fill_hole", "collapse_bigon", "pull_contracted",
              "pull_split", "pull_discarded")


@dataclass
class Outcome:
    spec: dict
    counts: dict = field(default_factory=dict)   # exact, seed-determined
    facts: dict = field(default_factory=dict)    # what the checks read


# -- search -------------------------------------------------------------------


def search(tr, spec, work):
    """``relpres search enumerate`` as a library user runs it: load the
    presentation, enumerate, audit each survivor and write it out, then read
    every survivor back and validate it."""
    pres = tr.call("presentation.RelPresentation.from_dict",
                   RelPresentation.from_dict, spec["pres"])
    config = EnumerationConfig(pres, max_interior_faces=spec["max_faces"],
                               digon_syllables=spec["digon_syllables"])
    res = tr.call("search.enumerate_diagrams", enumerate_diagrams, config)
    survivors = []
    for form in sorted(res.survivors):
        d = res.survivors[form]
        audit = tr.call("search.curvature_audit", curvature_audit, d, pres)
        degenerate = tr.call("diagram.is_degenerate_digon", is_degenerate_digon, d, pres)
        text = json.dumps(tr.call("diagram.Diagram.to_dict", d.to_dict), sort_keys=True)
        back = tr.call("diagram.Diagram.from_dict", Diagram.from_dict, json.loads(text))
        back_form = tr.call("diagram.Diagram.canonical_form", back.canonical_form)
        valid = tr.call("diagram.validate_howie", validate_howie, back, pres,
                        allow_null_faces=False)
        survivors.append((form == back_form, audit.ok, degenerate, valid.ok))
    return Outcome(spec, {
        "search.leaves": res.matchings_tried,
        "search.multisets": len(res.counts_per_multiset),
        "search.survivors": len(res.survivors),
    }, {"complete": res.complete, "survivors": survivors, "pres": pres,
        "forms": res.canonical_forms()})


def check_search(out):
    f, spec = out.facts, out.spec
    bad = []
    if not f["complete"]:
        bad.append("enumeration incomplete")
    if len(f["survivors"]) != spec["expect_survivors"]:
        bad.append(f"{len(f['survivors'])} survivors, expected {spec['expect_survivors']}")
    for i, (same_form, audit_ok, degenerate, valid) in enumerate(f["survivors"]):
        if not (same_form and audit_ok and degenerate and valid):
            bad.append(f"survivor {i}: round-trip form {same_form}, audit {audit_ok}, "
                       f"degenerate digon {degenerate}, valid {valid}")
    return bad


def check_brute_force(out):
    """Pruned and unpruned enumeration agree at two faces (untimed)."""
    pres = out.facts["pres"]
    config = EnumerationConfig(pres, max_interior_faces=2,
                               digon_syllables=out.spec["digon_syllables"])
    fast = (out.facts["forms"] if out.spec["max_faces"] == 2
            else enumerate_diagrams(config).canonical_forms())
    if fast != brute_force_enumerate(config).canonical_forms():
        return ["fast and brute-force canonical forms differ at two faces"]
    return []


# -- algebra ------------------------------------------------------------------


def rewrite(tr, spec, work):
    """Parse -> initial_rewrite -> minimize -> verify -> back-substitute."""
    group = tr.call("groups.GroupTable.from_dict", GroupTable.from_dict, spec["group"])
    w = tr.call("words.parse_word", parse_word, spec["word"], FreeProduct(group, 0))
    raw = tr.call("presentation.initial_rewrite", initial_rewrite, group, w, spec["k"])
    pres = tr.call("presentation.minimize", minimize, raw)
    report = tr.call("presentation.verify_conditions", verify_conditions, pres)
    back = tr.call("presentation.back_substitute", back_substitute, pres)
    power = tr.call("words.TWord.pow", w.pow, spec["k"])
    same = tr.call("words.cyclic_equal", cyclic_equal, back, power)
    return Outcome(spec, {}, {"conditions": report.all_ok, "back_substitution": same})


def check_rewrite(out):
    f = out.facts
    if f["conditions"] and f["back_substitution"]:
        return []
    return [f"rewrite of {out.spec['word']!r} (k={out.spec['k']}): conditions "
            f"{f['conditions']}, back-substitution {f['back_substitution']}"]


def conjugator(tr, spec, work):
    pres = tr.call("presentation.RelPresentation.from_dict",
                   RelPresentation.from_dict, spec["pres"])
    amb = pres.ambient
    u = tr.call("words.parse_word", parse_word, spec["u"], amb)
    h = tr.call("words.parse_h_word", parse_h_word, spec["h"], amb)
    outcome = tr.call("conjugacy.reduce_conjugator", reduce_conjugator, u, h)
    return Outcome(spec, {}, {"outcome": outcome, "h": h,
                              "seed": parse_h_word(spec["seed"], amb)})


def check_conjugator(out):
    o, f, spec = out.facts["outcome"], out.facts, out.spec
    value = o.final_conjugator.h_value() if o.final_conjugator.is_h_word() else None
    if (o.status == "reduced-to-G0" and o.steps == spec["expect_steps"]
            and value == f["seed"] and o.final_conjugate == f["h"].conj(f["seed"])):
        return []
    return [f"conjugator {spec['u']!r}: status {o.status}, steps {o.steps} "
            f"(expected {spec['expect_steps']}), value {value}"]


def center(tr, spec, work):
    pres = tr.call("presentation.RelPresentation.from_dict",
                   RelPresentation.from_dict, spec["pres"])
    rep = tr.call("conjugacy.center_certificate", center_certificate, pres)
    return Outcome(spec, {}, {"report": rep, "k": pres.k, "order": pres.group.order})


def check_center(out):
    rep, f = out.facts["report"], out.facts
    if (rep.trivial_center_certified and rep.t_outside_base == (1, f["k"])
            and len(rep.element_checks) == f["order"] - 1
            and all(c[2] == 1 for c in rep.element_checks)):
        return []
    return [f"center certificate fails: {rep}"]


def oracle(tr, spec, work):
    group = tr.call("groups.GroupTable.from_dict", GroupTable.from_dict, spec["group"])
    rep = tr.call("conjugacy.malnormality_oracle", malnormality_oracle, group,
                  spec["g"], spec["k"], spec["max_syllables"])
    return Outcome(spec, {"conjugacy.oracle_checked": rep.checked},
                   {"holds": rep.holds, "checked": rep.checked})


def check_oracle(out):
    f, spec = out.facts, out.spec
    if f["holds"] and f["checked"] == spec["expect_checked"]:
        return []
    return [f"oracle k={spec['k']} L={spec['max_syllables']}: holds {f['holds']}, "
            f"checked {f['checked']} (expected {spec['expect_checked']})"]


def group(tr, spec, work):
    table = tr.call("groups.GroupTable", GroupTable, spec["names"], spec["table"])
    return Outcome(spec, {}, {"table": table})


def check_group(out):
    t, spec = out.facts["table"], out.spec
    n, perm = spec["n"], spec["perm"]
    inverse = [(-a) % n for a in range(n)]
    if spec["family"] == "dihedral":  # every reflection is an involution
        inverse += range(n, 2 * n)
    expect = [0] * len(perm)
    for x, y in enumerate(inverse):
        expect[perm[x]] = perm[y]
    if t.order == len(perm) and t.identity == perm[0] and t.inverse == tuple(expect):
        return []
    return [f"{spec['family']} table of order {t.order}: wrong identity or inverses"]


def command(tr, spec, work):
    """One README command through ``relpres.cli.main``, output captured."""
    argv = [a.replace("{work}", work) for a in spec["argv"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tr.call("cli.main", cli.main, argv)
    return Outcome(spec, {"cli.commands": 1}, {"code": code, "output": buf.getvalue()})


def check_command(out):
    f, spec = out.facts, out.spec
    name = " ".join(spec["argv"][:2])
    if f["code"] != 0:
        return [f"`{name}` exited {f['code']}"]
    result = json.loads(f["output"])["result"]
    expect = spec["expect"]
    wrong = {
        "word check": not result.get("unimodular"),
        "presentation rewrite": not (result.get("conditions_ok")
                                     and result.get("back_substitution_ok")),
        "diagram validate": not (result.get("howie_valid")
                                 and result.get("degenerate_digon")),
        "diagram curvature": not result.get("identity_holds"),
        "diagram reduce": not result.get("links_conjugate"),
        "conjugacy reduce": (result.get("status") != "reduced-to-G0"
                             or result.get("steps") != expect.get("steps")),
        "conjugacy oracle": result.get("checked") != expect.get("checked"),
        "search enumerate": result.get("survivor_count") != expect.get("survivors"),
    }.get(name, False)
    return [f"`{name}` gave a wrong result"] if wrong else []


# -- reduce -------------------------------------------------------------------


def reduction(tr, spec, work):
    """Load a sphere, reduce it to a chain of clean diagrams, replay the trace."""
    pres = tr.call("presentation.RelPresentation.from_dict",
                   RelPresentation.from_dict, spec["pres"])
    d = tr.call("diagram.Diagram.from_dict", Diagram.from_dict, spec["diagram"])
    chain, trace = tr.call("moves.reduce_to_chain", reduce_to_chain, d, pres)
    replayed = tr.call("moves.replay_trace", replay_trace, d, pres, trace)
    counts = {f"moves.applied.{kind}": 0 for kind in MOVE_KINDS}
    for entry in trace.entries:
        counts[f"moves.applied.{entry.move}"] += 1
    counts["moves.applied"] = len(trace.entries)
    return Outcome(spec, counts, {"chain": chain, "replayed": replayed, "pres": pres})


def check_reduction(out):
    chain, replayed, pres = (out.facts[k] for k in ("chain", "replayed", "pres"))
    bad = []
    if not chain.links_conjugate():
        bad.append(f"{out.spec['kind']} sphere: chain links are not conjugate")
    forms = [d.canonical_form() for d in chain.diagrams]
    if [d.canonical_form() for d in replayed.diagrams] != forms:
        bad.append(f"{out.spec['kind']} sphere: replayed chain differs")
    for i, d in enumerate(chain.diagrams):
        if not d.faces:
            continue
        if not is_phi_reduced(d, pres)[0]:
            bad.append(f"{out.spec['kind']} sphere: chain diagram {i} is not reduced")
        if any(lab == "1" for lab in d.edge_label.values()):
            bad.append(f"{out.spec['kind']} sphere: chain diagram {i} keeps an identity edge")
    return bad


def map_job(tr, spec, work):
    """Gauss-Bonnet with random rational weights, then the canonical form."""
    d = tr.call("diagram.Diagram.from_dict", Diagram.from_dict, spec["diagram"])
    report = tr.call("diagram.Diagram.curvature", d.curvature, weights_of(spec))
    form = tr.call("diagram.Diagram.canonical_form", d.canonical_form)
    return Outcome(spec, {}, {"total": report.total, "chi": d.chi, "form": form})


def check_map(out):
    f = out.facts
    bad = []
    if f["total"] != 2 * f["chi"]:
        bad.append(f"curvature total {f['total']} != 2 * chi = {2 * f['chi']}")
    if Diagram.from_dict(out.spec["relabeled"]).canonical_form() != f["form"]:
        bad.append("canonical form changed under dart relabeling")
    return bad


KINDS = {
    "deep-s0": (search, check_search),
    "deep-s1": (search, check_search),
    "wide": (search, check_search),
    "rewrite": (rewrite, check_rewrite),
    "conjugator": (conjugator, check_conjugator),
    "center": (center, check_center),
    "oracle": (oracle, check_oracle),
    "group": (group, check_group),
    "cli": (command, check_command),
    "chain": (reduction, check_reduction),
    "mirror": (reduction, check_reduction),
    "cycle": (reduction, check_reduction),
    "map": (map_job, check_map),
}
