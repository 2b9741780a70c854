import json
import os
import subprocess
import sys

import pytest

from relpres.cli import main

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIX, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestWordCheck:
    def test_unimodular(self, capsys):
        code, doc = run(capsys, "word", "check", "--group", fixture("z3.json"),
                        "--word", "x t y t^-1 x t")
        assert code == 0
        assert doc["result"]["unimodular"] is True
        assert doc["result"]["t_exponent_sum"] == 1

    def test_violation_exit(self, capsys):
        code, doc = run(capsys, "word", "check", "--group", fixture("z3.json"),
                        "--word", "x t y t")
        assert code == 1

    def test_parse_error_is_usage(self, capsys):
        code, doc = run(capsys, "word", "check", "--group", fixture("z3.json"),
                        "--word", "q t")
        assert code == 2

    def test_missing_args_usage(self, capsys):
        assert main(["word", "check"]) == 2
        capsys.readouterr()


class TestPresentation:
    def test_rewrite_and_verify(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        code, doc = run(capsys, "presentation", "rewrite",
                        "--group", fixture("z3.json"),
                        "--word", "x t y t^-1 x t", "--k", "2",
                        "--out", str(out))
        assert code == 0
        assert doc["result"]["conditions_ok"] and doc["result"]["back_substitution_ok"]
        # stored presentation re-verifies: rebuild a presentation file from it
        pres_doc = doc["result"]["presentation"]
        pfile = tmp_path / "pres.json"
        pfile.write_text(json.dumps(pres_doc))
        code2, doc2 = run(capsys, "presentation", "verify", "--pres", str(pfile))
        assert code2 == 0

    def test_no_minimize_keeps_raw_stage(self, capsys):
        code, doc = run(capsys, "presentation", "rewrite",
                        "--group", fixture("z3.json"),
                        "--word", "x t y t^-1 x t", "--k", "2", "--no-minimize")
        assert code == 0
        assert doc["result"]["presentation"]["s"] == 1


class TestDiagram:
    def test_curvature_uniform(self, capsys):
        code, doc = run(capsys, "diagram", "curvature",
                        "--in", fixture("two_onegons.json"), "--weights", "uniform")
        assert code == 0
        assert doc["result"]["total"] == "4"
        assert doc["result"]["identity_holds"] is True

    def test_curvature_rule_audit(self, capsys):
        code, doc = run(capsys, "diagram", "curvature",
                        "--in", fixture("degenerate_digon_z3.json"),
                        "--weights", "rule", "--pres", fixture("pres_z3_k2.json"),
                        "--audit")
        assert code == 0 and doc["result"]["audit"]["ok"] is True

    @pytest.mark.parametrize("audit", [[], ["--audit"]], ids=["plain", "audit"])
    def test_curvature_rule_that_does_not_apply_is_a_violation(self, capsys, tmp_path, audit):
        # the first four-face survivor that is not a degenerate digon has a
        # digon with two positive corners, so the weight rule does not apply
        code, doc = run(capsys, "search", "enumerate", "--pres", fixture("pres_z3_k2.json"),
                        "--max-faces", "4", "--digon-syllables", "2")
        survivor = next(s for s in doc["result"]["survivors"] if not s["degenerate_digon"])
        path = tmp_path / "survivor.json"
        path.write_text(json.dumps(survivor["diagram"]))
        code, doc = run(capsys, "diagram", "curvature", "--in", str(path), "--weights", "rule",
                        "--pres", fixture("pres_z3_k2.json"), *audit)
        assert code == 1 and doc["manifest"]["exit_status"] == 1
        reason = "digon 2 has two positive corners"
        if audit:
            assert doc["result"] == {"audit": {"ok": False,
                                               "entries": [["weight-rule", -1, reason, False]]}}
        else:
            assert doc["result"] == {"weight_rule": reason}

    @pytest.mark.parametrize("weights,named", [
        ([1, 1], "expected an object"),
        ({"0,0": [1], "1,0": 1}, "'0,0' must be"),
        ({"0,0": 1, "1,0": 1, "2,0": 1}, "'2,0' is not a corner"),
        ({"0,0": 0.1, "1,0": 1}, "'0,0' must be"),
        ({"0,0": True, "1,0": 1}, "'0,0' must be"),
        ({"0,0": "1/0", "1,0": 1}, "'0,0' must be"),
        ({"0, 0": 1, "1,0": 1}, "'0, 0' is not a corner"),
        ('{"0,0": 5, "0,0": 1, "1,0": 1}', "'0,0' is given twice"),
    ], ids=["list", "list-value", "not-a-corner", "float", "bool", "zero-denominator",
            "spaced-key", "duplicate-key"])
    def test_curvature_weight_file_is_checked(self, capsys, tmp_path, weights, named):
        # a str is the file's text as it stands, which can repeat a key
        path = tmp_path / "w.json"
        path.write_text(weights if isinstance(weights, str) else json.dumps(weights))
        code, doc = run(capsys, "diagram", "curvature", "--in", fixture("two_onegons.json"),
                        "--weights", str(path))
        assert code == 2 and named in doc["error"] and "result" not in doc

    def test_curvature_weight_file_matches_uniform(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"0,0": 1, "1,0": "2/2"}))
        argv = ["diagram", "curvature", "--in", fixture("two_onegons.json"), "--weights"]
        code, doc = run(capsys, *argv, str(path))
        uniform_code, uniform = run(capsys, *argv, "uniform")
        assert code == uniform_code == 0 and doc["result"] == uniform["result"]
        assert "w.json" in doc["manifest"]["input_hashes"]

    def test_validate(self, capsys):
        code, doc = run(capsys, "diagram", "validate",
                        "--in", fixture("degenerate_digon_z3.json"),
                        "--pres", fixture("pres_z3_k2.json"))
        assert code == 0
        assert doc["result"]["howie_valid"] and doc["result"]["degenerate_digon"]

    def test_reduce(self, capsys, tmp_path):
        # build a theta sphere on the fly and reduce it via the CLI
        import sys
        sys.path.insert(0, os.path.dirname(__file__))
        from fixtures import pres_z3, theta_digons
        pres = pres_z3(2)
        d = theta_digons(pres, pres.ambient.from_name("x"),
                         pres.ambient.from_name("y"))
        dfile = tmp_path / "d.json"
        dfile.write_text(json.dumps(d.to_dict()))
        outdir = tmp_path / "chain"
        trace = tmp_path / "trace.json"
        code, doc = run(capsys, "diagram", "reduce", "--in", str(dfile),
                        "--pres", fixture("pres_z3_k2.json"),
                        "--out", str(outdir), "--trace", str(trace))
        assert code == 0
        assert doc["result"]["chain_length"] == 1
        assert trace.exists()
        files = doc["result"]["chain_files"]
        assert all((outdir / f).exists() for f in files)

    def test_reduce_refuses_dropping_the_exterior_face(self, capsys, tmp_path):
        import sys
        sys.path.insert(0, os.path.dirname(__file__))
        from fixtures import Z3, pres_z3, tripod
        from relpres.moves import thicken
        d = thicken(tripod(Z3, 1, pres_z3(2).ambient.from_name("x")))
        dfile = tmp_path / "tripod.json"
        dfile.write_text(json.dumps(d.to_dict()))
        code, doc = run(capsys, "diagram", "reduce", "--in", str(dfile),
                        "--pres", fixture("pres_z3_k2.json"), "--out", str(tmp_path / "chain"))
        assert code == 2
        assert list(doc) == ["error"] and "exterior face" in doc["error"]

    def test_reduce_refuses_a_disconnected_diagram(self, capsys, tmp_path):
        sys.path.insert(0, os.path.dirname(__file__))
        from fixtures import disjoint_digons, pres_z3
        amb = pres_z3(2).ambient
        dfile = tmp_path / "two.json"
        dfile.write_text(json.dumps(disjoint_digons(pres_z3(2), amb.from_name("x"),
                                                    amb.from_name("y")).to_dict()))
        code, doc = run(capsys, "diagram", "reduce", "--in", str(dfile),
                        "--pres", fixture("pres_z3_k2.json"), "--out", str(tmp_path / "chain"))
        assert code == 2
        assert doc == {"error": "the diagram is not connected"}
        assert not (tmp_path / "chain").exists()

    def test_reduce_over_step_bound_is_resource(self, capsys, tmp_path, monkeypatch):
        import functools
        from relpres import cli
        from relpres.moves import reduce_to_chain
        monkeypatch.setattr(cli, "reduce_to_chain",
                            functools.partial(reduce_to_chain, step_factor=0))
        code, doc = run(capsys, "diagram", "reduce",
                        "--in", fixture("degenerate_digon_z3.json"),
                        "--pres", fixture("pres_z3_k2.json"),
                        "--out", str(tmp_path / "chain"))
        assert code == 3
        assert "step bound" in doc["result"]["error"]
        assert doc["manifest"]["exit_status"] == 3

    @pytest.mark.parametrize("key", ["x", "00", " 0", "+0", "0_0", "-0"])
    @pytest.mark.parametrize("field", ["edge_dir", "edge_labels"])
    def test_validate_names_a_key_that_is_not_an_edge_index(self, capsys, tmp_path, field, key):
        # only "0" names edge 0; other spellings would let two keys name one edge
        with open(fixture("degenerate_digon_z3.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        data[field] = {key: 0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, doc = run(capsys, "diagram", "validate", "--in", str(path))
        assert code == 2
        assert doc == {"error": f"field {field!r} key {key!r} is not an edge index"}

    def test_reduce_refuses_a_diagram_over_another_ambient(self, capsys, tmp_path):
        # two_onegons.json has s = 0, pres_z3_k2.json has s = 1
        code, doc = run(capsys, "diagram", "reduce", "--in", fixture("two_onegons.json"),
                        "--pres", fixture("pres_z3_k2.json"), "--out", str(tmp_path / "chain"))
        assert code == 2
        assert doc == {"error": "diagram and presentation live in different ambients"}


class TestConjugacy:
    def test_reduce(self, capsys):
        code, doc = run(capsys, "conjugacy", "reduce",
                        "--pres", fixture("pres_z3_k2.json"),
                        "--u", "t^-1 x t", "--h", "x")
        assert code == 0
        assert doc["result"]["status"] == "reduced-to-H"
        assert doc["result"]["steps"] == 1

    def test_oracle(self, capsys):
        code, doc = run(capsys, "conjugacy", "oracle",
                        "--group", fixture("z4.json"), "--g", "x", "--k", "2",
                        "--max-syllables", "4")
        assert code == 0 and doc["result"]["malnormal_at_bound"] is True

    def test_oracle_negative_bound_is_usage(self, capsys):
        # a negative bound checks nothing, so it certifies nothing
        argv = ["conjugacy", "oracle", "--group", fixture("z4.json"), "--g", "x", "--k", "2"]
        code, doc = run(capsys, *argv, "--max-syllables", "-1")
        assert code == 2
        assert "max_syllables" in doc["error"] and "result" not in doc
        code, doc = run(capsys, *argv, "--max-syllables", "0")
        assert code == 0 and doc["result"]["malnormal_at_bound"] is True

    def test_oracle_over_bound_is_resource(self, capsys):
        # 11,184,784 checks, just above the bound: refused before walking
        code, doc = run(capsys, "conjugacy", "oracle", "--group", fixture("z5.json"),
                        "--g", "x", "--k", "5", "--max-syllables", "10")
        assert code == 3 and doc["manifest"]["exit_status"] == 3
        assert "11184784 checks" in doc["result"]["error"]

    def test_oracle_violation_document(self, capsys, monkeypatch):
        # flag every five-syllable value: the first one the oracle meets is
        # u^-1 h u for u = x g (x, then the base element 1), and the document
        # names each letter's factor, "G" or "x"
        from relpres.conjugacy import FreeProductModel
        honest = FreeProductModel.in_base_group
        monkeypatch.setattr(FreeProductModel, "in_base_group",
                            lambda self, a: len(a) == 5 or honest(self, a))
        code, doc = run(capsys, "conjugacy", "oracle", "--group", fixture("z4.json"),
                        "--g", "x", "--k", "3", "--max-syllables", "3")
        assert code == 1
        assert doc["result"] == {
            "malnormal_at_bound": False, "checked": 25,
            "counterexample": {"conjugator": [["x", 1], ["G", 1]], "element": "x",
                               "value": [["G", 3], ["x", 2], ["G", 1], ["x", 1], ["G", 1]]}}

    def test_center(self, capsys):
        code, doc = run(capsys, "conjugacy", "center",
                        "--pres", fixture("pres_z3_k2.json"))
        assert code == 0
        assert doc["result"]["trivial_center_certified"] is True


class TestSearch:
    def test_enumerate(self, capsys):
        code, doc = run(capsys, "search", "enumerate",
                        "--pres", fixture("pres_z3_k2.json"),
                        "--max-faces", "1", "--digon-syllables", "1")
        assert code == 0
        assert doc["result"]["survivor_count"] == 2
        assert all(s["degenerate_digon"] and s["audit_ok"]
                   for s in doc["result"]["survivors"])

    def test_negative_digon_syllables_is_usage(self, capsys):
        argv = ["search", "enumerate", "--pres", fixture("pres_z3_k2.json"), "--max-faces", "1"]
        code, doc = run(capsys, *argv, "--digon-syllables", "-1")
        assert code == 2
        assert "digon syllable" in doc["error"] and "result" not in doc
        code, doc = run(capsys, *argv, "--digon-syllables", "0")
        assert code == 0 and doc["result"]["complete"]

    @pytest.mark.parametrize("name,survivors,degenerate", [("pres_z3_k2.json", 5, 2),
                                                           ("pres_z2_k2.json", 2, 1)])
    def test_four_faces_is_not_a_usage_error(self, capsys, name, survivors, degenerate):
        # the weight rule does not apply to the non-degenerate survivors
        # (a digon with two positive corners); their audit fails, typed
        code, doc = run(capsys, "search", "enumerate", "--pres", fixture(name),
                        "--max-faces", "4", "--digon-syllables", "2")
        assert code == 0 and "error" not in doc
        found = doc["result"]["survivors"]
        assert len(found) == survivors
        assert sum(s["degenerate_digon"] for s in found) == degenerate
        assert all(s["audit_ok"] == s["degenerate_digon"] for s in found)


class TestBadPresentation:
    @pytest.mark.parametrize("k", [-2, 0, 1])
    @pytest.mark.parametrize("command", [["conjugacy", "center"],
                                         ["search", "enumerate"]])
    def test_bad_k_is_usage(self, capsys, tmp_path, command, k):
        data = json.load(open(fixture("pres_z3_k2.json")))
        data["k"] = k
        path = tmp_path / "pres.json"
        path.write_text(json.dumps(data))
        code, doc = run(capsys, *command, "--pres", str(path))
        assert code == 2
        assert "k must be" in doc["error"] and "result" not in doc


def _set(path, value=None):
    """A change of a JSON document: the value at a dotted path (list
    indices as digits) set, or deleted when ``value`` is None."""
    *keys, last = [int(k) if k.isdigit() else k for k in path.split(".")]

    def change(doc):
        node = doc
        for key in keys:
            node = node[key]
        if value is None:
            del node[last]
        else:
            node[last] = value
        return doc
    return change


def _malformed(capsys, tmp_path, fixture_name, change, *argv):
    """Run a command on a changed copy of a fixture, which ``argv`` names
    as ``FILE``; returns the error document."""
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(change(json.load(open(fixture(fixture_name))))))
    code, doc = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 2 and list(doc) == ["error"]
    return doc["error"]


class TestMalformedJson:
    """A field of the wrong JSON type, or a missing one, is a usage error
    that names the field, for each of the three loaders."""

    @pytest.mark.parametrize("change, field", [
        (_set("s", "1"), "'s'"), (_set("pairs", 5), "'pairs'"),
        (_set("c", 5), "'c'"), (lambda doc: [doc], "'group'"),
        (_set("pairs", [["x"]]), "'pairs'"), (_set("group"), "'group'")],
        ids=["s-string", "pairs-int", "c-int", "list", "short-pair", "no-group"])
    def test_presentation(self, capsys, tmp_path, change, field):
        error = _malformed(capsys, tmp_path, "pres_z3_k2.json", change,
                           "conjugacy", "center", "--pres", "FILE")
        assert field in error

    @pytest.mark.parametrize("change, field", [
        (_set("faces", 5), "'faces'"), (_set("faces.0.slots.0.dart", "a"), "'dart'"),
        (_set("ambient.s", "1"), "'s'"), (lambda doc: [doc], "'ambient'"),
        (_set("pairing", [[0]]), "'pairing'"),
        (_set("edge_labels", []), "'edge_labels'"),
        (_set("edge_labels", {"5": "1"}), "edge_labels")],
        ids=["faces-int", "dart-string", "s-string", "list", "short-edge", "labels-list",
             "label-off-range"])
    def test_diagram(self, capsys, tmp_path, change, field):
        error = _malformed(capsys, tmp_path, "degenerate_digon_z3.json", change,
                           "diagram", "validate", "--in", "FILE")
        assert field in error

    @pytest.mark.parametrize("change, field", [
        (_set("names", 5), "'names'"), (_set("table", [[0, 1, "q"]]), "'table'"),
        (lambda doc: [doc], "'names'"), (_set("table"), "'table'"),
        (_set("names", ["e", 1, "y"]), "'names'")],
        ids=["names-int", "mixed-table", "list", "no-table", "int-name"])
    def test_group(self, capsys, tmp_path, change, field):
        error = _malformed(capsys, tmp_path, "z3.json", change,
                           "word", "check", "--group", "FILE", "--word", "x t")
        assert field in error


class TestDeterminism:
    def test_repeated_calls_match_separate_processes(self, capsys):
        # main() reuses one parser per process; a run of calls in one
        # process prints what each call prints in a process of its own
        argvs = [["word", "check", "--group", fixture("z3.json"), "--word", "x t y t^-1 x t"],
                 ["word", "check", "--group", fixture("z3.json"), "--word", "x t y t"],
                 ["word", "check"],
                 ["presentation", "verify", "--pres", fixture("pres_z3_k2.json")],
                 ["search", "enumerate", "--pres", fixture("pres_z2_k2.json"),
                  "--max-faces", "2"],
                 ["word", "check", "--group", fixture("z3.json"), "--word", "q t"],
                 ["word", "check", "--group", fixture("z3.json"), "--word", "x t y t^-1 x t"]]
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        for argv in argvs:
            code = main(list(argv))
            out = capsys.readouterr().out
            alone = subprocess.run([sys.executable, "-m", "relpres.cli", *argv], env=env,
                                   capture_output=True, text=True, check=False)
            assert (code, out) == (alone.returncode, alone.stdout)

    def test_same_inputs_same_bytes(self, capsys):
        argv = ["search", "enumerate", "--pres", fixture("pres_z3_k2.json"),
                "--max-faces", "1"]
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second

    def test_fixture_roundtrips(self):
        from relpres.diagram import Diagram
        from relpres.groups import GroupTable
        from relpres.presentation import RelPresentation
        for name in os.listdir(FIX):
            path = fixture(name)
            data = json.load(open(path))
            if name.startswith("z"):
                obj = GroupTable.from_dict(data)
                assert obj.to_dict() == data
            elif name.startswith("pres"):
                obj = RelPresentation.from_dict(data)
                again = obj.to_dict()
                assert RelPresentation.from_dict(again).to_dict() == again
            else:
                obj = Diagram.from_dict(data)
                assert obj.to_dict() == data
