"""Command-line surface: payloads, exit codes, schema, determinism."""

import json
from importlib import resources

import jsonschema
import pytest

from gcoalition.cli import run


def _schema():
    text = resources.files("gcoalition").joinpath("schemas/run_record.schema.json").read_text()
    return json.loads(text)


def _validated(argv):
    code, out = run(argv)
    payload = json.loads(out)
    jsonschema.validate(payload, _schema())
    return code, payload


class TestCompute:
    def test_cycle7_gc(self):
        code, payload = _validated(["compute", "--kind", "gc", "--graph", "cycle:7"])
        assert code == 0
        assert payload["result"]["value"] == 5
        assert payload["result"]["exact"] is True

    def test_gamma_kinds(self):
        code, payload = _validated(["compute", "--kind", "gamma_g", "--graph", "path:5"])
        assert code == 0 and payload["result"]["value"] == 2

    def test_dg(self):
        code, payload = _validated(["compute", "--kind", "dg", "--graph", "cycle:4"])
        assert code == 0 and payload["result"]["value"] == 2

    def test_budget_exhaustion_exit3(self):
        code, payload = _validated(
            ["compute", "--kind", "gc", "--graph", "path:9", "--budget", "10"])
        assert code == 3
        assert payload["result"]["exact"] is False

    def test_budget_exhausted_keeps_a_valid_witness(self):
        # the single lex-order pass finishes path:9 after 4,600 nodes, so a
        # budget of 4,000 stops it after it has found some valid partitions
        code, payload = _validated(
            ["compute", "--kind", "gc", "--graph", "path:9", "--budget", "4000"])
        res = payload["result"]
        assert code == 3 and res["exact"] is False
        assert res["witness"] is not None and len(res["witness"]) == res["value"]
        code, _ = _validated(["verify", "--kind", "gc", "--graph", "path:9",
                              "--partition", json.dumps(res["witness"])])
        assert code == 0


class TestVerify:
    def test_valid_exit0(self):
        code, payload = _validated(
            ["verify", "--kind", "gc", "--graph", "path:3", "--partition", "[[0],[1],[2]]"])
        assert code == 0 and payload["result"]["valid"] is True

    def test_invalid_exit2_with_reasons(self):
        code, payload = _validated(
            ["verify", "--kind", "gc", "--graph", "cycle:3", "--partition", "[[0],[1],[2]]"])
        assert code == 2
        reasons = {v["reason"] for v in payload["result"]["violations"]}
        assert reasons == {"NoPartner"}

    def test_singletons_literal(self):
        code, payload = _validated(
            ["verify", "--kind", "gc", "--graph", "path:4", "--partition", "singletons"])
        assert code == 0 and payload["result"]["valid"] is True

    def test_partition_file(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text("[[0],[1],[2]]")
        code, payload = _validated(
            ["verify", "--kind", "gc", "--graph", "path:3", "--partition", f"file:{f}"])
        assert code == 0 and payload["result"]["valid"] is True


class TestGraphSources:
    def test_g6_source(self):
        code, payload = _validated(["compute", "--kind", "gamma", "--graph", "g6:Bw"])
        assert code == 0 and payload["result"]["value"] == 1

    def test_file_source(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("n 4\n0 1\n1 2\n2 3\n")
        code, payload = _validated(["compute", "--kind", "gc", "--graph", f"file:{f}"])
        assert code == 0 and payload["result"]["value"] == 4


class TestErrors:
    def test_malformed_graph_exit1(self):
        code, payload = _validated(["compute", "--kind", "gc", "--graph", "g6:"])
        assert code == 1
        assert payload["error"]["type"] == "GraphFormatError"

    def test_bad_family_exit1(self):
        code, payload = _validated(["compute", "--kind", "gc", "--graph", "nosuch:4"])
        assert code == 1 and "error" in payload

    def test_bad_partition_exit1(self):
        code, payload = _validated(
            ["verify", "--kind", "gc", "--graph", "path:3", "--partition", "not json"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["compute", "--kind", "bogus", "--graph", "path:3"],
        ["verify", "--kind", "gc", "--graph", "path:3", "--partition", "singletons",
         "--budget", "x"],
        ["compute", "--kind", "gc"],
        ["nosuch", "--graph", "path:3"],
    ], ids=["invalid_choice", "non_integer_budget", "missing_graph", "unknown_subcommand"])
    def test_malformed_arguments_exit1(self, argv):
        code, payload = _validated(argv)
        assert code == 1
        assert payload["command"] == argv[0]
        assert payload["error"]["type"] == "InvalidParamsError"

    def test_no_arguments_exit1(self):
        code, payload = _validated([])
        assert code == 1 and payload["command"] == ""


class TestFamilyAndGcg:
    def test_family_json(self):
        code, payload = _validated(["family", "--spec", "cycle:5"])
        assert code == 0
        res = payload["result"]
        assert res["n"] == 5 and res["closed_form_gc"] == 4 and res["graph6"] == "Dhc"

    def test_family_lower_bound(self):
        code, payload = _validated(["family", "--spec", "multipartite:3,2,2"])
        assert payload["result"]["closed_form_gc"] == {"lower_bound": 5}

    def test_family_dot(self):
        code, out = run(["family", "--spec", "gk:4", "--format", "dot"])
        assert code == 0
        assert out.startswith("graph G {") and 'label="u"' in out

    def test_gcg_dot_matching(self):
        code, out = run(["gcg", "--graph", "path:4", "--partition", "singletons",
                         "--format", "dot"])
        assert code == 0
        assert "0 -- 3;" in out and "1 -- 2;" in out and out.count(" -- ") == 2


class TestConstruct:
    def test_from_domatic(self):
        code, payload = _validated(
            ["construct", "--op", "from-domatic", "--graph", "cycle:4"])
        assert code == 0
        assert payload["result"]["valid_gc"] is True and payload["result"]["size"] >= 4

    def test_center(self):
        code, payload = _validated(
            ["construct", "--op", "center", "--graph", "path:5", "--vertex", "2"])
        assert code == 0 and payload["result"]["classes"][0] == [1, 3]

    def test_center_needs_vertex(self):
        code, payload = _validated(["construct", "--op", "center", "--graph", "path:5"])
        assert code == 1


class TestCheckCommand:
    def test_csv_report(self):
        code, out = run(["check", "--theorem", "gc_cycles", "--max-n", "8"])
        assert code == 0
        assert out.splitlines()[0] == "check,instance,expected,actual,status,detail"
        assert "cycle:7" in out

    def test_json_report(self):
        code, payload = _validated(
            ["check", "--theorem", "gc_complete", "--max-n", "5", "--format", "json"])
        assert code == 0
        assert all(row["status"] == "pass" for row in payload["result"])

    def test_needs_selector(self):
        code, payload = _validated(["check"])
        assert code == 1


class TestEnumerate:
    def test_unicyclic_stream(self):
        code, out = run(["enumerate", "--what", "unicyclic", "--cycle-len", "5",
                         "--max-n", "6"])
        assert code == 0 and len(out.strip().splitlines()) == 2

    def test_trees_json(self):
        code, payload = _validated(
            ["enumerate", "--what", "trees", "--max-n", "5", "--format", "json"])
        assert code == 0 and payload["result"]["count"] == 8


class TestDeterminism:
    CASES = [
        ["compute", "--kind", "gc", "--graph", "cycle:9"],
        ["compute", "--kind", "prc", "--graph", "path:7"],
        ["check", "--theorem", "gc_paths", "--max-n", "8", "--format", "json"],
        ["enumerate", "--what", "girth6", "--max-n", "9", "--format", "json"],
        ["enumerate", "--what", "trees", "--max-n", "9"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=["gc", "prc", "check", "girth6", "trees"])
    def test_threads_do_not_change_output(self, argv):
        outs = {run(argv + ["--threads", str(t)])[1] for t in (1, 8)}
        assert len(outs) == 1  # bytewise identical

    def test_repeat_runs_identical(self):
        argv = ["compute", "--kind", "gc", "--graph", "path:8"]
        assert run(argv) == run(argv)

    def test_timings_flag_gates_elapsed(self):
        argv = ["compute", "--kind", "gc", "--graph", "path:5"]
        _, plain = run(argv)
        _, timed = run(argv + ["--timings"])
        assert "elapsed_ms" not in plain
        assert "elapsed_ms" in timed
