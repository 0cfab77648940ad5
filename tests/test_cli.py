import copy
import functools
import json
import math
import shutil

import pytest

import h2blend.cli
import h2blend.solver
from conftest import LINE_NETWORK_DOC, SHORT_SCENARIO_DOC
from h2blend.cli import bundled_path, main
from h2blend.solver import SolverOptions


@pytest.fixture
def case_files(tmp_path):
    net_path = tmp_path / "network.json"
    scn_path = tmp_path / "scenario.json"
    net_path.write_text(json.dumps(LINE_NETWORK_DOC))
    scn_path.write_text(json.dumps(SHORT_SCENARIO_DOC))
    return net_path, scn_path


def run_cli(*args):
    return main([str(a) for a in args])


def singular_factor(*args, **kwargs):
    """A stand-in for SuperLU to which every matrix is singular."""
    raise RuntimeError("Factor is exactly singular")


class TestArgumentsAndExitCodes:
    def test_missing_inputs(self):
        assert run_cli("--mode", "steady") == 2

    def test_missing_file(self, tmp_path):
        assert run_cli("--network", tmp_path / "nope.json",
                       "--scenario", tmp_path / "nope2.json") == 2

    def test_invalid_json(self, tmp_path, case_files):
        net_path, scn_path = case_files
        net_path.write_text("{broken")
        assert run_cli("--network", net_path, "--scenario", scn_path) == 2

    def test_malformed_number(self, case_files, capsys):
        net_path, scn_path = case_files
        doc = copy.deepcopy(LINE_NETWORK_DOC)
        doc["pipes"][0]["D"] = "wide"
        net_path.write_text(json.dumps(doc))
        assert run_cli("--network", net_path, "--scenario", scn_path) == 2
        assert "pipes['P1']: D must be a number" in capsys.readouterr().err

    def test_wrong_shape(self, case_files, capsys):
        net_path, scn_path = case_files
        doc = copy.deepcopy(LINE_NETWORK_DOC)
        doc["nodes"].append(5)
        net_path.write_text(json.dumps(doc))
        assert run_cli("--network", net_path, "--scenario", scn_path) == 2
        assert "nodes[2]: must be an object, got int" in capsys.readouterr().err

    def test_scenario_not_an_object_with_override(self, case_files, capsys):
        net_path, scn_path = case_files
        scn_path.write_text("[]")
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--dt", 1.0) == 2
        assert "scenario: must be an object, got list" in capsys.readouterr().err

    def test_profile_of_an_unknown_node(self, tmp_path, case_files, capsys):
        net_path, scn_path = case_files
        doc = copy.deepcopy(SHORT_SCENARIO_DOC)
        doc["profiles"] = {"N9": {"type": "sinusoid", "eta0": 0.1, "delta": 0.05}}
        scn_path.write_text(json.dumps(doc))
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", tmp_path / "out") == 2
        assert "profiles['N9']: not a supply node" in capsys.readouterr().err

    @pytest.mark.parametrize("key, entry, message", [
        ("pipes", {"id": "P2", "from": "P1", "to": "N3", "L": 5000.0, "D": 0.9},
         "pipes['P2']: unknown node reference 'P1'"),
        ("compressors", {"id": "C1", "from": "N1", "to": "P1", "fc_max": 100.0},
         "compressors['C1']: unknown node reference 'P1'"),
        ("nodes", {"id": "P1.1", "role": "junction"},
         "nodes['P1.1']: id taken by an auxiliary junction of pipe 'P1'"),
    ], ids=["pipe-from-a-pipe", "compressor-to-a-pipe", "node-P1.1"])
    def test_edge_end_that_is_not_a_free_node(self, tmp_path, case_files, capsys,
                                              key, entry, message):
        """An edge end that names a pipe or compressor, and a node that
        holds the id of a pipe's auxiliary junction, are input errors (the
        junction P1.1 is wired to N3 by a pipe P2 of its own)."""
        net_path, scn_path = case_files
        doc = copy.deepcopy(LINE_NETWORK_DOC)
        doc.setdefault(key, []).append(entry)
        if key == "nodes":
            doc["pipes"].append({"id": "P2", "from": "N3", "to": "P1.1",
                                 "L": 5000.0, "D": 0.9})
        net_path.write_text(json.dumps(doc))
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", tmp_path / "out", "--mode", "steady") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args, edit", [
        (("--tol", 0), None), (("--tol", -1), None), (("--tol", "nan"), None),
        (("--tol", "inf"), None), (("--dt", "nan"), None), (("--dt", "inf"), None),
        (("--dl", "inf"), None),
        ((), ("scenario", "dt_hours", math.nan)),
        ((), ("scenario", "qs_max", math.inf)),
        ((), ("pipe", "L", math.inf)),
    ], ids=["tol-0", "tol-negative", "tol-nan", "tol-inf", "dt-nan", "dt-inf",
            "dl-inf", "dt_hours-NaN", "qs_max-Infinity", "L-Infinity"])
    def test_non_finite_or_non_positive_number(self, tmp_path, case_files, capsys,
                                               args, edit):
        """Python's json writes and reads NaN and Infinity; both are input
        errors, as are a tolerance that is not positive and finite."""
        net_path, scn_path = case_files
        if edit is not None:
            where, key, value = edit
            if where == "scenario":
                doc = copy.deepcopy(SHORT_SCENARIO_DOC)
                doc[key] = value
                scn_path.write_text(json.dumps(doc))
            else:
                doc = copy.deepcopy(LINE_NETWORK_DOC)
                doc["pipes"][0][key] = value
                net_path.write_text(json.dumps(doc))
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", tmp_path / "out", "--mode", "steady", *args) == 2
        assert "finite, got" in capsys.readouterr().err

    @pytest.mark.parametrize("args, limit", [
        (("--dl", 1e-300, "--mode", "steady"), "more than 2000 segments"),
        (("--dl", 1), "more than 2000 segments"),
        (("--dt", 1e-5), "more than 10000 time steps"),
        (("--dt", 1e-300), "more than 10000 time steps"),
    ], ids=["dl-1e-300", "dl-1", "dt-1e-5", "dt-1e-300"])
    def test_too_fine_a_grid(self, tmp_path, capsys, args, limit):
        """A segment length or time step too small for the bundled single
        pipe is an input error, reported before any solve."""
        assert run_cli("--case", "single-pipe", "--out", tmp_path / "out", *args) == 2
        assert limit in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("scales", "M", 0.0, "scales must be positive"),
        ("scales", "p0", -1.0, "scales must be positive"),
        ("gas", "a_H2", 100.0, "sound speeds must satisfy a_H2 > a_NG > 0"),
        ("compressor_cost", "mu", 1.0,
         "scenario.compressor_cost: mu must be greater than 1, got 1.0"),
        ("compressor_cost", "G", 0.0,
         "scenario.compressor_cost: G must be greater than 0, got 0.0"),
        ("compressor_cost", "T", 0.0,
         "scenario.compressor_cost: T must be greater than 0, got 0.0"),
        ("prices", "zeta", -1.0, "scenario.prices: zeta must be non-negative, got -1.0"),
        ("prices", "c_H2", -5.0, "scenario.prices: c_H2 must be non-negative, got -5.0"),
        ("scales", "M", 1e300, "scales: M must lie in [1e-75, 1e75], got 1e+300"),
        ("scales", "M", 1e-300, "scales: M must lie in [1e-75, 1e75], got 1e-300"),
    ], ids=["M-0", "p0-negative", "a_H2-100", "mu-1", "G-0", "T-0", "zeta-negative",
            "c_H2-negative", "M-1e300", "M-1e-300"])
    def test_scenario_number_outside_the_physics(self, tmp_path, capsys,
                                                 section, key, value, message):
        """Finite numbers that the physics cannot use are input errors: no
        division by zero or overflow, no solve that prices compression at
        zero, and no negative price that pays for buying gas or compressing."""
        doc = json.loads(bundled_path("single-pipe", "scenario").read_text())
        doc.setdefault(section, {})[key] = value
        scn_path = tmp_path / "scenario.json"
        scn_path.write_text(json.dumps(doc))
        assert run_cli("--network", bundled_path("single-pipe", "network"),
                       "--scenario", scn_path, "--out", tmp_path / "out",
                       "--mode", "steady") == 2
        assert message in capsys.readouterr().err

    def test_bad_topology(self, tmp_path, case_files):
        net_path, scn_path = case_files
        doc = copy.deepcopy(LINE_NETWORK_DOC)
        doc["nodes"].append({"id": "N9", "role": "junction"})
        net_path.write_text(json.dumps(doc))
        assert run_cli("--network", net_path, "--scenario", scn_path) == 2

    def test_infeasible_demand(self, tmp_path, case_files):
        net_path, scn_path = case_files
        doc = copy.deepcopy(LINE_NETWORK_DOC)
        # far beyond what qw_max allows, so no feasible point exists
        doc["nodes"][1].pop("gE_max")
        doc["nodes"][1]["gE_fixed"] = 1.0e6
        net_path.write_text(json.dumps(doc))
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", tmp_path / "out", "--mode", "steady") == 3

    @pytest.mark.parametrize("patch, code, message", [
        (lambda mp: mp.setattr(h2blend.cli, "SolverOptions",
                               functools.partial(SolverOptions, max_iter=2)),
         4, "iteration limit of 2 reached"),
        (lambda mp: mp.setattr(h2blend.solver, "splu", singular_factor),
         3, "KKT system could not be regularized"),
    ], ids=["iteration-limit", "error"])
    def test_stage_that_stops_early(self, tmp_path, case_files, capsys, monkeypatch,
                                    patch, code, message):
        """A solve stopped at the iteration limit exits 4, one ending in a
        solver error (no factorization succeeds) 3; stderr names why."""
        patch(monkeypatch)
        net_path, scn_path = case_files
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", tmp_path / "out") == code
        assert f"error: steady stage: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("demand", [{"gE_max": 0.0}, {"gE_fixed": 0.0}],
                             ids=["gE_max", "gE_fixed"])
    def test_zero_demand_passes_the_audit(self, tmp_path, case_files, demand):
        """With no energy withdrawn, the transfers are numerical dust; the
        conservation audit measures their net against the linepack."""
        net_path, scn_path = case_files
        doc = copy.deepcopy(LINE_NETWORK_DOC)
        doc["nodes"][1].pop("gE_max")
        doc["nodes"][1].update(demand)
        net_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("--network", net_path, "--scenario", scn_path, "--out", out) == 0
        audit = json.loads((out / "audit.json").read_text())
        assert all(c["passed"] for c in audit["checks"]
                   if c["name"].startswith("conservation/"))

    def test_out_is_a_file(self, tmp_path, case_files, capsys):
        net_path, scn_path = case_files
        out = tmp_path / "out"
        out.write_text("")
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", out, "--mode", "steady") == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_bundled_case_paths_exist(self):
        for case in ("single-pipe", "eight-node"):
            assert bundled_path(case, "network").exists()
            assert bundled_path(case, "scenario").exists()


class TestSteadyRun:
    def test_outputs_written(self, tmp_path, case_files):
        net_path, scn_path = case_files
        out = tmp_path / "out"
        code = run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", out, "--mode", "steady",
                       "--iter-log", "--export-nlp")
        assert code == 0
        for name in ("nodes.csv", "edges.csv", "transfers.csv",
                     "objective.csv", "audit.json", "audit.txt",
                     "iterations_steady.csv"):
            assert (out / name).exists(), name
        assert (out / "nlp_debug" / "variables.csv").exists()
        audit = json.loads((out / "audit.json").read_text())
        assert audit["passed"] is True

    def test_reruns_are_byte_identical(self, tmp_path, case_files):
        net_path, scn_path = case_files
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("--network", net_path, "--scenario", scn_path,
                           "--out", out, "--mode", "steady") == 0
        for name in ("nodes.csv", "edges.csv", "transfers.csv",
                     "objective.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestTransientAndOverrides:
    def test_transient_with_overrides(self, tmp_path, case_files):
        net_path, scn_path = case_files
        out = tmp_path / "out"
        code = run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", out, "--dt", 2.0, "--dl", 15000.0,
                       "--xi", 0.6)
        assert code == 0
        rows = (out / "nodes.csv").read_text().strip().splitlines()[1:]
        times = sorted({float(r.split(",")[0]) for r in rows})
        assert times == [0.0, 2.0]  # horizon 4 h at dt 2 h
        # 30 km at 15 km resolution gives two segments
        edges = (out / "edges.csv").read_text()
        assert "P1.s2" in edges and "P1.s3" not in edges

    def test_out_dir_from_environment(self, tmp_path, case_files, monkeypatch):
        net_path, scn_path = case_files
        out = tmp_path / "env_out"
        monkeypatch.setenv("H2BLEND_OUT", str(out))
        monkeypatch.chdir(tmp_path)
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--mode", "steady") == 0
        assert (out / "nodes.csv").exists()


@pytest.fixture(scope="module")
def single_pipe_out(tmp_path_factory):
    """Output of the bundled single-pipe case: 48 steps of 0.5 h."""
    out = tmp_path_factory.mktemp("single_pipe")
    assert run_cli("--case", "single-pipe", "--out", out) == 0
    return out


class TestUnreadableOrUnwritableFiles:
    @pytest.mark.parametrize("blocked, content, flags", [
        ("network.json", None, ()),
        ("scenario.json", None, ()),
        ("network.json", b"\xff\xfe\x00garbage", ()),
        ("scenario.json", b"\xff\xfe\x00garbage", ()),
        ("out/nodes.csv", None, ()),
        ("out/nlp_debug", b"", ("--export-nlp",)),
        ("out/iterations_steady.csv", None, ("--iter-log",)),
        ("out/audit.json", None, ()),
        ("out/audit.json", None, ("--mode", "validate-only")),
    ], ids=["network-is-a-directory", "scenario-is-a-directory",
            "network-not-text", "scenario-not-text", "nodes.csv-is-a-directory",
            "nlp_debug-is-a-file", "iteration-log-is-a-directory",
            "audit.json-is-a-directory", "validate-only-audit.json-is-a-directory"])
    def test_exit_code_and_path(self, single_pipe_out, tmp_path, capsys,
                                blocked, content, flags):
        """An input that cannot be read or parsed, or an output that cannot
        be written, exits 2 and names the file: ``blocked`` is made a
        directory, or a file holding ``content``."""
        net_path, scn_path = tmp_path / "network.json", tmp_path / "scenario.json"
        shutil.copy(bundled_path("single-pipe", "network"), net_path)
        shutil.copy(bundled_path("single-pipe", "scenario"), scn_path)
        out = tmp_path / "out"
        if "validate-only" in flags:
            shutil.copytree(single_pipe_out, out)
        path = tmp_path / blocked
        path.unlink(missing_ok=True)
        if content is None:
            path.mkdir(parents=True)
        else:
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(content)
        assert run_cli("--network", net_path, "--scenario", scn_path, "--out", out,
                       *(flags if "validate-only" in flags
                         else ("--mode", "steady", *flags))) == 2
        assert str(path) in capsys.readouterr().err


class TestValidateOnly:
    def test_revalidates_written_solution(self, tmp_path, case_files):
        net_path, scn_path = case_files
        out = tmp_path / "out"
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", out) == 0
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", out, "--mode", "validate-only") == 0

    def test_missing_solution(self, tmp_path, case_files):
        net_path, scn_path = case_files
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", tmp_path / "empty",
                       "--mode", "validate-only") == 2

    def test_tampered_solution_fails_audit(self, tmp_path, case_files):
        net_path, scn_path = case_files
        out = tmp_path / "out"
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", out) == 0
        nodes = (out / "nodes.csv").read_text().splitlines()
        header, first = nodes[0], nodes[1].split(",")
        first[3] = repr(float(first[3]) * 1.5)  # corrupt one density
        nodes[1] = ",".join(first)
        (out / "nodes.csv").write_text("\n".join(nodes) + "\n")
        assert run_cli("--network", net_path, "--scenario", scn_path,
                       "--out", out, "--mode", "validate-only") == 5

    @pytest.mark.parametrize("edit, message", [
        (None, "trajectory nodes do not match"),
        (lambda doc: doc["compressors"][0].update(id="CX"),
         "trajectory compressors do not match"),
        (lambda doc: doc["nodes"][1].update(role="injection"),
         "trajectory supplies do not match"),
    ], ids=["eight-node", "compressor-renamed", "junction-made-injection"])
    def test_solution_of_another_network(self, single_pipe_out, tmp_path, capsys,
                                         edit, message):
        if edit is None:
            # eight-node at dt 0.5 h has the same grid, but other nodes
            inputs = ("--case", "eight-node", "--dt", 0.5)
        else:
            # the single pipe with one compressor or supply changed: the
            # nodes and segments still match
            doc = json.loads(bundled_path("single-pipe", "network").read_text())
            edit(doc)
            net_path = tmp_path / "network.json"
            net_path.write_text(json.dumps(doc))
            inputs = ("--network", net_path,
                      "--scenario", bundled_path("single-pipe", "scenario"))
        assert run_cli(*inputs, "--out", single_pipe_out, "--mode", "validate-only") == 2
        err = capsys.readouterr().err
        assert "does not fit the inputs" in err
        assert message in err

    def test_solution_on_another_grid(self, single_pipe_out, capsys):
        assert run_cli("--case", "single-pipe", "--dt", 1.0, "--out", single_pipe_out,
                       "--mode", "validate-only") == 2
        assert "trajectory has 48 time steps, the scenario 24" in capsys.readouterr().err
