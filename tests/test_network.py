import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    LINE_NETWORK_DOC,
    SHORT_SCENARIO_DOC,
    line_network,
    short_scenario,
)
from h2blend.network import (
    ParseError,
    Profile,
    Scenario,
    load_network,
    load_scenario,
    parse_network,
    parse_scenario,
    segment_pipes,
    validate_topology,
)


def doc():
    return copy.deepcopy(LINE_NETWORK_DOC)


class TestParseNetwork:
    def test_defaults(self):
        net = parse_network(doc())
        pipe = net.pipes[0]
        assert pipe.A == pytest.approx(math.pi * 0.9144 ** 2 / 4.0)
        assert pipe.lam == 0.01
        node = net.node("N3")
        assert node.p_min == 3.0e6 and node.p_max == 6.0e6

    def test_role_sets(self):
        net = parse_network(doc())
        assert net.slack_ids == ("N1",)
        assert net.withdrawal_ids == ("N3",)
        assert net.supply_ids == ("N1",)

    def test_duplicate_id(self):
        """Ids are unique across nodes, pipes and compressors."""
        d = doc()
        d["nodes"].append(dict(d["nodes"][1]))
        with pytest.raises(ParseError, match=r"nodes\['N3'\].*duplicate"):
            parse_network(d)
        d = doc()
        d["compressors"] = [{"id": "P1", "from": "N1", "to": "N3", "fc_max": 100.0}]
        with pytest.raises(ParseError, match=re.escape("compressors['P1']: duplicate id")):
            parse_network(d)

    def test_unknown_endpoint(self):
        """An end must name a node: not a missing id, not a pipe or
        compressor, and not a value that is no string at all."""
        edge = {"id": "E9", "from": "N1", "L": 1000.0, "D": 0.9, "fc_max": 100.0}
        for key in ("pipes", "compressors"):
            for to in ("missing", "P1", "E9", ["N3"]):
                d = doc()
                d[key] = [*d.get(key, []), {**edge, "to": to}]
                with pytest.raises(ParseError, match=re.escape(
                        f"{key}['E9']: unknown node reference {to!r}")):
                    parse_network(d)

    def test_self_loop(self):
        """A pipe or compressor from a node to itself is rejected whatever
        the segment length would make of it later."""
        for key, edge in (("pipes", {"L": 1000.0, "D": 0.9}),
                          ("pipes", {"L": 30000.0, "D": 0.9}),
                          ("compressors", {"fc_max": 100.0})):
            d = doc()
            d[key] = [*d.get(key, []), {"id": "E9", "from": "N3", "to": "N3", **edge}]
            with pytest.raises(ParseError, match=re.escape(
                    f"{key}['E9']: starts and ends at the same node")):
                parse_network(d)

    def test_missing_slack(self):
        d = doc()
        d["nodes"][0] = {"id": "N1", "role": "junction"}
        with pytest.raises(ParseError, match="slack"):
            parse_network(d)

    def test_p_slack_only_on_slack(self):
        d = doc()
        d["nodes"][1]["p_slack"] = 4.0e6
        with pytest.raises(ParseError, match="p_slack"):
            parse_network(d)

    def test_eta_s_only_on_supply(self):
        d = doc()
        d["nodes"][1]["eta_s"] = 0.1
        with pytest.raises(ParseError, match="eta_s"):
            parse_network(d)

    def test_withdrawal_needs_demand(self):
        d = doc()
        del d["nodes"][1]["gE_max"]
        with pytest.raises(ParseError, match="gE_max or gE_fixed"):
            parse_network(d)

    def test_demand_modes_exclusive(self):
        d = doc()
        d["nodes"][1]["gE_fixed"] = 5000.0
        with pytest.raises(ParseError, match="mutually exclusive"):
            parse_network(d)

    def test_bad_pressure_bounds(self):
        d = doc()
        d["nodes"][1]["p_min"] = 7.0e6
        with pytest.raises(ParseError, match="p_min < p_max"):
            parse_network(d)

    @pytest.mark.parametrize("parse, document, mutate, message", [
        (parse_network, LINE_NETWORK_DOC, lambda d: d["pipes"][0].pop("L"),
         r"pipes\['P1'\]: L is missing"),
        (parse_network, LINE_NETWORK_DOC, lambda d: d["pipes"][0].update(D="wide"),
         r"pipes\['P1'\]: D must be a number, got 'wide'"),
        (parse_network, LINE_NETWORK_DOC,
         lambda d: d.update(compressors=[{"id": "C1", "from": "N1", "to": "N3"}]),
         r"compressors\['C1'\]: fc_max is missing"),
        (parse_scenario, SHORT_SCENARIO_DOC,
         lambda d: d.update(profiles={"N1": {"type": "sinusoid", "delta": 0.01}}),
         r"profiles\['N1'\]: eta0 is missing"),
        (parse_scenario, SHORT_SCENARIO_DOC, lambda d: d.update(dt_hours="half"),
         r"scenario: dt_hours must be a number, got 'half'"),
    ])
    def test_malformed_number_names_its_location(self, parse, document, mutate,
                                                 message):
        d = copy.deepcopy(document)
        mutate(d)
        with pytest.raises(ParseError, match=message):
            parse(d)

    @pytest.mark.parametrize("parse, document, mutate, message", [
        (parse_network, LINE_NETWORK_DOC, lambda d: d["nodes"].append(5),
         r"nodes\[2\]: must be an object, got int"),
        (parse_network, LINE_NETWORK_DOC, lambda d: d["pipes"].insert(0, "P1"),
         r"pipes\[0\]: must be an object, got str"),
        (parse_network, LINE_NETWORK_DOC, lambda d: d.update(nodes={"id": "N1"}),
         r"nodes: must be an array, got dict"),
        (parse_scenario, SHORT_SCENARIO_DOC, lambda d: d.update(profiles=[]),
         r"scenario.profiles: must be an object, got list"),
        (parse_scenario, SHORT_SCENARIO_DOC, lambda d: d.update(profiles={"N1": 0.1}),
         r"profiles\['N1'\]: must be an object, got float"),
        (parse_scenario, SHORT_SCENARIO_DOC, lambda d: d.update(prices=5),
         r"scenario.prices: must be an object, got int"),
        (parse_scenario, SHORT_SCENARIO_DOC, lambda d: d.update(gas="x"),
         r"scenario.gas: must be an object, got str"),
    ])
    def test_wrong_shape_names_its_location(self, parse, document, mutate,
                                            message):
        d = copy.deepcopy(document)
        mutate(d)
        with pytest.raises(ParseError, match=message):
            parse(d)

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_network(path)


class TestValidateTopology:
    def test_clean(self):
        assert validate_topology(parse_network(doc())) == []

    def test_unreachable_node(self):
        d = doc()
        d["nodes"].append({"id": "N9", "role": "junction"})
        diags = validate_topology(parse_network(d))
        assert diags == ["unreachable node 'N9'"]


class TestSegmentPipes:
    def test_exact_division(self):
        seg = segment_pipes(line_network(), 10000.0)
        ids = [s.id for s in seg.segments]
        assert ids == ["P1.s1", "P1.s2", "P1.s3"]
        aux = [n.id for n in seg.nodes if n.id not in ("N1", "N3")]
        assert aux == ["P1.1", "P1.2"]
        assert all(s.L == pytest.approx(10000.0) for s in seg.segments)
        chain = [(s.from_node, s.to_node) for s in seg.segments]
        assert chain == [("N1", "P1.1"), ("P1.1", "P1.2"), ("P1.2", "N3")]

    def test_single_segment_when_dl_exceeds_length(self):
        seg = segment_pipes(line_network(), 1.0e6)
        assert len(seg.segments) == 1
        assert seg.segments[0].L == pytest.approx(30000.0)

    def test_rounds_up_on_non_divisible_length(self):
        d = doc()
        d["pipes"][0]["L"] = 25000.0
        seg = segment_pipes(parse_network(d), 10000.0)
        assert len(seg.segments) == 3
        assert all(s.L == pytest.approx(25000.0 / 3.0) for s in seg.segments)

    def test_aux_nodes_inherit_tightest_bounds(self):
        d = doc()
        d["nodes"][1]["p_max"] = 5.5e6
        seg = segment_pipes(parse_network(d), 10000.0)
        aux = next(n for n in seg.nodes if n.id == "P1.1")
        assert aux.p_max == 5.5e6

    def test_rejects_disjoint_endpoint_pressure_ranges(self):
        d = doc()
        d["nodes"][0].update(p_max=4.0e6, p_slack=3.5e6)
        d["nodes"][1]["p_min"] = 4.5e6
        net = parse_network(d)
        with pytest.raises(ValueError, match="'P1'.*do not overlap"):
            segment_pipes(net, 10000.0)
        # one segment creates no auxiliary junction, so nothing is crossed
        assert len(segment_pipes(net, 1.0e6).segments) == 1

    def test_rejects_a_node_holding_an_auxiliary_id(self):
        d = doc()
        d["nodes"].append({"id": "P1.1", "role": "junction"})
        d["pipes"].append({"id": "P2", "from": "N3", "to": "P1.1",
                           "L": 5000.0, "D": 0.9})
        net = parse_network(d)
        with pytest.raises(ParseError, match=re.escape(
                "nodes['P1.1']: id taken by an auxiliary junction of pipe 'P1'")):
            segment_pipes(net, 10000.0)
        # unsplit, P1 makes no auxiliary junction
        assert len(segment_pipes(net, 30000.0).segments) == 2

    def test_rejects_non_positive_dl(self):
        with pytest.raises(ValueError):
            segment_pipes(line_network(), 0.0)

    def test_caps_the_segment_count_of_the_whole_network(self):
        """Two parallel 30 km pipes: 1,000 segments each fit the cap of
        2,000, 1,001 each do not."""
        d = doc()
        d["pipes"].append({**d["pipes"][0], "id": "P2"})
        net = parse_network(d)
        assert len(segment_pipes(net, 30.0).segments) == 2000
        with pytest.raises(ValueError, match="more than 2000 segments"):
            segment_pipes(net, 29.99)


class TestProfiles:
    def test_sinusoid_shape(self):
        t = np.linspace(0.0, 24.0, 49)
        vals = Profile(kind="sinusoid", eta0=0.1, delta=0.05, nu=2.0).evaluate(t, 24.0)
        assert vals.max() == pytest.approx(0.15, abs=1e-12)
        assert vals.min() == pytest.approx(0.05, abs=1e-12)
        assert vals[0] == pytest.approx(0.1)

    def test_sinusoid_must_stay_in_unit_interval(self):
        with pytest.raises(ParseError, match=re.escape(
                "profiles['N1']: eta0 +/- delta must stay within [0, 1]")):
            parse_scenario({"profiles": {"N1": {
                "type": "sinusoid", "eta0": 0.03, "delta": 0.05, "nu": 1.0}}})

    def test_series_is_piecewise_constant(self):
        prof = Profile(kind="series", times=(0.0, 6.0, 12.0),
                       values=(0.1, 0.2, 0.05))
        out = prof.evaluate([0.0, 5.9, 6.0, 11.0, 20.0], 24.0)
        assert list(out) == [0.1, 0.1, 0.2, 0.2, 0.05]
        # periodic: before the first sample the last value holds
        prof = Profile(kind="series", times=(6.0, 12.0), values=(0.1, 0.2))
        out = prof.evaluate([0.0, 5.9, 6.0, 11.0, 12.0, 23.0], 24.0)
        assert list(out) == [0.2, 0.2, 0.1, 0.1, 0.2, 0.2]

    def test_constant(self):
        prof = Profile(kind="constant", eta0=0.07)
        assert np.all(prof.evaluate([0.0, 10.0], 24.0) == 0.07)


def sinusoid(nu, delta=0.01):
    return {"type": "sinusoid", "eta0": 0.05, "delta": delta, "nu": nu}


class TestPeriods:
    """Scenario.periods: how many identical periods the data of a 48-step
    horizon hold."""

    @pytest.mark.parametrize("nus, periods", [
        ((2,), 2), ((2, 4), 2), ((4,), 4), ((2, 3), 1), ((1, 2), 1), ((2.5,), 1)])
    def test_sinusoid_frequencies(self, nus, periods):
        scenario = parse_scenario({"profiles": {
            f"S{k}": sinusoid(nu) for k, nu in enumerate(nus)}})
        assert scenario.n_steps == 48
        assert scenario.periods == periods

    @pytest.mark.parametrize("profiles", [
        {"S0": sinusoid(2), "S1": {"type": "series", "times": [0.0, 12.0],
                                   "values": [0.1, 0.2]}},
        {"S0": sinusoid(2, delta=0.0)},
        {"S0": {"type": "constant", "eta0": 0.1}},
        {}],
        ids=["series", "zero-amplitude", "constant", "none"])
    def test_data_that_do_not_vary_by_sinusoids_repeat_once(self, profiles):
        assert parse_scenario({"profiles": profiles}).periods == 1

    def test_steps_that_no_period_divides(self):
        scenario = parse_scenario({"dt_hours": 0.96, "profiles": {"S0": sinusoid(2)}})
        assert scenario.n_steps == 25
        assert scenario.periods == 1


class TestParseScenario:
    def test_defaults(self):
        scn = parse_scenario({})
        assert scn.T_f == 24.0 and scn.dt == 0.5
        assert scn.c_H2 == 1.5 and scn.c_NG == 0.18
        assert scn.xi == 0.5
        assert scn.n_steps == 48

    def test_empty_document_is_the_default_scenario(self):
        assert parse_scenario({}) == Scenario()

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ParseError, match="divide"):
            parse_scenario({"horizon_hours": 24.0, "dt_hours": 0.7})

    def test_horizon_shorter_than_dt(self):
        """A horizon that rounds to zero time steps is no grid at all."""
        with pytest.raises(ParseError, match="divide"):
            parse_scenario({"horizon_hours": 1e-300, "dt_hours": 0.5})

    def test_xi_range(self):
        with pytest.raises(ParseError, match="xi"):
            parse_scenario({"xi": 1.5})

    def test_profile_parse(self):
        scn = parse_scenario({"profiles": {
            "N1": {"type": "sinusoid", "eta0": 0.1, "delta": 0.05, "nu": 2.0}}})
        assert scn.profiles["N1"].kind == "sinusoid"
        with pytest.raises(ParseError, match="unknown profile type"):
            parse_scenario({"profiles": {"N1": {"type": "ramp"}}})

    def test_series_times_must_increase(self):
        for times in ([12.0, 0.0], [0.0, 0.0]):
            with pytest.raises(ParseError, match="strictly increase"):
                parse_scenario({"profiles": {"N1": {
                    "type": "series", "times": times, "values": [0.2, 0.0]}}})

    def test_supply_fraction_falls_back_to_node_eta(self):
        scn = short_scenario()
        node = line_network(eta_s=0.12).node("N1")
        vals = scn.supply_fraction(node, np.array([0.0, 1.0]))
        assert np.all(vals == 0.12)

    def test_compressor_work_constant(self):
        scn = short_scenario()
        # 286.76 * 1.31 * 288.7 / (0.505 * 0.31)
        assert scn.compressor_work_constant() == pytest.approx(692763.0, rel=1e-4)

    def test_load_scenario(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"horizon_hours": 12.0, "dt_hours": 1.0}))
        scn = load_scenario(path)
        assert scn.n_steps == 12


def test_readme_json_examples_parse():
    """Every JSON block of README.md is a valid network or scenario."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    for block in blocks:
        document = json.loads(block)
        (parse_network if "nodes" in document else parse_scenario)(document)
