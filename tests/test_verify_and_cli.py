import argparse
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

import spanlab
from spanlab import SUITE_IDS, SweepConfig, UnknownSuite, run_all, run_suite
from spanlab.cli import _build_parser, _load_sections, main


SMALL = SweepConfig(max_entry=5, random_trials=30)

# Per suite: config, cases checked, and under falsify_oracle the failure count
# and first failure, recorded from the hand-counted suites before the shared
# check recorder.  prop44_45 checks 12401 cases at its defaults, too many for
# tier-1, so it is pinned at a small config.
PINNED = {
    "prop33": (SweepConfig(), 9720, 24, {
        "expected": "True", "got": "False",
        "input": {"check": "lower_bound", "m": 2, "seq": [0, 1]}}),
    "cor43": (SweepConfig(), 10000, 10000, {
        "expected": "63", "got": "62",
        "input": {"c": 5, "check": "translate", "d": 3, "m": 4, "seq": [1, 8, 13, 24, 28],
                  "trial": 0}}),
    "prop41": (SweepConfig(), 715, 715, {
        "expected": "3", "got": "2",
        "input": {"check": "sumset_vs_tally", "m": 1, "seq": [0, 1]}}),
    "prop49_410": (SweepConfig(), 597, 19738, {
        "expected": "3", "got": "2",
        "input": {"check": "line_value", "m": 1, "m_cap": 4, "seq": [0, 1]}}),
    "prop51": (SweepConfig(), 110, 96, {
        "expected": "8", "got": "7",
        "input": {"check": "connected", "m": 3, "seq": [0, 1, 2]}}),
    "rem53": (SweepConfig(), 8, 1, {
        "expected": "1", "got": "0",
        "input": {"check": "no_quadric_relations", "seq": [0, 1, 3]}}),
    "prop44_45": (SweepConfig(max_entry=4, random_trials=5), 101, 40, {
        "expected": "True", "got": "False",
        "input": {"check": "span_lower_bound", "m": 2, "seq": [0, 1], "trial": 0}}),
    "prop46_47": (SweepConfig(), 126, 72, {
        "expected": "8", "got": "7",
        "input": {"check": "t_maximal", "seq": [0, 1, 2, 3], "system": "monomial", "t": 2}}),
    "thm14_15": (SweepConfig(), 21, 12, {
        "expected": "2", "got": "1",
        "input": {"check": "max_count", "family": "progression", "m": 2, "n": 2}}),
    "prop37": (SweepConfig(), 9, 9, {
        "expected": "10", "got": "9", "input": {"check": "budget", "n": 2}}),
}


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("nope")

    def test_all_ids_registered(self):
        assert set(SUITE_IDS) == {
            "prop33", "cor43", "prop41", "prop49_410", "prop51",
            "rem53", "prop44_45", "prop46_47", "thm14_15", "prop37",
        }

    @pytest.mark.parametrize("suite_id", ["prop33", "cor43", "prop41", "prop49_410", "prop37"])
    def test_small_runs_pass(self, suite_id):
        report = run_suite(suite_id, SMALL)
        assert report.passed
        assert report.checked > 0

    def test_deterministic_reports(self):
        a = run_suite("cor43", SMALL).to_dict()
        b = run_suite("cor43", SMALL).to_dict()
        a.pop("seconds"), b.pop("seconds")
        assert a == b

    @pytest.mark.parametrize("suite_id", SUITE_IDS)
    def test_falsified_oracle_is_caught(self, suite_id):
        cfg = SweepConfig(max_entry=5, random_trials=20, falsify_oracle=True)
        report = run_suite(suite_id, cfg)
        assert not report.passed
        assert report.failures[0]["expected"] != report.failures[0]["got"]

    @pytest.mark.parametrize("suite_id", SUITE_IDS)
    def test_checked_is_pinned(self, suite_id):
        cfg, checked, _, _ = PINNED[suite_id]
        report = run_suite(suite_id, cfg)
        assert report.passed
        assert report.checked == checked

    @pytest.mark.parametrize("suite_id", SUITE_IDS)
    def test_falsified_failures_are_pinned(self, suite_id):
        cfg, checked, count, first = PINNED[suite_id]
        report = run_suite(suite_id, replace(cfg, falsify_oracle=True))
        assert report.checked == checked
        assert len(report.failures) == count
        assert report.failures[0] == first

    def test_run_all_returns_every_suite_in_order(self):
        reports = run_all(SweepConfig(max_entry=4, random_trials=20))
        assert [r.suite for r in reports] == list(SUITE_IDS)
        assert all(r.passed for r in reports)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def refused(capsys, argv):
    # A domain error within a second: exit 1, nothing on stdout and one
    # error line on stderr, which is returned.
    start = time.perf_counter()
    code = main(list(argv))
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def leaves(parser, path=""):
    # Every leaf command of the parser, as (its words, its parser).
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, child in group.choices.items():
            yield from leaves(child, f"{path} {name}".strip())


LIMIT = sys.get_int_max_str_digits()

# Seven sections 1, t, ..., t^6 with seeded tails to t^9, as text: every
# degree-10 product is dense, and their 8,008 rows reach all 91 columns.
DENSE7 = json.dumps([[str(c) for c in sec] for sec in
                     spanlab.perturbed_system(spanlab.validate(range(7)), tail=3).sections])

# A small valid call of every leaf but verify, whose --trials and --max-entry
# size a sweep, not a budget; the jets leaves also read a sections file.
PROBED = [
    ("span", "--seq", "0,1,3", "--m", "2"),
    ("semigroup", "--gens", "3,5"),
    ("curve", "--seq", "0,1,3"),
    ("hilbert", "--seq", "0,1,3", "--mcap", "8"),
    ("ideal", "dims", "--seq", "0,1,3", "--m", "2"),
    ("ideal", "gendeg", "--seq", "0,1,3", "--mcap", "4"),
    ("game", "trace", "--seq", "0,1,2", "--from", "1,0,1", "--to", "0,2,0"),
    ("jets", "rank", "--m", "2"),
    ("jets", "maximal", "--m", "2"),
    ("jets", "profile", "--m", "2"),
    ("jets", "estimate", "--mlo", "1", "--mhi", "3"),
    ("bounds", "hypersurfaces", "--n", "3", "--m", "2"),
    ("bounds", "pluecker", "--n", "3", "--d", "4", "--g", "1", "--weights", "8,8"),
]
PROBES = [(base, at) for base in PROBED for at, word in enumerate(base) if word.startswith("--")]


class TestCli:
    def test_span_human(self, capsys):
        code, out = run_cli(capsys, "span", "--seq", "0,1,2,4", "--m", "3", "--classify")
        assert code == 0
        assert "12" in out and "NEAR_AP_HIGH" in out

    def test_span_envelope_round_trip(self, capsys):
        code, out = run_cli(capsys, "span", "--seq", "0,1,3", "--m", "2", "--json")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["result"]["span"] == 6
        assert envelope["result"]["values"] == [0, 1, 2, 3, 4, 6]
        again = json.loads(run_cli(capsys, "span",
                                   "--seq", envelope["inputs"]["seq"],
                                   "--m", str(envelope["inputs"]["m"]), "--json")[1])
        assert again["result"] == envelope["result"]

    def test_semigroup(self, capsys):
        code, out = run_cli(capsys, "semigroup", "--gens", "3,5", "--json")
        assert code == 0
        assert json.loads(out)["result"]["gaps"] == [1, 2, 4, 7]

    def test_curve(self, capsys):
        code, out = run_cli(capsys, "curve", "--seq", "0,1,3", "--json")
        result = json.loads(out)["result"]
        assert (result["degree"], result["arithmetic_genus"]) == (3, 1)

    def test_hilbert(self, capsys):
        code, out = run_cli(capsys, "hilbert", "--seq", "0,1,2,4", "--mcap", "16", "--json")
        result = json.loads(out)["result"]
        assert (result["leading"], result["constant"], result["threshold"]) == (4, 0, 1)

    def test_ideal_dims(self, capsys):
        code, out = run_cli(capsys, "ideal", "dims", "--seq", "0,1,2", "--m", "2", "--json")
        result = json.loads(out)["result"]
        assert (result["quotient_dim"], result["relation_dim"]) == (5, 1)

    def test_ideal_gendeg(self, capsys):
        code, out = run_cli(capsys, "ideal", "gendeg", "--seq", "0,1,3", "--mcap", "8", "--json")
        assert json.loads(out)["result"]["generation_degree"] == 3

    def test_game_trace(self, capsys):
        code, out = run_cli(capsys, "game", "trace", "--seq", "0,1,2",
                            "--from", "1,0,1", "--to", "0,2,0", "--json")
        result = json.loads(out)["result"]
        assert result["equivalent"] and result["moves"] == [[[0, 2], [1, 1]]]

    def test_game_trace_split(self, capsys):
        code, out = run_cli(capsys, "game", "trace", "--seq", "0,1,3",
                            "--from", "2,0,1", "--to", "0,3,0", "--json")
        result = json.loads(out)["result"]
        assert code == 0 and not result["equivalent"]
        assert result["components"] == [4, 3]

    def test_jets_commands(self, capsys, tmp_path):
        path = tmp_path / "sections.json"
        path.write_text(json.dumps([["1"], ["0", "1"], ["0", "0", "0", "1", "1/2"]]))
        code, out = run_cli(capsys, "jets", "rank", "--sections-file", str(path), "--m", "2", "--json")
        result = json.loads(out)["result"]
        assert (result["adapted"], result["dim"]) == ([0, 1, 3], 6)
        code, out = run_cli(capsys, "jets", "maximal", "--sections-file", str(path), "--m", "2", "--json")
        assert json.loads(out)["result"]["maximal"] is True
        code, out = run_cli(capsys, "jets", "profile", "--sections-file", str(path), "--m", "2", "--json")
        assert json.loads(out)["result"]["kernel_dim"] == 0

    def test_profile_reads_the_span_not_the_basis(self, capsys, tmp_path):
        # Both files span 1, t, t^3, whose one degree-3 relation
        # x_1^3 - x_0^2 x_2 has weight 3.
        path = tmp_path / "sections.json"
        for sections in ([["1"], ["1", "1"], ["0", "0", "0", "1"]],
                         [["1"], ["0", "1"], ["0", "0", "0", "1"]]):
            path.write_text(json.dumps(sections))
            code, out = run_cli(capsys, "jets", "profile", "--sections-file", str(path), "--m", "3")
            assert code == 0
            assert out == "degree-3 relation space: dim 1\n  weight 3: 1\n"

    def test_jets_estimate(self, capsys, tmp_path):
        path = tmp_path / "sections.json"
        path.write_text(json.dumps([["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "0", "1"]]))
        code, out = run_cli(capsys, "jets", "estimate", "--sections-file", str(path),
                            "--mlo", "1", "--mhi", "4", "--json")
        result = json.loads(out)["result"]
        assert (result["degree"], result["arithmetic_genus"]) == (4, 1)

    def test_bounds(self, capsys):
        code, out = run_cli(capsys, "bounds", "hypersurfaces", "--n", "3", "--m", "2", "--json")
        result = json.loads(out)["result"]
        assert (result["max_hypersurfaces"], result["next_hypersurface_bound"]) == (3, 2)
        code, out = run_cli(capsys, "bounds", "pluecker", "--n", "3", "--d", "4", "--g", "1",
                            "--weights", ",".join(["1"] * 16), "--json")
        result = json.loads(out)["result"]
        assert result["budget"] == 16 and result["matches"] is True

    def test_verify_single_suite(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, out = run_cli(capsys, "verify", "--suite", "prop37", "--out", str(out_path))
        assert code == 0
        assert "pass" in out
        assert json.loads(out_path.read_text())["suite"] == "prop37"

    @pytest.mark.parametrize("suite", ["prop41", "all"])
    def test_verify_out_writes_the_reports(self, capsys, tmp_path, suite):
        # The file holds the report (one suite) or the reports in SUITE_IDS
        # order (all), indented by 2 with sorted keys and a final newline.
        path = tmp_path / "report.json"
        code, out = run_cli(capsys, "verify", "--suite", suite, "--max-entry", "4",
                            "--trials", "20", "--json", "--out", str(path))
        assert code == 0
        reports = json.loads(out)["result"]
        assert [r["suite"] for r in reports] == (list(SUITE_IDS) if suite == "all" else [suite])
        written = reports if suite == "all" else reports[0]
        assert path.read_bytes() == (json.dumps(written, indent=2, sort_keys=True) + "\n").encode()

    def test_verify_out_unwritable(self, capsys, tmp_path):
        code = main(["verify", "--suite", "prop37", "--out", str(tmp_path / "absent" / "r.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_verify_out_checked_before_the_sweeps(self, capsys, tmp_path):
        # The sweeps of --suite all take seconds; the path fails first.
        start = time.perf_counter()
        code = main(["verify", "--suite", "all", "--out", str(tmp_path / "absent" / "r.json")])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_verify_out_keeps_the_old_report_when_a_sweep_fails(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        path.write_text("old\n")

        def fail(suite, cfg):
            raise spanlab.SpanlabError("sweep failed")
        monkeypatch.setattr(spanlab.cli, "run_suite", fail)
        assert main(["verify", "--suite", "prop37", "--out", str(path)]) == 1
        assert capsys.readouterr().err == "error: sweep failed\n"
        assert path.read_text() == "old\n"

    def test_exit_codes(self, capsys):
        assert run_cli(capsys, "span", "--seq", "0,1,1", "--m", "2")[0] == 1
        assert run_cli(capsys, "verify", "--suite", "prop37", "--falsify-oracle")[0] == 3
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("span", "--seq", "a,b", "--m", "2"),
        ("span", "--seq", "0,1,x", "--m", "2", "--json"),
        ("semigroup", "--gens", "3,x"),
        ("semigroup", "--gens", "", "--json"),
        ("game", "trace", "--seq", "0,1,2", "--from", "1,0,y", "--to", "0,2,0"),
        ("game", "trace", "--seq", "0,1,2", "--from", "1,0,1", "--to", "0,2.0"),
        ("bounds", "pluecker", "--n", "3", "--d", "4", "--g", "1", "--weights", "1,one"),
    ])
    def test_non_integer_text_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "cor43", "--trials", "0"),
        ("verify", "--suite", "cor43", "--trials", "-3"),
        ("verify", "--suite", "prop33", "--max-entry", "0"),
    ])
    def test_non_positive_sweep_size_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("hilbert", "--seq", "0,1,3", "--mcap", "1"),
        ("hilbert", "--seq", "0,1,3", "--mcap", "0"),
        ("ideal", "gendeg", "--seq", "0,1,3", "--mcap", "0"),
        ("ideal", "gendeg", "--seq", "0,1,3", "--mcap", "1"),
        ("bounds", "hypersurfaces", "--n", "3", "--m", "1"),
        ("jets", "estimate", "--sections-file", "absent.json", "--mlo", "1", "--mhi", "1"),
    ])
    def test_degree_cap_below_two_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "expected an integer >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("ideal", "gendeg", "--seq", "0,1,3", "--t", "0"),
        ("ideal", "gendeg", "--seq", "0,1,3", "--t", "1"),
        ("ideal", "gendeg", "--seq", "0,1,3", "--t", "3"),
        ("ideal", "gendeg", "--seq", "0,1,3", "--t", "3", "--mcap", "2"),
        ("verify", "--suite", "prop49_410", "--mcap", "0"),
        ("verify", "--suite", "prop49_410", "--mcap", "two"),
        ("verify", "--suite", "prop49_410", "--mcap", "1"),
        ("verify", "--suite", "prop49_410", "--mcap", "8"),
    ])
    def test_retired_options_are_usage_errors(self, capsys, argv):
        # The generation floor is 2 and the Hilbert line scan stops at
        # 4 * degree; neither is an option.
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,wanted", [
        (("span", "--seq", "0,1,3", "--m", "0"), "expected a positive integer"),
        (("ideal", "dims", "--seq", "0,1,3", "--m", "-1"), "expected an integer >= 0"),
        (("jets", "rank", "--m", "-1"), "expected an integer >= 0"),
        (("jets", "profile", "--m", "-1"), "expected an integer >= 0"),
        (("jets", "maximal", "--m", "0"), "expected a positive integer"),
        (("jets", "estimate", "--mlo", "0", "--mhi", "3"), "expected a positive integer"),
        (("jets", "estimate", "--mlo", "3", "--mhi", "3"), "above --mlo (3), got 3"),
        (("jets", "estimate", "--mlo", "4", "--mhi", "2"), "above --mlo (4), got 2"),
        (("bounds", "hypersurfaces", "--n", "0", "--m", "2"), "expected a positive integer"),
        (("bounds", "pluecker", "--n", "0", "--d", "4", "--g", "1"), "expected a positive integer"),
        (("bounds", "pluecker", "--n", "3", "--d", "0", "--g", "1"), "expected a positive integer"),
        (("bounds", "pluecker", "--n", "3", "--d", "4", "--g", "-1"), "expected an integer >= 0"),
    ])
    def test_degree_or_size_below_minimum_is_usage_error(self, capsys, tmp_path, argv, wanted):
        # Refused before any sections file is opened: this one does not exist.
        if argv[0] == "jets":
            argv += ("--sections-file", str(tmp_path / "absent.json"))
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert wanted in capsys.readouterr().err

    def test_inputs_echo_raw_text(self, capsys):
        code, out = run_cli(capsys, "semigroup", "--gens", "5, 3", "--json")
        envelope = json.loads(out)
        assert code == 0
        assert envelope["inputs"]["gens"] == "5, 3"
        assert envelope["result"]["generators"] == [3, 5]

    def test_precondition_violations_are_domain_errors(self, capsys):
        # Degrees and sizes below their minimum are usage errors, exit 2;
        # what only the library can judge stays a domain error.
        assert run_cli(capsys, "span", "--seq", "0,3,1", "--m", "2")[0] == 1
        assert run_cli(capsys, "bounds", "pluecker", "--n", "3", "--d", "4", "--g", "1",
                       "--weights", "0,16")[0] == 1

    def test_oversized_semigroup_fails_fast(self, capsys):
        assert "exceeds the limit" in refused(capsys, ["semigroup", "--gens", "1000000007,1000000009"])

    def test_oversized_sumset_fails_fast(self, capsys):
        assert "exceed the limit" in refused(capsys, ["hilbert", "--seq", "0,99999,100000"])

    @pytest.mark.parametrize("argv", [
        ["span", "--seq", "0,1,3", "--m", "9" * LIMIT],
        ["hilbert", "--seq", "0,1,3", "--mcap", "9" * LIMIT],
    ], ids=["span", "hilbert"])
    def test_sumset_past_every_printable_top_fails_fast(self, capsys, argv):
        # 3 * m has one digit more than Python writes as text: the count
        # reads about 10^k, and the error is typed.
        err = refused(capsys, argv)
        assert re.fullmatch(r"error: about 10\^\d+ bits for the 9+-fold sums exceed the limit of 1000000\n", err)

    def test_span_builds_its_sumset_once(self, capsys, monkeypatch):
        # spanlab.span is the function; the module is reached by its path.
        module = sys.modules["spanlab.span"]
        calls = []
        masks = module._sumset_masks

        def counting(seq, m):
            calls.append(m)
            return masks(seq, m)
        monkeypatch.setattr(module, "_sumset_masks", counting)
        code, out = run_cli(capsys, "span", "--seq", "0,1,2,4", "--m", "3", "--classify")
        assert code == 0 and "NEAR_AP_HIGH" in out
        assert calls == [3]

    def test_long_sumset_values_read_in_one_pass(self, capsys):
        # 10-fold sums up to 1,000,000: at the limit, and still fast.
        start = time.perf_counter()
        code, out = run_cli(capsys, "span", "--seq", "0,1,100000", "--m", "10", "--json")
        assert time.perf_counter() - start < 1.0
        result = json.loads(out)["result"]
        assert code == 0 and result["span"] == 66
        assert result["values"] == sorted(i + 100000 * j for j in range(11) for i in range(11 - j))

    def test_generator_degree_work_fails_fast(self, capsys):
        # (0, 1) shifts 2^2 masks per degree of up to m_cap bits: m_cap 70711
        # passes the work limit, 70710 meets it and is answered (0.8 s on a
        # 2-core machine).
        assert refused(capsys, ["ideal", "gendeg", "--seq", "0,1", "--mcap", "70711"]) == (
            "error: 20000182084 bits of work for the generator degrees to degree 70711 "
            "exceed the limit of 20000000000\n")
        start = time.perf_counter()
        code, out = run_cli(capsys, "ideal", "gendeg", "--seq", "0,1", "--mcap", "70710")
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (0, "generated in degrees <= 2 (scanned to 70710)\n")

    @pytest.mark.parametrize("seq, mcap", [("0,1,2", 1000), (",".join(map(str, range(16))), 40)])
    def test_gendeg_without_generators_lists_no_monomial(self, capsys, seq, mcap):
        # Past the enumeration budget, but no degree up to the cap carries a
        # generator, so the sumset masks answer alone.
        start = time.perf_counter()
        code, out = run_cli(capsys, "ideal", "gendeg", "--seq", seq, "--mcap", str(mcap), "--json")
        assert time.perf_counter() - start < 1.0
        result = json.loads(out)["result"]
        assert code == 0 and result["generation_degree"] == 2
        assert result["quadric_generated_by_degree"] == {str(m): True for m in range(3, mcap + 1)}

    @pytest.mark.parametrize("argv, what", [
        (["--seq", "0,1,3", "--mcap", "1000"], "entries for the degree-1000 monomials in 3 variables"),
        (["--seq", "0,1,400000", "--mcap", "3"], "bits for the 3-fold sums"),
    ], ids=["lift", "sumset"])
    def test_gendeg_past_a_budget_fails_fast(self, capsys, argv, what):
        # (0, 1, 3) has a generator in degree 3, so its quadric flags need the
        # enumeration; a top sum past the bitmask limit is refused first.
        assert what in refused(capsys, ["ideal", "gendeg", *argv])

    def test_far_move_search_fails_fast(self, capsys):
        assert "exceed the limit" in refused(capsys, [
            "game", "trace", "--seq", "0,1,2,3,4,5,6,7,8",
            "--from", "30,0,0,0,0,0,0,0,30", "--to", "0,0,0,0,60,0,0,0,0"])

    @pytest.mark.parametrize("argv", [["--n", "100000", "--m", "100000"],
                                      ["--n", "1000000", "--m", "1000000", "--json"]])
    def test_oversized_hypersurface_count_fails_fast(self, capsys, argv):
        # C(200000, 100000) has about 60,000 digits, more than Python writes
        # as text; it is refused before it is computed.
        err = refused(capsys, ["bounds", "hypersurfaces", *argv])
        assert err.startswith("error: about ") and err.endswith(
            f"digits of C({2 * int(argv[1])}, {argv[1]}) exceed the limit of {LIMIT}\n")

    @pytest.mark.parametrize("argv", [
        ["bounds", "pluecker", "--n", "9" * 4000, "--d", "9" * 4000, "--g", "1"],
        ["bounds", "pluecker", "--n", "2", "--d", "3", "--g", "0",
         "--weights", ",".join(["9" * LIMIT] * 2)],
        ["span", "--seq", "0,1", "--m", "1000000"],
        ["bounds", "hypersurfaces", "--n", "9" * LIMIT, "--m", "2"],
        ["bounds", "hypersurfaces", "--n", "2", "--m", "9" * LIMIT],
        ["ideal", "dims", "--seq", "0,1," + "9" * LIMIT, "--m", "2"],
    ], ids=["pluecker-budget", "pluecker-weights", "span-work", "hypersurfaces-n", "hypersurfaces-m",
            "ideal-dims"])
    def test_unprintable_or_slow_answers_fail_fast(self, capsys, argv):
        # A budget, weight sum, count or weight Python cannot write (for the
        # counts, m + n is too long to write as well), and a sumset whose
        # shifts would run for about a minute, are typed errors before any output.
        assert re.fullmatch(r"error: .* exceed the limit of \d+\n", refused(capsys, argv))

    def test_largest_printable_pluecker_answers(self, capsys):
        # The budget 10^limit - 2 and the weight sum 10^limit - 1 have
        # `limit` digits, the most Python writes: both are printed.
        limit = sys.get_int_max_str_digits()
        d = str(5 * 10 ** (limit - 1) - 1)
        code, out = run_cli(capsys, "bounds", "pluecker", "--n", "1", "--d", d, "--g", "1",
                            "--weights", f"{10 ** limit - 2},1")
        assert code == 0
        assert out == (f"total inflection weight: {10 ** limit - 2}\n"
                       f"supplied weights sum to {10 ** limit - 1}: MISMATCH\n")

    @pytest.mark.parametrize("argv", [
        ["ideal", "dims", "--seq", ",".join(map(str, range(16))), "--m", "20"],
        ["jets", "rank", "--m", "40"],
    ])
    def test_oversized_enumeration_fails_fast(self, capsys, tmp_path, argv):
        # C(35, 15) ~ 3.2e9 monomials; C(46, 6) ~ 9.4e6 product rows of seven
        # unit sections 1, t, ..., t^6.
        path = tmp_path / "unit7.json"
        path.write_text(json.dumps([[0] * i + [1] for i in range(7)]))
        if argv[0] == "jets":
            argv = argv + ["--sections-file", str(path)]
        assert "exceed the limit" in refused(capsys, argv)

    @pytest.mark.parametrize("sections, argv", [
        ("[[1, 2], [0, 1]]", ["rank", "--m", "1000000000"]),
        ("[[1, 2], [0, 1]]", ["maximal", "--m", "1000000000"]),
        ("[[1, 2], [0, 1]]", ["profile", "--m", "1000000000"]),
        # Three sections take seconds for the ranks at the degrees below the
        # first one over the budget, so estimate must check --mhi first.
        ("[[1, 2, 3], [0, 1, 5], [0, 0, 1, 7]]", ["estimate", "--mlo", "1", "--mhi", "1000000000"]),
        (DENSE7, ["estimate", "--mlo", "1", "--mhi", "1000000000"]),
    ], ids=["rank", "maximal", "profile", "estimate", "estimate-dense7"])
    def test_huge_degree_fails_before_the_coefficient_bound(self, capsys, tmp_path, sections, argv):
        # Sections 1 + 2t and t have L1 norm 3: the product bound 3^m would
        # have 1.6e9 bits at this degree, so the budget must be checked first.
        path = tmp_path / "sections.json"
        path.write_text(sections)
        assert "exceed the limit" in refused(capsys, ["jets", argv[0], "--sections-file", str(path), *argv[1:]])

    def test_dense_rank_at_the_limit(self, capsys, tmp_path):
        path = tmp_path / "dense7.json"
        path.write_text(DENSE7)
        start = time.perf_counter()
        code, out = run_cli(capsys, "jets", "rank", "--sections-file", str(path), "--m", "10", "--json")
        assert time.perf_counter() - start < 10.0
        assert code == 0 and json.loads(out)["result"]["dim"] == 91

    @pytest.mark.parametrize("base, at", PROBES, ids=[f"{' '.join(filter(str.isalpha, b))} {b[at]}" for b, at in PROBES])
    def test_extreme_values_answer_or_refuse_fast(self, capsys, tmp_path, base, at):
        # One option of a small valid call, or the last entry of a list, set
        # to each value: within a second every call exits 0-3, with at most
        # one error line; an untyped error escapes main and fails the test.
        path = tmp_path / "sections.json"
        path.write_text("[[1], [0, 1, 2], [0, 0, 0, 1, 3]]")
        for value in ("0", "1", "2", str(10 ** 6), str(10 ** 12), "9" * LIMIT):
            argv = list(base)
            argv[at + 1] = ",".join(base[at + 1].split(",")[:-1] + [value])
            if base[0] == "jets":
                argv += ["--sections-file", str(path)]
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2, argv[:at + 1]
            assert time.perf_counter() - start < 1.0, (argv[:at + 1], value[:12])
            assert code in (0, 1, 2, 3)
            assert capsys.readouterr().err.count("error:") <= 1

    def test_every_leaf_is_registered_with_json_handler_and_parser(self):
        found = dict(leaves(_build_parser()))
        assert sorted(found) == [
            "bounds hypersurfaces", "bounds pluecker", "curve", "game trace", "hilbert",
            "ideal dims", "ideal gendeg", "jets estimate", "jets maximal", "jets profile",
            "jets rank", "semigroup", "span", "verify"]
        for name, leaf in found.items():
            assert leaf._option_string_actions["--json"].default is False, name
            assert callable(leaf.get_default("handler")), name
            assert leaf.get_default("parser") is leaf, name
        assert {" ".join(filter(str.isalpha, base)) for base in PROBED} == set(found) - {"verify"}

    def test_repeated_calls_share_parser_state_safely(self, capsys):
        argv = ["ideal", "gendeg", "--seq", "0,1,3", "--mcap", "5", "--json"]

        def envelope():
            code, out = run_cli(capsys, *argv)
            assert code == 0
            env = json.loads(out)
            del env["seconds"]
            return env

        first = envelope()
        with pytest.raises(SystemExit) as exc:
            main(["ideal", "gendeg", "--mcap", "5"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert envelope() == first
        assert first["result"]["quadric_generated_by_degree"] == {
            "3": False, "4": False, "5": False}

    def test_missing_sections_file(self, capsys):
        assert main(["jets", "rank", "--sections-file", "/nonexistent.json", "--m", "2"]) == 1

    @pytest.mark.parametrize("text", ["5", "[1, 2]"])
    def test_malformed_sections_file(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["jets", "rank", "--sections-file", str(path), "--m", "2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "expected a JSON array of coefficient arrays" in err

    def test_invalid_json_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[1],\n[0 1]]")
        assert main(["jets", "rank", "--sections-file", str(path), "--m", "2"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: Expecting ',' delimiter: line 2 column 4 (char 9)\n")

    def test_non_utf8_file_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'[["\xbd"], [0, 1]]')
        assert main(["jets", "rank", "--sections-file", str(path), "--m", "2"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xbd in position 3: "
            "invalid start byte\n")

    @pytest.mark.parametrize("text", ['[["1e1000000000"], [0, 1]]', '[[1e1000000000], [0, 1]]'])
    def test_exponent_in_sections_file_fails_fast(self, capsys, tmp_path, text):
        # Fraction would compute 10**1000000000; the text is refused unread.
        path = tmp_path / "big.json"
        path.write_text(text)
        err = refused(capsys, ["jets", "rank", "--sections-file", str(path), "--m", "2"])
        assert err.startswith(f"error: {path}: invalid coefficient '1e1000000000'")
        assert "exponent notation" in err

    def test_decimal_numbers_in_sections_file_read_exactly(self, tmp_path):
        # A JSON number is read from its text, not from the float it rounds to.
        path = tmp_path / "decimal.json"
        path.write_text('[[0.0000001], [0, 0.1]]')
        assert _load_sections(str(path)).sections == ((F(1, 10 ** 7),), (F(0), F(1, 10)))

    @pytest.mark.parametrize("written", ["true", "false", "null", "NaN", "[1]"])
    def test_non_number_in_sections_file(self, capsys, tmp_path, written):
        # Named as the file writes it, not as Python's True or None.
        path = tmp_path / "bad.json"
        path.write_text(f"[[{written}], [0, 1]]")
        assert main(["jets", "rank", "--sections-file", str(path), "--m", "2"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path}: invalid coefficient {written}: "
                       "write an integer, a decimal or p/q\n")

    def test_dependent_polynomial_sections(self, capsys, tmp_path):
        # Sections are exact polynomials: no more coefficients could part them.
        path = tmp_path / "dependent.json"
        path.write_text("[[1], [1]]")
        assert main(["jets", "rank", "--sections-file", str(path), "--m", "1"]) == 1
        assert capsys.readouterr().err == "error: sections are linearly dependent\n"

    def test_zero_denominator_in_sections_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[["1/0"], [0, 1]]')
        assert main(["jets", "rank", "--sections-file", str(path), "--m", "2"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: a coefficient has a zero denominator\n"


def test_import_does_not_load_numpy():
    # spanlab has no runtime dependency; keep numpy from creeping back in.
    src = os.path.dirname(os.path.dirname(spanlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, spanlab, spanlab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"
