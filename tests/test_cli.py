import csv
import dataclasses
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefactor import bounds as bounds_mod
from treefactor import cli, processes
from treefactor.cli import (
    _SWEEP_KEYS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT_FAILED,
    _parse_sweep_config,
    build_parser,
    main,
)
from treefactor.information import MeasuredQuantity
from treefactor.processes import DEFAULT_ENUM_BUDGET, RULES, _two_balls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse(monkeypatch, names):
    """Make each named ``cli`` function fail the test if it is called; the
    returned list records the calls."""
    calls = []

    def refusing(name):
        def call(*args, **kwargs):
            calls.append(name)
            pytest.fail(f"{name} ran on inputs that should have been refused")
        return call

    for name in names:
        monkeypatch.setattr(cli, name, refusing(name))
    return calls


class TestGenerators:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "generators", "--d", "4", "--k", "3", "--nmax", "3")
        assert code == EXIT_OK
        assert "rank 6" in out
        assert "PASS" in out

    def test_even_case(self, capsys):
        code, out, _ = run(capsys, "generators", "--d", "3", "--k", "2", "--nmax", "4")
        assert code == EXIT_OK
        assert "rank 2" in out

    def test_out_of_budget_is_a_failed_verdict(self, capsys):
        code, out, _ = run(
            capsys, "generators", "--d", "5", "--k", "5", "--nmax", "3", "--budget", "10"
        )
        assert code == EXIT_VERDICT_FAILED
        assert "INCOMPLETE" in out

    def test_complete_certificate_is_not_vetoed_by_the_bounded_search(self, capsys):
        # The certificate needs 396 transitions, the search at n <= 3 1,596 sequences.
        code, out, _ = run(capsys, "--format", "json", "generators", "--d", "4", "--k", "3",
                           "--nmax", "3", "--budget", "1000")
        row = json.loads(out)["rows"][0]
        assert (row["certificate"], row["free_claim"], row["complete"]) == ("PASS", "PASS", False)
        assert code == EXIT_OK

    def test_counterexample_of_the_bounded_search_is_a_failed_verdict(self, capsys, monkeypatch):
        real = cli.verify_free_claim
        monkeypatch.setattr(cli, "verify_free_claim", lambda gs, n_max, budget: dataclasses.replace(
            real(gs, n_max, budget=budget), passed=False))
        code, out, _ = run(capsys, "--format", "json", "generators", "--d", "3", "--k", "2")
        row = json.loads(out)["rows"][0]
        assert (row["certificate"], row["free_claim"]) == ("PASS", "FAIL")
        assert code == EXIT_VERDICT_FAILED

    def test_reports_the_certificate(self, capsys):
        code, out, _ = run(capsys, "generators", "--d", "4", "--k", "3", "--nmax", "3")
        assert code == EXIT_OK
        certificate = "certificate PASS (every n, 36 states, 396 transitions checked)"
        assert out.splitlines()[2] == certificate
        code, out, _ = run(capsys, "--format", "json", "generators", "--d", "4", "--k", "4")
        row = json.loads(out)["rows"][0]
        assert (row["certificate"], row["certificate_states"]) == ("PASS", 108)

    def test_incomplete_certificate_is_a_failed_verdict(self, capsys):
        # The certificate of d=5 k=5 needs 101120 transitions, the bounded
        # search at n <= 1 only 80 sequences.
        code, out, _ = run(capsys, "--format", "json", "generators", "--d", "5", "--k", "5",
                           "--nmax", "1", "--budget", "1000")
        row = json.loads(out)["rows"][0]
        assert (row["free_claim"], row["complete"]) == ("PASS", True)
        assert row["certificate"] == "INCOMPLETE"
        assert code == EXIT_VERDICT_FAILED

    def test_failed_certificate_is_a_failed_verdict(self, capsys, monkeypatch):
        real = cli.certify_free_claim
        monkeypatch.setattr(cli, "certify_free_claim", lambda gs, budget: dataclasses.replace(
            real(gs, budget), passed=False, complete=False))
        code, out, _ = run(capsys, "--format", "json", "generators", "--d", "3", "--k", "2")
        assert json.loads(out)["rows"][0]["certificate"] == "FAIL"
        assert code == EXIT_VERDICT_FAILED

    def test_odd_d_k1_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generators", "--d", "3", "--k", "1")
        assert code == EXIT_USAGE
        assert "edge bound" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "generators", "--d", "3", "--k", "2"
        )
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["rows"][0]["rank"] == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "generators", "--d", "3", "--k", "2"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["schema"] == "1"
        assert rows[0]["free_claim"] == "PASS"


class TestFactorization:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "factorization", "--d", "4", "--k", "3", "--L", "3")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_out_of_budget_is_a_failed_verdict(self, capsys):
        code, out, _ = run(
            capsys, "factorization", "--d", "4", "--k", "3", "--L", "3", "--budget", "10"
        )
        assert code == EXIT_VERDICT_FAILED
        assert "INCOMPLETE" in out

    def test_odd_d_rejected(self, capsys):
        code, _, err = run(capsys, "factorization", "--d", "3", "--k", "3", "--L", "2")
        assert code == EXIT_USAGE


class TestMeasure:
    def test_majority_exact(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--process", "majority", "--d", "3", "--k", "1", "--R", "1"
        )
        assert code == EXIT_OK
        assert "exact-enumeration" in out
        assert out.count("PASS") == 2

    def test_identity_far_apart(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--process", "identity", "--d", "3", "--k", "5"
        )
        assert code == EXIT_OK
        assert "I=0 " in out

    def test_unknown_process(self, capsys):
        code, _, err = run(capsys, "measure", "--process", "nope", "--d", "3", "--k", "1")
        assert code == EXIT_USAGE
        assert "unknown process" in err

    def test_wrong_radius_for_rule(self, capsys):
        code, _, err = run(
            capsys, "measure", "--process", "majority", "--d", "3", "--k", "1", "--R", "2"
        )
        assert code == EXIT_USAGE

    def test_listing(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "measure", "--process", "listing",
            "--d", "3", "--k", "1", "--R", "2",
        )
        payload = json.loads(out)
        assert payload["rows"][0]["nmi"] == pytest.approx(0.6)
        assert code == EXIT_OK

    def test_gaussian_sign_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--process", "gaussian-sign", "--d", "3", "--k", "2",
            "--samples", "0", "--D", "50",
        )
        assert code == EXIT_OK
        assert "closed-form" in out

    def test_mc_determinism_across_threads(self, capsys):
        argv = ["measure", "--process", "majority", "--d", "3", "--k", "1",
                "--method", "mc", "--samples", "2000", "--seed", "17"]
        _, out1, _ = run(capsys, "--threads", "1", *argv)
        _, out2, _ = run(capsys, "--threads", "8", *argv)
        assert out1 == out2

    def test_dump_region(self, capsys, tmp_path):
        target = tmp_path / "region.json"
        code, _, _ = run(
            capsys, "measure", "--process", "majority", "--d", "3", "--k", "1",
            "--dump-region", str(target),
        )
        payload = json.loads(target.read_text())
        assert payload["schema"] == 1
        assert len(payload["vertices"]) == 6

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_dump_region_builds_the_region_once(self, capsys, tmp_path, monkeypatch, method):
        calls = []
        real = processes.region_from_balls

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(processes, "region_from_balls", counting)
        target = tmp_path / "region.json"
        code, _, _ = run(capsys, "measure", "--process", "majority", "--d", "3", "--k", "2",
                         "--method", method, "--samples", "100", "--dump-region", str(target))
        assert code == EXIT_OK
        assert len(calls) == 1
        assert target.read_text() == _two_balls(3, 1, 2)[0].to_json() + "\n"

    @pytest.mark.parametrize("process, k", [("majority", 1), ("majority", 2), ("majority", 3),
                                            ("identity", 2)])
    def test_dump_region_is_the_measured_region(self, capsys, tmp_path, process, k):
        target = tmp_path / "region.json"
        code, _, _ = run(capsys, "measure", "--process", process, "--d", "3", "--k", str(k),
                         "--dump-region", str(target))
        assert code == EXIT_OK
        region = _two_balls(3, RULES[process](3).radius, k)[0]
        assert target.read_text() == region.to_json() + "\n"

    def test_row_schema_carries_provenance_and_verdicts(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "measure", "--process", "majority",
            "--d", "3", "--k", "2", "--method", "mc", "--samples", "2000",
            "--seed", "21",
        )
        row = json.loads(out)["rows"][0]
        for field in (
            "seed", "method", "samples",
            "I", "I_stderr", "nmi", "nmi_stderr",
            "universal_normalized_MI_bound_verdict",
            "fixed_process_MI_bound_verdict",
        ):
            assert field in row, field
        assert row["seed"] == 21
        assert row["method"] == "monte-carlo"
        assert row["I_stderr"] > 0

    def test_forced_verdict_failure_sets_exit_code(self, capsys, monkeypatch):
        def fake_universal(d, k, nmi):
            return bounds_mod.make_verdict("forced", -1.0, MeasuredQuantity(0.0, 0.0))

        monkeypatch.setattr("treefactor.cli.bounds_mod.universal_verdict", fake_universal)
        code, out, _ = run(
            capsys, "measure", "--process", "identity", "--d", "3", "--k", "2"
        )
        assert code == EXIT_VERDICT_FAILED
        assert "FAIL" in out


class TestSweep:
    def test_config_file_drives_a_sweep(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# majority sweep\nprocess = majority\nd = 3\nk = 1:3\nmethod = exact\n"
        )
        code, out, _ = run(capsys, "--format", "csv", "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["k"] for r in rows] == ["1", "2", "3"]
        assert all(r["universal_normalized_MI_bound_verdict"] == "PASS" for r in rows)

    @pytest.mark.parametrize("process, ks, method, budget_flags", [
        ("majority", [1, 2], None, []),
        # A zero budget sends both to Monte Carlo with the default samples and seed.
        ("majority", [1, 2], None, ["--budget", "0"]),
        ("gaussian-sign", [1], "exact", []),
    ], ids=["majority", "majority-zero-budget", "gaussian-sign-exact"])
    def test_rows_equal_measure_rows(self, capsys, tmp_path, process, ks, method, budget_flags):
        # Only process, d, k (and method) in the config: every other value is a default.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"process = {process}\nd = 3\nk = {','.join(map(str, ks))}\n"
                       + (f"method = {method}\n" if method else ""))
        code, out, _ = run(capsys, "--format", "json", "sweep", "--config", str(cfg),
                           *budget_flags)
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        measure_flags = ["--method", method] if method else []
        expected = []
        for k in ks:
            code, out, _ = run(capsys, "--format", "json", "measure", "--process", process,
                               "--d", "3", "--k", str(k), *measure_flags, *budget_flags)
            assert code == EXIT_OK
            expected.extend(json.loads(out)["rows"])
        assert rows == expected

    def test_comma_separated_distances(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("process = listing\nd = 3\nk = 1,3\nR = 2\n")
        code, out, _ = run(capsys, "--format", "json", "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        assert [r["k"] for r in json.loads(out)["rows"]] == [1, 3]

    def test_bad_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("process = majority\nd = 3\nk = 1\nbogus = 2\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "unknown key" in err

    def test_missing_required_keys(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("process = majority\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_unknown_method_rejected(self, capsys, tmp_path):
        # An unknown method used to fall through to Monte Carlo.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("process = majority\nd = 3\nk = 1\nmethod = exakt\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert f"{cfg}:4: method must be one of auto, exact, mc" in err
        assert out == ""

    def test_nonpositive_samples_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("process = majority\nd = 3\nk = 1\nmethod = mc\nsamples = 0\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert f"{cfg}:5: samples must be >= 1" in err
        assert out == ""

    def test_unconvertible_value_names_file_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("process = majority\nd = 3\nk = 1\nmethod = mc\nsamples = 1e5\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert f"{cfg}:5: samples must be int, got '1e5'" in err
        assert out == ""

    def test_tail_tol_reaches_the_gaussian_measurement(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        body = "process = gaussian-sign\nd = 3\nk = 1:2\nmethod = exact\nD = 8\n"
        cfg.write_text(body)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        cfg.write_text(body + "tail_tol = 1e-9\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "exceeds 1e-09 * value" in err
        assert "raise the truncation radius" in err
        assert out == ""

    # every measure verdict needs k >= 1, so 0 is rejected with the others
    @pytest.mark.parametrize("spec", ["1:x", "a", "", "1:0", "-1", "2,-3", "0:2", "0", "2,0"])
    def test_bad_distances_name_file_and_line(self, capsys, tmp_path, spec):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"process = majority\nd = 3\nk = {spec}\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert f"{cfg}:3: k must be distances >= 1 as n, lo:hi or n,m,..., got {spec!r}" in err
        assert out == ""

    def test_non_utf8_line_names_file_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes("process = majority\n# d\u00e9j\u00e0 vu\nd = 3\nk = 1\n".encode("latin-1"))
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert f"{cfg}:2: not UTF-8 text" in err
        assert out == ""

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1", "0"])
    def test_eps_must_be_positive_and_finite(self, capsys, tmp_path, eps):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"process = gaussian-sign\nd = 3\nk = 1\nmethod = exact\neps = {eps}\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert f"{cfg}:5: eps must be a positive finite float, got {eps!r}" in err
        assert out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_tail_tol_must_be_positive_and_finite(self, capsys, tmp_path, tol):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"process = gaussian-sign\nd = 3\nk = 1\nmethod = exact\ntail_tol = {tol}\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert f"{cfg}:5: tail_tol must be a positive finite float, got {tol!r}" in err
        assert out == ""


_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=40)
_SWEEP_LINE = st.one_of(
    _TEXT,
    st.builds("{} = {}".format, st.sampled_from(sorted(_SWEEP_KEYS) + ["bogus"]), _TEXT),
    st.builds(
        "{} = {}".format,
        st.sampled_from(sorted(_SWEEP_KEYS)),
        st.one_of(st.integers(-3, 10**6).map(str), st.floats().map(repr),
                  st.sampled_from(["auto", "exact", "mc", "majority", "1:3", "1,2"])),
    ),
)


class TestSweepConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_SWEEP_LINE, max_size=12))
    def test_returns_a_dict_or_names_the_file(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sweep.cfg")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(lines))
            try:
                config = _parse_sweep_config(path)
            except ValueError as exc:
                assert type(exc) is ValueError
                assert str(exc).startswith(f"{path}:")
            else:
                assert isinstance(config, dict)
                assert {"process", "d", "k"} <= set(config)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=200), prefix=st.lists(_SWEEP_LINE, max_size=4))
    def test_any_bytes_give_a_dict_or_name_the_file(self, data, prefix):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sweep.cfg")
            with open(path, "wb") as fh:
                fh.write("\n".join(prefix + [""]).encode("utf-8") + data)
            try:
                config = _parse_sweep_config(path)
            except ValueError as exc:
                assert type(exc) is ValueError
                assert str(exc).startswith(f"{path}:")
            else:
                assert {"process", "d", "k"} <= set(config)


class TestBudgetEnvVar:
    def test_env_var_supplies_default_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEFACTOR_BUDGET", "50")
        code, out, _ = run(capsys, "generators", "--d", "3", "--k", "3", "--nmax", "4")
        assert code == EXIT_VERDICT_FAILED
        assert "INCOMPLETE" in out

    def test_env_var_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEFACTOR_BUDGET", "lots")
        with pytest.raises(SystemExit) as exc:
            main(["generators", "--d", "3", "--k", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "'lots'" in capsys.readouterr().err

    def test_explicit_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEFACTOR_BUDGET", "50")
        code, out, _ = run(
            capsys, "generators", "--d", "3", "--k", "3", "--nmax", "4",
            "--budget", "100000",
        )
        assert code == EXIT_OK
        assert "INCOMPLETE" not in out


_BUDGET_COMMANDS = [
    ["generators", "--d", "4", "--k", "3"],
    ["factorization", "--d", "4", "--k", "3", "--L", "3"],
    ["measure", "--process", "majority", "--d", "3", "--k", "1"],
    ["sweep", "--config", "sweep.cfg"],
]


class TestBudgetValidation:
    """A budget, from a flag or from TREEFACTOR_BUDGET, is an integer >= 0;
    anything else is a usage error before any verifier or measurement runs."""

    @pytest.fixture
    def refused(self, monkeypatch):
        return refuse(monkeypatch, ("build_generators", "certify_free_claim", "verify_free_claim",
                                    "verify_coset_factorization", "exact_joint", "mc_joint",
                                    "gaussian_sign_measure", "listing_ratio"))

    @pytest.mark.parametrize("argv", _BUDGET_COMMANDS, ids=lambda argv: argv[0])
    def test_negative_flag(self, capsys, refused, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", "-1"])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert out == ""
        assert "argument --budget: must be an integer >= 0, got '-1'" in err
        assert refused == []

    @pytest.mark.parametrize("nmax", ["0", "-3", "two"])
    def test_nmax_below_one(self, capsys, refused, nmax):
        # The certificate runs before the bounded search; a bad --nmax must
        # not wait for it (d=6 k=6 took 1.9 s before its error).
        with pytest.raises(SystemExit) as exc:
            main(["generators", "--d", "6", "--k", "6", "--nmax", nmax])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert out == ""
        assert f"argument --nmax: must be an integer >= 1, got {nmax!r}" in err
        assert refused == []

    @pytest.mark.parametrize("argv", _BUDGET_COMMANDS[:2], ids=lambda argv: argv[0])
    def test_negative_env_var(self, capsys, monkeypatch, refused, argv):
        monkeypatch.setenv("TREEFACTOR_BUDGET", "-1")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert out == ""
        assert "got '-1'" in err
        assert refused == []

    @pytest.mark.parametrize("argv, expected_code, expected_text", [
        (_BUDGET_COMMANDS[0], EXIT_VERDICT_FAILED, "INCOMPLETE, 0 sequences checked"),
        (_BUDGET_COMMANDS[1], EXIT_VERDICT_FAILED, "INCOMPLETE"),
        (_BUDGET_COMMANDS[2], EXIT_OK, "method=monte-carlo"),
    ], ids=["generators", "factorization", "measure"])
    def test_zero_flag_is_legal(self, capsys, argv, expected_code, expected_text):
        code, out, _ = run(capsys, *argv, "--budget", "0")
        assert code == expected_code
        assert expected_text in out

    def test_zero_env_var_is_legal(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEFACTOR_BUDGET", "0")
        code, out, _ = run(capsys, *_BUDGET_COMMANDS[0])
        assert code == EXIT_VERDICT_FAILED
        assert "INCOMPLETE, 0 sequences checked" in out


class TestEnumerationBudget:
    def test_measure_and_sweep_default_to_the_enumeration_budget(self):
        parser = build_parser()
        measure = parser.parse_args(["measure", "--process", "parity", "--d", "12", "--k", "1"])
        sweep = parser.parse_args(["sweep", "--config", "sweep.cfg"])
        assert measure.budget == sweep.budget == DEFAULT_ENUM_BUDGET

    def test_exact_joint_gets_the_enumeration_budget(self, capsys, monkeypatch):
        budgets = []
        real = cli.exact_joint

        def spy(rule, d, k, budget):
            budgets.append(budget)
            return real(rule, d, k, budget=budget)

        monkeypatch.setattr(cli, "exact_joint", spy)
        code, _, _ = run(capsys, "measure", "--process", "parity", "--d", "3", "--k", "1",
                         "--method", "exact")
        assert code == EXIT_OK
        assert budgets == [DEFAULT_ENUM_BUDGET]

    # The default budget covers the 2^18 labelings of a majority ball up to d=17.
    @pytest.mark.parametrize("d, flags, expected", [
        ("13", [], "method=exact-enumeration"),
        ("18", ["--samples", "2000"], "method=monte-carlo"),
        ("3", ["--budget", "0", "--samples", "2000"], "method=monte-carlo"),
    ], ids=["d13-exact", "d18-falls-back", "zero-budget-falls-back"])
    def test_auto_method_at_the_budget_boundary(self, capsys, d, flags, expected):
        code, out, _ = run(capsys, "measure", "--process", "majority", "--d", d, "--k", "1",
                           *flags)
        assert code == EXIT_OK
        assert expected in out

    def test_exact_method_over_the_budget_fails(self, capsys):
        code, out, err = run(capsys, "measure", "--process", "majority", "--d", "18", "--k", "1",
                             "--method", "exact")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"{2**19} label configurations exceed the budget of {2**18}" in err
        # The library remedy, and the options a command-line user has instead.
        assert "use mc_joint" in err and "--method mc" in err and "--method auto" in err

    # A majority ball at d=70 has 2^71 labelings: within this budget, past int64.
    PAST_INT64 = ("measure", "--process", "majority", "--d", "70", "--k", "1",
                  "--budget", "99999999999999999999999")

    def test_exact_method_past_int64_fails_with_a_message(self, capsys):
        code, out, err = run(capsys, *self.PAST_INT64, "--method", "exact")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("treefactor: error: ") and "do not fit in int64" in err
        assert "budget" not in err
        assert "use mc_joint" in err and "--method mc" in err and "--method auto" in err

    def test_auto_method_past_int64_falls_back_to_monte_carlo(self, capsys):
        code, out, _ = run(capsys, "--format", "json", *self.PAST_INT64, "--method", "auto",
                           "--samples", "200")
        assert code == EXIT_OK
        assert [r["method"] for r in json.loads(out)["rows"]] == ["monte-carlo"]

    @pytest.mark.parametrize("method", ["exact", "auto"])
    def test_verifier_budget_env_var_does_not_reach_measure(self, capsys, monkeypatch, method):
        monkeypatch.setenv("TREEFACTOR_BUDGET", "5")
        code, out, _ = run(capsys, "measure", "--process", "majority", "--d", "3", "--k", "1",
                           "--method", method)
        assert code == EXIT_OK
        assert "method=exact-enumeration" in out

    def test_verifier_budget_env_var_does_not_reach_sweep(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("TREEFACTOR_BUDGET", "5")
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("process = majority\nd = 3\nk = 1:2\nmethod = exact\n")
        code, out, _ = run(capsys, "--format", "json", "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        assert [r["method"] for r in json.loads(out)["rows"]] == ["exact-enumeration"] * 2


class TestMeasureInputs:
    """Bad measure inputs fail before any measurement runs."""

    @pytest.fixture
    def measured(self, monkeypatch):
        return refuse(monkeypatch, ("exact_joint", "mc_joint", "gaussian_sign_measure",
                                    "listing_ratio"))

    @pytest.mark.parametrize("process", ["majority", "listing", "gaussian-sign"])
    def test_k_below_one(self, capsys, measured, process):
        code, _, err = run(capsys, "measure", "--process", process, "--d", "3", "--k", "0",
                           "--R", "1", "--samples", "20000", "--seed", "7")
        assert code == EXIT_USAGE
        assert "k must be >= 1, got 0" in err
        assert measured == []

    @pytest.mark.parametrize("process", ["majority", "gaussian-sign"])
    def test_monte_carlo_without_samples(self, capsys, measured, process):
        code, out, err = run(capsys, "measure", "--process", process, "--d", "3", "--k", "1",
                             "--method", "mc", "--samples", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--method mc needs --samples >= 1, got 0" in err
        assert measured == []

    @pytest.mark.parametrize("process", ["listing", "gaussian-sign"])
    def test_dump_region_needs_a_block_rule(self, capsys, measured, tmp_path, process):
        target = tmp_path / "region.json"
        code, out, err = run(capsys, "measure", "--process", process, "--d", "3", "--k", "1",
                             "--R", "1", "--method", "exact", "--dump-region", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert "--dump-region needs a block-rule process (identity, majority, parity)" in err
        assert measured == []
        assert not target.exists()

    @pytest.mark.parametrize("eps", ["nan", "inf", "-0.25"])
    def test_eps_must_be_positive_and_finite(self, capsys, eps):
        # eps = nan used to print corr 1 and I = log 2, then fail the verdict.
        code, out, err = run(capsys, "measure", "--process", "gaussian-sign", "--d", "3",
                             "--k", "1", "--eps", eps, "--method", "exact")
        assert code == EXIT_USAGE
        assert out == ""
        assert "eps must be a positive finite number" in err


class TestSharpness:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "sharpness", "--d", "3", "--kmax", "3", "--Rmax", "8")
        assert code == EXIT_OK
        assert "k=3" in out
        assert "shrinking" in out


class TestGaussian:
    def test_closed_form_table(self, capsys):
        code, out, _ = run(
            capsys, "gaussian", "--d", "3", "--eps", "0.25", "--kmax", "4", "--D", "5000"
        )
        assert code == EXIT_OK
        assert "fitted growth exponent" in out

    def test_rows_equal_the_exact_sweep_rows(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "gaussian", "--d", "3", "--eps", "0.25",
                           "--kmax", "4", "--D", "8")
        assert code == EXIT_OK
        table = json.loads(out)["rows"]
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("process = gaussian-sign\nd = 3\nk = 1:4\neps = 0.25\nD = 8\n"
                       "method = exact\n")
        code, out, _ = run(capsys, "--format", "json", "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        swept = json.loads(out)["rows"]
        assert [row["k"] for row in table] == [row["k"] for row in swept] == [1, 2, 3, 4]
        for row, sweep_row in zip(table, swept):
            assert row["corr"] == sweep_row["corr"]
            assert row["mi"] == sweep_row["I"]
            for field in cli._VERDICT_FIELDS:
                assert row[field] == sweep_row[field], field

    # gaussian --d 3 --eps 0.25 --kmax 3 --D 8 --samples 20000 --seed 5 printed these
    # (mc_corr, mc_corr_stderr, mc_mi, mc_mi_stderr) before its sampling flags were
    # removed; the sign-process Monte Carlo of measure and sweep is the same one.
    SAMPLED = {
        1: (0.4372827752365572, 0.006337905012134992,
            0.09891404253149805, 0.002972482412594312),
        2: (0.40968026597064494, 0.006535795905023293,
            0.08643873791607559, 0.0028403537712330743),
        3: (0.28294145948987004, 0.0062813039890514556,
            0.04058057973550455, 0.0018252334179403374),
    }

    def test_sweep_reproduces_the_removed_sampling_columns(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("process = gaussian-sign\nd = 3\nk = 1:3\neps = 0.25\nD = 8\n"
                       "method = mc\nsamples = 20000\nseed = 5\n")
        code, out, _ = run(capsys, "--format", "json", "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert {row["k"]: (row["corr"], row["corr_stderr"], row["I"], row["I_stderr"])
                for row in rows} == self.SAMPLED

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    def test_sampling_flags_are_unknown(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["gaussian", "--d", "3", "--eps", "0.25", "--kmax", "2", flag, "5"])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert out == ""
        assert f"unrecognized arguments: {flag} 5" in err

    def test_truncation_tolerance_violation(self, capsys):
        code, _, err = run(
            capsys, "gaussian", "--d", "3", "--eps", "0.25", "--kmax", "2",
            "--D", "30", "--tail-tol", "1e-6",
        )
        assert code == EXIT_USAGE
        assert "truncation radius" in err

    @pytest.mark.parametrize("argv, message", [
        (["--eps", "nan", "--kmax", "2"], "eps must be a positive finite number"),
        (["--eps", "0.25", "--kmax", "0"], "--kmax must be >= 1, got 0"),
    ])
    def test_bad_inputs_rejected(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(cli, "gaussian_sign_measure",
                            lambda *a, **kw: pytest.fail("measured on refused inputs"))
        code, out, err = run(capsys, "gaussian", "--d", "3", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv", [
        ["measure", "--process", "gaussian-sign", "--d", "3", "--k", "2", "--D", "100000",
         "--samples", "100", "--seed", "1"],
        ["measure", "--process", "gaussian-sign", "--d", "3", "--k", "2", "--D", "20000",
         "--samples", "100", "--seed", "1"],
    ], ids=["measure-D100000", "measure"])
    def test_monte_carlo_past_the_region_budget(self, capsys, argv):
        # The message used to carry the uncapped region size, which at
        # D = 100000 has too many digits for Python to print.
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and len(err) < 200
        assert "at most 13" in err and "region budget of 60000 vertices" in err

    def test_nan_truncation_tolerance_rejected(self, capsys):
        code, out, err = run(
            capsys, "measure", "--process", "gaussian-sign", "--d", "3", "--k", "1",
            "--method", "exact", "--tail-tol", "nan",
        )
        assert code == EXIT_USAGE
        assert "tail_tol must be a positive finite number" in err
        assert out == ""


class TestSparse:
    def test_set_mode(self, capsys):
        code, out, _ = run(
            capsys, "sparse", "--n", "300", "--d", "3", "--L", "2", "--seed", "4"
        )
        assert code == EXIT_OK
        assert "separation OK" in out
        assert "domination OK" in out

    def test_coloring_mode(self, capsys):
        code, out, _ = run(
            capsys, "sparse", "--n", "300", "--d", "3", "--L", "2", "--seed", "4",
            "--mode", "coloring",
        )
        assert code == EXIT_OK
        assert "<= 10" in out

    def test_odd_stub_count_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "sparse", "--n", "301", "--d", "3", "--L", "2", "--seed", "4"
        )
        assert code == EXIT_USAGE
        assert "even" in err

    @pytest.mark.parametrize("seed", [1, 2, 6, 7, 9])
    def test_separation_three_coloring_finishes(self, capsys, seed):
        # separation 3 = 2R+k is what a radius-1 listing at distance 1 needs
        code, out, _ = run(
            capsys, "--format", "json", "sparse", "--mode", "coloring", "--n", "1000",
            "--d", "3", "--L", "3", "--seed", str(seed),
        )
        assert code == EXIT_OK
        (row,) = json.loads(out)["rows"]
        assert row["separation"] == "OK"
        assert row["colors"] <= row["color_cap"] == 22

    def test_deterministic_output(self, capsys):
        argv = ["--format", "csv", "sparse", "--n", "200", "--d", "3", "--L", "2",
                "--seed", "9", "--mode", "coloring"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestCsvColumns:
    """The CSV header of each command whose columns do not depend on its
    inputs, in its column order."""

    @pytest.mark.parametrize("argv, header", [
        (["sparse", "--mode", "set", "--n", "300", "--d", "3", "--L", "2", "--seed", "4"],
         "schema,mode,n,d,L,seed,ones,rounds,cycles_leq_6,separation,domination"),
        (["sparse", "--mode", "coloring", "--n", "300", "--d", "3", "--L", "2", "--seed", "4"],
         "schema,mode,n,d,L,seed,colors,color_cap,rounds,cycles_leq_6,separation"),
        (["generators", "--d", "4", "--k", "3"],
         "schema,d,k,rank,construction,free_claim,complete,sequences_checked,"
         "min_product_length,certificate,certificate_states,elements"),
        (["factorization", "--d", "4", "--k", "3", "--L", "3"],
         "schema,d,k,L,result,complete,items_checked,ball_size,message"),
        (["gaussian", "--d", "3", "--eps", "0.25", "--kmax", "3", "--D", "5000"],
         "schema,d,k,eps,D,rho,corr,mi,mi_scaled,mi_remainder,"
         "universal_normalized_MI_bound_bound,universal_normalized_MI_bound_verdict,"
         "fixed_process_MI_bound_bound,fixed_process_MI_bound_verdict,fitted_exponent"),
    ], ids=["sparse-set", "sparse-coloring", "generators", "factorization", "gaussian"])
    def test_header(self, capsys, argv, header):
        code, out, _ = run(capsys, "--format", "csv", *argv)
        assert code == EXIT_OK
        assert out.split("\n")[0] == header


class TestParsing:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generators", "--d", "four", "--k", "3"])
        assert exc.value.code == EXIT_USAGE

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = main(["--format", "json", "--output", str(target),
                     "generators", "--d", "3", "--k", "2"])
        assert code == EXIT_OK
        assert json.loads(target.read_text())["schema"] == 1
