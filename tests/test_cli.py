import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import tempfile
import warnings
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from ipiag import DelaySchedule, ToySpec, inputs, toy_document, lasso_document, LassoSpec
from ipiag.cli import EXIT_BOUND, EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, RUN_FLAGS, main
from ipiag.plotting import _escape, log_line_plot
from ipiag.rates import BoundReport, Verdict

from .oracles import svg_polyline_points

SVG = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(toy_document(ToySpec(num_components=12))))
    return str(path)


@pytest.fixture
def lasso_file(tmp_path):
    spec = LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1)
    path = tmp_path / "lasso.json"
    path.write_text(json.dumps(lasso_document(spec)))
    return str(path)


@given(st.text(alphabet=st.sampled_from("&<>;amp'\"x \u00e9")))
def test_plot_escaping_equals_the_standard_library(text):
    assert _escape(text) == escape(text)


def test_polylines_equal_the_point_by_point_form(tmp_path):
    k = np.arange(300)
    curves = [
        {"label": "psi <x & y>", "x": k, "y": 0.97 ** k * (1.0 + np.sin(k))},  # zeros dropped
        {"label": "bound", "x": k, "y": np.where(k % 7 == 3, np.nan, 3.0 * 0.99 ** k),
         "dashed": True},
        {"label": "flat", "x": np.full(4, 5.0), "y": [np.inf, 1e-3, -1.0, 2e-3]},
    ]
    path = tmp_path / "plot.svg"
    log_line_plot(str(path), curves, title="t & <u>", ylabel="a & b")
    root = ET.parse(path).getroot()
    assert [p.get("points") for p in root.iter(f"{SVG}polyline")] == svg_polyline_points(curves)
    assert {"psi <x & y>", "t & <u>", "iteration", "a & b"} <= {
        t.text for t in root.iter(f"{SVG}text")
    }


class TestCertify:
    def test_prints_the_certificate_document(self, capsys):
        rc = main(
            ["certify", "--L", "1", "--beta", "1", "--tau", "0", "--c1", "0", "--variant", "t1"]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha0"] == pytest.approx(0.07721734501594178, rel=1e-12)
        assert doc["alpha0_stated"] == doc["alpha0_tight"]
        assert doc["rho"] < 1.0
        assert doc["admissible"] is True
        assert doc["C"] is None

    def test_tight_threshold_shown_alongside_the_stated_one(self, capsys):
        rc = main(
            ["certify", "--L", "3", "--beta", "1", "--tau", "4", "--c1", "0.1", "--variant", "t1"]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha0_tight"] > doc["alpha0_stated"]

    def test_pre_inertia_variant_reports_the_simplified_factor(self, capsys):
        rc = main(
            ["certify", "--L", "2", "--beta", "1", "--tau", "1", "--c1", "0.4", "--variant", "cor1"]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["simplified_factor"] < 1.0
        assert doc["rho"] <= doc["simplified_factor"] + 1e-12

    def test_the_post_prox_certificate_reports_the_c1_it_used(self, capsys):
        # cor2 is built at C1 = 0 whatever --c1 says; it printed the flag's 0.25
        docs = []
        for c1 in ("0.25", "0.0"):
            rc = main(["certify", "--L", "101", "--beta", "2", "--tau", "4", "--c1", c1,
                       "--variant", "cor2"])
            assert rc == EXIT_OK
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["C1"] == 0.0
        assert docs[0] == docs[1]

    def test_momentum_fraction_out_of_range(self, capsys):
        rc = main(
            ["certify", "--L", "1", "--beta", "1", "--tau", "0", "--c1", "0.5", "--variant", "t1"]
        )
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [
        ["--L", "inf", "--beta", "2", "--tau", "4"],
        ["--L", "5e-324", "--beta", "5e-324", "--tau", "0"],
    ], ids=["infinite-L", "alpha-overflows"])
    def test_a_certificate_that_is_not_finite_is_refused(self, capsys, flags):
        # these printed "L": Infinity, and "alpha": Infinity with "rho": NaN, which is not JSON
        rc = main(["certify", *flags])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")

    @pytest.mark.parametrize("beta", ["5e-324", "1e308"])
    def test_the_refusal_names_the_first_field_that_is_not_finite(self, capsys, beta):
        # json.dumps refused these with "Out of range float values are not JSON compliant"
        rc = main(["certify", "--L", "5e-324", "--beta", beta, "--tau", "0"])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert (captured.out, captured.err) == (
            "", "error: certificate field alpha0 is not finite, got inf\n"
        )

    @pytest.mark.parametrize("given, message", [
        ({"tau": "1.5"}, "tau must be an integer, got 1.5"),
        ({"L": "abc"}, 'L must be a number, got "abc"'),
        ({"variant": "bogus"}, 'variant must be one of "t1", "t1tight", "cor1", "cor2", '
                               'got "bogus"'),
        ({"L": None}, "L is required"),
        ({"beta": None}, "beta is required"),
        ({"tau": None}, "tau is required"),
        ({"c1": "0.6"}, "momentum_fraction (c1) must be below 0.5 for t1, got 0.6"),
        ({"tau": str(10**400)}, f"tau must lie in [0, 2**63), got {10**400}"),
    ], ids=["tau-1.5", "L-abc", "variant-bogus", "no-L", "no-beta", "no-tau", "c1-0.6",
            "tau-1e400"])
    def test_each_refusal_is_one_line_naming_the_flag(self, capsys, given, message):
        # argparse refused the first six itself, with its usage text and a second line; a tau
        # of 10**400 ended in a traceback when the threshold turned it into a float
        flags = {"L": "101", "beta": "2", "tau": "4", **given}
        rc = main(["certify", *(arg for flag, text in flags.items() if text is not None
                                for arg in (f"--{flag}", text))])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestRun:
    def test_writes_trace_and_summary(self, toy_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "run",
                "--problem", toy_file,
                "--variant", "piag",
                "--alpha", "auto",
                "--tau", "2",
                "--workers", "3",
                "--schedule", "uniform1",
                "--seed", "1",
                "--iters", "400",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "k,phi,dist2,psi,step_norm2,max_staleness"
        assert len(lines) == 402
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["iters_executed"] == 400
        assert summary["bound_checks"] == {"psi": "pass", "phi_gap": "pass", "dist2": "pass"}
        assert summary["certificate"]["rho"] < 1.0
        assert summary["final_phi_gap"] >= 0.0
        assert summary["final_dist2"] > 0.0
        assert "iterations_to_1e-6" in summary
        assert summary["wall_clock_sec"] > 0.0

    def test_plot_flag_writes_svg(self, toy_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "run",
                "--problem", toy_file,
                "--tau", "0",
                "--schedule", "sync",
                "--workers", "2",
                "--iters", "50",
                "--out", str(out),
                "--plot",
            ]
        )
        assert rc == EXIT_OK
        head = (out / "plot.svg").read_text()[:100]
        assert head.startswith("<svg")

    def test_plot_of_a_run_of_no_steps_draws_its_one_record(self, toy_file, tmp_path, capsys):
        # a run of one record wrote no plot.svg and no warning
        out = tmp_path / "out"
        assert main(["run", "--problem", toy_file, "--iters", "0", "--out", str(out),
                     "--plot"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        root = ET.parse(out / "plot.svg").getroot()
        assert len(list(root.iter(f"{SVG}polyline"))) == 1

    def test_plot_envelope_is_the_checked_dist2_bound(self, toy_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["run", "--problem", toy_file, "--variant", "ipiag", "--tau", "2", "--iters", "100",
             "--out", str(out), "--plot"]
        )
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        cert = summary["certificate"]
        k = np.arange(101)
        table = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        bound = 2.0 * summary["alpha"] / (1.0 - summary["eta1"]) * (cert["C"] * cert["rho"] ** k)
        curves = [{"x": k, "y": table[:, 2]}, {"x": k, "y": bound}]
        root = ET.parse(out / "plot.svg").getroot()
        assert [p.get("points") for p in root.iter(f"{SVG}polyline")] == svg_polyline_points(curves)

    @pytest.mark.parametrize(
        "offset, l1_weight, drawn",
        # a start at the optimum: dist2 is 0 throughout, the objective is not
        [(1.0, 1.0, "objective"),
         # every square underflows, so the objective is 0 too and nothing can be drawn
         (1e-300, 0.0, None)],
    )
    def test_plot_of_a_run_without_a_positive_distance(
        self, tmp_path, capsys, offset, l1_weight, drawn
    ):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(toy_document(ToySpec(10, offset=offset, l1_weight=l1_weight))))
        out = tmp_path / "out"
        rc = main(
            ["run", "--problem", str(path), "--variant", "piag", "--iters", "20", "--out", str(out),
             "--plot"]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["bound_checks"]["dist2"] == "pass"
        assert np.all(np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)[:, 2] == 0.0)
        if drawn is None:
            assert not (out / "plot.svg").exists()
            assert err.splitlines() == [err.strip()] and err.startswith("warning: no plot.svg")
        else:
            assert err == ""
            root = ET.parse(out / "plot.svg").getroot()
            assert len(list(root.iter(f"{SVG}polyline"))) == 1  # no dist2 envelope on it
            assert drawn in {t.text for t in root.iter(f"{SVG}text")}

    # num_workers as in documents written by older versions; a key with a line break is
    # quoted raw by the TypeError, and the error line escapes it
    @pytest.mark.parametrize("key, shown", [("num_workers", "num_workers"), ("a\nb", "a\\nb")])
    def test_a_toy_param_the_spec_lacks_is_a_config_error(self, tmp_path, capsys, key, shown):
        doc = toy_document(ToySpec(num_components=12))
        doc["generator"]["params"][key] = 4
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(doc))
        rc = main(["run", "--problem", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.splitlines() == [err.strip()] and err.startswith("error: cannot load problem")
        assert f'generator.params has no field "{shown}"' in err

    def test_plot_text_is_escaped(self, tmp_path):
        path = tmp_path / "a&b<1>.json"
        path.write_text(json.dumps(toy_document(ToySpec(num_components=12))))
        out = tmp_path / "out"
        rc = main(
            ["run", "--problem", str(path), "--variant", "piag", "--tau", "0",
             "--schedule", "sync", "--workers", "2", "--iters", "50", "--out", str(out), "--plot"]
        )
        assert rc == EXIT_OK
        root = ET.parse(out / "plot.svg").getroot()
        titles = [t.text for t in root.iter(f"{SVG}text") if t.get("font-size") == "13"]
        assert titles == ["piag on a&b<1>.json"]

    def test_zero_iterations_yields_one_record_and_skipped_checks(self, toy_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["run", "--problem", toy_file, "--tau", "0", "--schedule", "sync",
             "--iters", "0", "--workers", "2", "--out", str(out)]
        )
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iters_executed"] == 0
        assert summary["bound_checks"]["psi"] == "skipped"
        assert len((out / "trace.csv").read_text().strip().splitlines()) == 2

    def test_repeated_runs_are_byte_identical(self, toy_file, tmp_path):
        args = [
            "run", "--problem", toy_file, "--variant", "ipiag",
            "--tau", "3", "--workers", "4", "--schedule", "uniform1",
            "--seed", "7", "--iters", "200",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    @pytest.mark.parametrize(
        "variant, cert_variant, flags",
        [
            ("piag", "t1", []),
            ("piag-m", "cor1", []),
            ("piag-nel", "cor2", []),
            ("ipiag", "t1", []),
            ("piag-m", "cor1", ["--alpha", "0.0011", "--eta1", "0.00037"]),
            ("ipiag", "t1", ["--alpha", "0.0011", "--eta1", "0.00037"]),
        ],
    )
    def test_certificate_records_the_run_values(
        self, toy_file, tmp_path, variant, cert_variant, flags
    ):
        out = tmp_path / "o"
        rc = main(
            ["run", "--problem", toy_file, "--variant", variant, "--tau", "2",
             "--iters", "200", "--out", str(out)] + flags
        )
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        cert = summary["certificate"]
        alpha, eta1, eta2 = summary["alpha"], summary["eta1"], summary["eta2"]
        assert (cert["eta1"], cert["eta2"]) == (eta1, eta2)
        assert cert["rho"] == (1.0 + eta2) / (1.0 + alpha * cert["beta"] - eta1)
        assert cert["variant"] == cert_variant

    def test_missing_problem_file(self, tmp_path, capsys):
        rc = main(
            ["run", "--problem", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("content", ["[1, 2]", '"x"', "3.5", "null"])
    def test_a_problem_document_must_be_an_object(self, tmp_path, capsys, content):
        path = tmp_path / "problem.json"
        path.write_text(content)
        out = tmp_path / "o"
        rc = main(["run", "--problem", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.splitlines() == [err.strip()]
        assert f"the problem document must be a JSON object, got {content}" in err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["sub", ""], ids=["under-a-file", "a-file"])
    def test_an_output_directory_that_cannot_be_made_is_a_config_error(
        self, toy_file, tmp_path, capsys, below
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / below if below else blocker
        rc = main(["run", "--problem", toy_file, "--iters", "20", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.splitlines() == [err.strip()] and err.startswith("error:")
        assert blocker.read_text() == ""

    def test_an_output_directory_that_cannot_be_written_is_a_config_error(
        self, toy_file, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "o"
        monkeypatch.setattr("ipiag.cli.os.access", lambda path, mode: False)
        rc = main(["run", "--problem", toy_file, "--iters", "20", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.strip() == f"error: cannot write to the output directory {str(out)!r}"
        assert list(out.iterdir()) == []

    def test_foreign_inertia_flag_is_rejected(self, toy_file, tmp_path, capsys):
        rc = main(
            ["run", "--problem", toy_file, "--variant", "piag", "--eta1", "0.3",
             "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG
        assert "pre-prox inertia" in capsys.readouterr().err

    def test_sync_schedule_requires_zero_staleness(self, toy_file, tmp_path, capsys):
        rc = main(
            ["run", "--problem", toy_file, "--schedule", "sync", "--tau", "2",
             "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG

    def test_too_many_workers(self, toy_file, tmp_path):
        rc = main(
            ["run", "--problem", toy_file, "--workers", "40", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG

    def test_explicit_alpha_must_be_positive(self, toy_file, tmp_path, capsys):
        rc = main(
            ["run", "--problem", toy_file, "--alpha", "-0.1", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "error: alpha must lie in (0, inf), got -0.1\n"

    @pytest.mark.parametrize("alpha", ["inf", "1e400"])
    def test_an_infinite_alpha_is_a_config_error(self, toy_file, tmp_path, capsys, alpha):
        # it ran, and exited 3 with "diverged: iterate became non-finite"
        out = tmp_path / "o"
        rc = main(["run", "--problem", toy_file, "--alpha", alpha, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "error: alpha must lie in (0, inf), got Infinity\n"
        assert not out.exists()

    def test_auto_parameters_need_a_growth_modulus(self, lasso_file, tmp_path, capsys):
        rc = main(
            ["run", "--problem", lasso_file, "--alpha", "auto", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG
        assert "growth modulus" in capsys.readouterr().err

    def test_divergence_exit_code(self, lasso_file, tmp_path, capsys):
        # the least-squares problem has free signs, so a huge step feeds
        # back through the residual and blows up
        out = tmp_path / "o"
        rc = main(
            ["run", "--problem", lasso_file, "--alpha", "10.0", "--tau", "0",
             "--schedule", "sync", "--workers", "2", "--iters", "500", "--out", str(out)]
        )
        assert rc == EXIT_DIVERGED
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "diverged"

    def test_inadmissible_step_fails_the_bound_check(self, toy_file, tmp_path):
        # alpha = 1 on the chain problem does not blow up (the projection
        # keeps the iterates in a bounded cycle) but the certified envelope
        # is violated, which must surface through the exit code
        out = tmp_path / "o"
        rc = main(
            ["run", "--problem", toy_file, "--alpha", "1.0", "--tau", "0",
             "--schedule", "sync", "--workers", "2", "--iters", "500", "--out", str(out)]
        )
        assert rc == EXIT_BOUND
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["certificate"]["admissible"] is False
        assert summary["bound_checks"]["psi"] == "fail"

    @pytest.mark.parametrize("tau", ["0", "4"])
    @pytest.mark.parametrize("variant", ["piag", "piag-m", "piag-nel", "ipiag"])
    def test_huge_step_exits_with_a_documented_code(self, toy_file, tmp_path, capsys, variant, tau):
        # (alpha beta + 1) ** (tau + 2) overflows a float; the certificate must
        # treat it as +inf, and the run must end in exit 2 or 3, not a traceback
        # and not numpy warnings (on a console they land on stderr)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(
                ["run", "--problem", toy_file, "--variant", variant, "--alpha", "1e200",
                 "--tau", tau, "--iters", "50", "--out", str(out)]
            )
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err and all(line.startswith("error:") for line in err.splitlines()), err
        if rc == EXIT_CONFIG or variant in ("piag-m", "ipiag"):
            # the auto eta1 = C1 * alpha * beta = 0.25 * 1e200 * 2 of piag-m and ipiag
            assert rc == EXIT_CONFIG and variant in ("piag-m", "ipiag")
            assert "auto eta1 = C1*alpha*beta = 5e+199" in err and "--c1 or --alpha" in err
        if rc == EXIT_DIVERGED:
            summary = json.loads((out / "summary.json").read_text())
            assert summary["status"] == "diverged"
            assert summary["certificate"]["eta2_max"] == 0.0

    @pytest.mark.parametrize("variant", ["piag-m", "ipiag"])
    def test_an_auto_eta1_above_1_is_refused(self, tmp_path, capsys, variant):
        # ipiag clamped its auto eta1 to 1 and certified the run at the implied C1 = 0.005
        path = tmp_path / "toy10.json"
        path.write_text(json.dumps(toy_document(ToySpec(num_components=10))))
        out = tmp_path / "o"
        rc = main(["run", "--problem", str(path), "--variant", variant, "--alpha", "100",
                   "--c1", "0.25", "--iters", "5", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: auto eta1 = C1*alpha*beta = 50.0 leaves [0, 1]; lower --c1 or --alpha\n"
        )
        assert not out.exists()

    def test_a_tau_beyond_any_int64_schedule_is_one_error_line(self, toy_file, tmp_path,
                                                               capsys):
        # the certificate turned 10**400 into a float and raised OverflowError, exit 1
        rc = main(["run", "--problem", toy_file, "--alpha", "1e-3", "--tau", str(10**400),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: tau must lie in [0, 2**63), got {10**400}\n"

    @pytest.mark.parametrize("problem", ["toy_file", "lasso_file"])
    def test_a_declared_tau_beyond_memory_runs_in_what_it_reads(self, request, tmp_path,
                                                                  problem):
        # the iterate ring held tau + 2 iterates, so numpy was asked for petabytes, exit 1
        rc = main(["run", "--problem", request.getfixturevalue(problem), "--alpha", "1e-3",
                   "--tau", "100000000000000", "--iters", "10", "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "ok"

    def test_non_finite_iterate_exits_as_diverged(self, toy_file, tmp_path, capsys):
        # alpha = 1e308 makes the first step non-finite before the guard can fire
        out = tmp_path / "o"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(
                ["run", "--problem", toy_file, "--alpha", "1e308", "--tau", "0",
                 "--schedule", "sync", "--workers", "2", "--iters", "50", "--out", str(out)]
            )
        assert rc == EXIT_DIVERGED
        assert "non-finite" in capsys.readouterr().err
        assert json.loads((out / "summary.json").read_text())["status"] == "diverged"

    @pytest.mark.parametrize(
        "variant, eta1", [("piag-m", "0.5"), ("ipiag", "0.9"), ("ipiag", "0.0012")]
    )
    def test_uncovered_parameters_run_uncertified(self, toy_file, tmp_path, capsys, variant, eta1):
        # every value explicit: an automatic eta2 that no certificate covers is refused
        out = tmp_path / "o"
        rc = main(
            ["run", "--problem", toy_file, "--variant", variant, "--alpha", "0.001",
             "--eta1", eta1, "--eta2", "0", "--tau", "2", "--iters", "100", "--out", str(out)]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().err.startswith("warning: uncertified run:")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["certificate"] is None
        assert "momentum_fraction" in summary["certificate_error"]
        assert set(summary["bound_checks"].values()) == {"uncertified"}

    def test_explicit_eta1_with_automatic_alpha_is_refused(self, tmp_path, capsys):
        # the step came from the t1 threshold at C1 = c1 = 0 and the certificate from the one
        # at C1 = eta1/(alpha beta): admissible: false beside three passing checks, exit 0
        path = tmp_path / "toy100.json"
        path.write_text(json.dumps(toy_document(ToySpec(num_components=100))))
        out = tmp_path / "o"
        rc = main(["run", "--problem", str(path), "--variant", "ipiag", "--eta1", "1e-5",
                   "--c1", "0", "--tau", "4", "--iters", "3000", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "--alpha" in line
        assert not out.exists()

    def test_automatic_eta2_no_certificate_covers_is_refused(self, toy_file, tmp_path, capsys):
        # C1 = eta1/(alpha beta) is past 0.5; eta2 was taken from the certificate at c1
        rc = main(["run", "--problem", toy_file, "--variant", "ipiag", "--alpha", "0.001",
                   "--eta1", "0.9", "--tau", "2", "--iters", "100", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: no t1 certificate covers alpha=0.001, eta1=0.9, eta2='auto'")

    @pytest.mark.parametrize("problem, flags, code, admits", [
        ("toy_file", ["--alpha", "1.0", "--tau", "0", "--schedule", "sync", "--workers", "2",
                      "--iters", "500"], EXIT_BOUND, "inadmissible"),
        ("toy_file", [], EXIT_OK, "admissible"),
        ("lasso_file", ["--alpha", "0.001", "--iters", "20"], EXIT_OK, "none"),
    ], ids=["past-the-threshold", "default", "no-growth-modulus"])
    def test_run_line_tells_whether_the_certificate_admits_the_run(
        self, request, tmp_path, capsys, problem, flags, code, admits
    ):
        out = tmp_path / "o"
        argv = ["run", "--problem", request.getfixturevalue(problem), *flags, "--out", str(out)]
        assert main(argv) == code
        assert capsys.readouterr().out.endswith(f"] cert={admits} -> {out}\n")
        cert = json.loads((out / "summary.json").read_text())["certificate"]
        verdict = "none" if cert is None else "admissible" if cert["admissible"] else "inadmissible"
        assert verdict == admits

    def test_problem_without_growth_modulus_skips_the_checks(self, lasso_file, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(
            ["run", "--problem", lasso_file, "--alpha", "0.001", "--tau", "0",
             "--schedule", "sync", "--workers", "2", "--iters", "20", "--out", str(out)]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "summary.json").read_text())
        assert summary["certificate"] is None and summary["certificate_error"] is None
        assert set(summary["bound_checks"].values()) == {"skipped"}

    def test_unknown_variant_is_a_config_error(self, toy_file, tmp_path, capsys):
        # argparse refused it, exiting 2 with its usage text; the variant row words it now
        rc = main(["run", "--problem", toy_file, "--variant", "sgd", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            'error: variant must be one of "piag", "piag-m", "piag-nel", "ipiag", got "sgd"\n'
        )

    def test_failed_bound_check_changes_the_exit_code(self, toy_file, tmp_path, monkeypatch):
        red = BoundReport(
            rho=0.5,
            constant=1.0,
            dist_envelope=0.5 ** np.arange(21),
            psi=Verdict(False, 3, 2.0),
            phi=Verdict(True, None, 0.5),
            dist=Verdict(True, None, 0.5),
        )
        monkeypatch.setattr("ipiag.cli.verify_linear_bound", lambda trace, cert: red)
        out = tmp_path / "o"
        rc = main(
            ["run", "--problem", toy_file, "--tau", "0", "--schedule", "sync",
             "--workers", "2", "--iters", "20", "--out", str(out)]
        )
        assert rc == EXIT_BOUND
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bound_checks"]["psi"] == "fail"
        assert summary["bound_checks"]["phi_gap"] == "pass"


COMPARE_HEADER = "label,variant,alpha,eta1,eta2,rho,iters_to_1e-4,iters_to_1e-6,final_gap"


# Where each declared table is read, as (input, section, table): a compare spec by
# ``ipiag compare``, a toy or lasso document by ``ipiag run`` and a JSONL schedule record
# by ``DelaySchedule.from_jsonl``.
READ_AT = [
    ("spec", "", inputs.SPEC),
    ("spec", "schedule", inputs.SCHEDULE),
    ("spec", "reference", inputs.REFERENCE),
    ("spec", "configs[1]", inputs.CONFIG),
    ("toy", "", inputs.DOCUMENT),
    ("toy", "generator", inputs.GENERATOR),
    ("toy", "known_optimum", inputs.OPTIMUM),
    ("toy", "generator.params", inputs.TOY_PARAMS),
    ("lasso", "generator.params", inputs.LASSO_PARAMS),
    ("jsonl", "records[0]", inputs.RECORD),
]
# The rows ``ipiag run`` reads its flags through, as ("run", flag, row).
FLAGS_AT = [("run", row.name, row) for row in RUN_FLAGS.fields]
# The rows ``ipiag certify`` reads its flags through, as ("certify", flag, row).
CERTIFY_AT = [("certify", row.name, row) for row in inputs.CERTIFY.fields]
# the compare spec field that each run flag reads
SPEC_FIELD = {
    **{row.name: f"configs[1].{row.name}" for row in inputs.CONFIG.fields},
    **{row.name: f"schedule.{row.name}" for row in inputs.SCHEDULE.fields},
    "schedule": "schedule.type",
    "iters": "iters",
    "seed": "base_seed",
}
# how a message names each declared combination of JSON types
WANTED = {
    "integer": "an integer",
    "integer or null": "an integer or null",
    "number": "a number",
    "number or null": "a number or null",
    "number or auto": 'a number or "auto"',
    "list of numbers": "a JSON list of numbers",
    "list of numbers or null": "a JSON list of numbers or null",
}
MISSING = object()


def _declared(places):
    """(input, path, field) for every field of the tables read at ``places``."""
    for source, section, table in places:
        for field in table.fields:
            yield source, f"{section}.{field.name}" if section else field.name, field


def _case_id(source, path, value):
    # spec fields keep the ids of the lists these cases replaced
    return f"{path}-{value}" if source == "spec" else f"{source}:{path}-{value}"


def _type_cases(kind, values):
    """(input, path, types, value) for each value that a field whose first type is ``kind`` refuses."""
    return [
        pytest.param(source, path, field.types, value, id=_case_id(source, path, value))
        for source, path, field in _declared(READ_AT)
        if field.types.split(" or ")[0] == kind
        for value in values
        if not (value is None and field.types.endswith("or null"))
    ]


def _shape_cases():
    """(input, path, value, message): each table's object replaced by 5, given an undeclared
    key, and missing each required field."""
    cases = []
    for source, section, table in READ_AT:
        where = section or table.title
        # the document row of known_optimum also takes null
        shape = "a JSON object or null" if table is inputs.OPTIMUM else "a JSON object"
        cases.append(pytest.param(source, section, 5, f"{where} must be {shape}, got 5",
                                  id=f"{source}:{where}-not-an-object"))
        cases.append(pytest.param(source, f"{section}.bogus" if section else "bogus", 1,
                                  f'{where} has no field "bogus"', id=f"{source}:{where}-unknown"))
    for source, path, field in _declared(READ_AT):
        if field.default is inputs.REQUIRED:
            cases.append(pytest.param(source, path, MISSING, f"{path} is required",
                                      id=f"{source}:{path}-missing"))
    return cases


def _outside(field):
    """Values just outside a field's interval, and NaN and both infinities for a number."""
    interval = field.allowed
    low, high = interval[1:-1].split(", ")
    kind, step = (int, 1) if field.types.startswith("integer") else (float, 0.5)
    values = [kind(low) if interval[0] == "(" else kind(low) - step]
    if high != "inf":
        base, _, power = high.partition("**")
        high = kind(int(base) ** int(power or 1))
        values.append(high if interval[-1] == ")" else high + step)
    return values if kind is int else values + [-math.inf, math.inf, math.nan]


def _range_cases():
    """(input, path, interval, value) for each declared interval and each value outside it."""
    return [
        pytest.param(source, path, field.allowed, value, id=f"{source}:{path}-{value}")
        for source, path, field in list(_declared(READ_AT)) + FLAGS_AT + CERTIFY_AT
        if isinstance(field.allowed, str)
        for value in _outside(field)
    ]


def _keys(path):
    """``"configs[1].alpha"`` as the keys ``["configs", 1, "alpha"]``."""
    keys = []
    for part in path.split(".") if path else []:
        name, _, index = part.partition("[")
        keys += [name, int(index[:-1])] if index else [name]
    return keys


def _refusal(tmp_path, capsys, monkeypatch, source, path, value):
    """The error message of reading a valid input whose field at ``path`` is ``value``.

    MISSING deletes the field; an empty path replaces the whole input; for ``run`` and
    ``certify`` the path is a flag and ``value`` its text.  Spec and document errors must be
    the call's one ``error:`` line, and no solve or run starts.
    """
    lasso = lasso_document(LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1))
    data = {
        "spec": {
            "problem": lasso,
            "iters": 500,
            "schedule": {"type": "uniform1", "tau": 2, "workers": 3},
            "repetitions": 2,
            "base_seed": 0,
            "reference": {"alpha": 2e-3, "iters": 100},
            "configs": [{"label": "a", "variant": "piag", "alpha": 1e-3},
                        {"label": "b", "variant": "ipiag", "alpha": 2e-3, "eta1": 0.0,
                         "eta2": 0.0}],
        },
        "toy": toy_document(ToySpec(num_components=12)),
        "lasso": lasso,
        "jsonl": {"records": [{"k": k, "refreshed": [0], "source_iter": [k]} for k in range(3)]},
        "run": {},
        "certify": {"L": 101, "beta": 2, "tau": 4},
    }[source]
    keys = _keys(path)
    if not keys:
        data = value
    else:
        owner = data
        for key in keys[:-1]:
            owner = owner[key]
        if value is MISSING:
            del owner[keys[-1]]
        else:
            owner[keys[-1]] = value
    if source == "jsonl":
        file = tmp_path / "schedule.jsonl"
        file.write_text("".join(json.dumps(record) + "\n" for record in data["records"]))
        with pytest.raises(ValueError) as info:
            DelaySchedule.from_jsonl(str(file), num_workers=1, tau=5)
        return str(info.value)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr("ipiag.problems.reference_solution", no_solve)
    # ipiag run solves through ipiag.cli.run, compare through ipiag.solver.sweep
    monkeypatch.setattr("ipiag.cli.run", no_solve)
    monkeypatch.setattr("ipiag.solver.run", no_solve)
    file = tmp_path / "input.json"
    out = str(tmp_path / "o")
    if source == "spec":
        file.write_text(json.dumps(data))
        argv, prefix = ["compare", "--spec", str(file)], "error: "
    elif source == "run":
        file.write_text(json.dumps(toy_document(ToySpec(num_components=12))))
        argv = ["run", "--problem", str(file), f"--{path}={value}", "--out", out]
        prefix = "error: "
    elif source == "certify":
        argv, prefix = ["certify", *(f"--{flag}={text}" for flag, text in data.items())], "error: "
    else:
        file.write_text(json.dumps(data))
        argv = ["run", "--problem", str(file), "--alpha", "1e-3", "--out", out]
        prefix = "error: cannot load problem: "
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err[len(prefix):-1]


class TestCompare:
    def _spec(self, tmp_path, configs, **overrides):
        spec = {
            "problem": toy_document(ToySpec(num_components=12)),
            "iters": 500,
            "schedule": {"type": "uniform1", "tau": 2, "workers": 3},
            "repetitions": 2,
            "base_seed": 0,
            "configs": configs,
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_two_configs_produce_a_table(self, tmp_path, capsys):
        spec = self._spec(
            tmp_path,
            [
                {"label": "plain", "variant": "piag", "alpha": "auto"},
                {"label": "inertial", "variant": "ipiag", "alpha": "auto", "c1": 0.25},
            ],
        )
        out = tmp_path / "cmp"
        rc = main(["compare", "--spec", spec, "--out", str(out)])
        assert rc == EXIT_OK
        table = (out / "compare.csv").read_text().strip().splitlines()
        assert table[0] == COMPARE_HEADER
        assert len(table) == 3
        assert table[1].startswith("plain,piag,")
        assert table[2].startswith("inertial,ipiag,")
        # stdout carries the same table
        assert capsys.readouterr().out.strip().splitlines()[0] == COMPARE_HEADER

    def test_four_configs_keep_the_bytes_of_their_table(self, tmp_path, capsys):
        # the SHA-256 of this compare.csv before compare ran its repetitions through
        # ipiag.solver.sweep; a label with a comma is quoted
        spec = self._spec(
            tmp_path,
            [
                {"label": "a,b", "variant": "piag", "alpha": "auto"},
                {"variant": "piag-m", "alpha": "auto", "c1": 0.25},
                {"variant": "piag-nel", "alpha": "auto"},
                {"label": "both", "variant": "ipiag", "alpha": "auto", "c1": 0.25},
            ],
            iters=1500,
            repetitions=3,
        )
        out = tmp_path / "cmp"
        assert main(["compare", "--spec", spec, "--out", str(out)]) == EXIT_OK
        table = (out / "compare.csv").read_bytes()
        assert table.decode().startswith(COMPARE_HEADER + '\n"a,b",piag,')
        assert hashlib.sha256(table).hexdigest() == (
            "7b50e2c98859d975ab13205ba3c31d1b74f0faf6f390f1c2ff0deb53399fbe4f"
        )
        assert capsys.readouterr().out.encode() == table

    def test_duplicate_configs_give_identical_rows(self, tmp_path, capsys):
        spec = self._spec(
            tmp_path,
            [
                {"label": "a", "variant": "piag", "alpha": "auto"},
                {"label": "b", "variant": "piag", "alpha": "auto"},
            ],
        )
        rc = main(["compare", "--spec", spec])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]

    def test_single_config_is_rejected(self, tmp_path, capsys):
        spec = self._spec(tmp_path, [{"label": "only", "variant": "piag"}])
        assert main(["compare", "--spec", spec]) == EXIT_CONFIG

    def test_problem_without_optimum_needs_a_reference_block(self, tmp_path, capsys):
        lasso = lasso_document(LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1))
        spec = self._spec(
            tmp_path,
            [
                {"label": "a", "variant": "piag", "alpha": 1e-3},
                {"label": "b", "variant": "piag", "alpha": 2e-3},
            ],
            problem=lasso,
        )
        assert main(["compare", "--spec", spec]) == EXIT_CONFIG
        assert "reference" in capsys.readouterr().err

    def test_reference_block_fills_in_the_optimum(self, tmp_path, capsys):
        lasso = lasso_document(LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1))
        spec = self._spec(
            tmp_path,
            [
                {"label": "a", "variant": "piag", "alpha": 1e-3},
                {"label": "b", "variant": "piag", "alpha": 2e-3},
            ],
            problem=lasso,
            iters=300,
            reference={"alpha": 2e-3, "iters": 50000, "tol": 1e-10},
        )
        rc = main(["compare", "--spec", spec])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_an_output_directory_under_a_file_is_a_config_error(self, tmp_path, capsys):
        spec = self._spec(
            tmp_path,
            [{"variant": "piag", "alpha": "auto"}, {"variant": "ipiag", "alpha": "auto"}],
        )
        (tmp_path / "file").write_text("")
        rc = main(["compare", "--spec", spec, "--out", str(tmp_path / "file" / "sub")])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error:")

    def test_uncertified_config_warns_and_leaves_rho_empty(self, tmp_path, capsys):
        spec = self._spec(
            tmp_path,
            [
                {"label": "plain", "variant": "piag", "alpha": "auto"},
                {"label": "heavy", "variant": "piag-m", "alpha": 0.001, "eta1": 0.5},
            ],
        )
        rc = main(["compare", "--spec", spec])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: config 'heavy' is uncertified:")
        rows = [line.split(",") for line in captured.out.strip().splitlines()]
        rho = rows[0].index("rho")
        assert rows[1][rho] != "" and rows[2][rho] == ""

    def test_non_finite_run_exits_as_diverged(self, tmp_path, capsys):
        spec = self._spec(
            tmp_path,
            [
                {"label": "plain", "variant": "piag", "alpha": "auto"},
                {"label": "huge", "variant": "piag", "alpha": 1e308},
            ],
        )
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["compare", "--spec", spec])
        assert rc == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith("error: config 'huge' diverged:")

    @pytest.mark.parametrize("overrides, field, interval", [
        ({"iters": -1}, "iters", "[0, inf)"),
        # a lasso problem has no growth modulus, so no certificate rejects tau = -1 first
        ({
            "schedule": {"type": "uniform1", "tau": -1, "workers": 2},
            "problem": lasso_document(
                LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1)
            ),
            "reference": {"alpha": 2e-3, "iters": 100},
        }, "schedule.tau", "[0, 2**63)"),
    ], ids=["iters", "tau"])
    def test_negative_tau_or_iters_is_a_config_error(self, tmp_path, capsys, overrides, field,
                                                     interval):
        spec = self._spec(
            tmp_path,
            [{"label": "a", "variant": "piag", "alpha": 1e-3},
             {"label": "b", "variant": "piag", "alpha": 2e-3}],
            **overrides,
        )
        assert main(["compare", "--spec", spec]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {field} must lie in {interval}, got -1\n"

    @pytest.mark.parametrize(
        "source, path, types, value", _type_cases("integer", [1.5, "100", 2.0, True])
    )
    def test_spec_counts_must_be_json_integers(
        self, tmp_path, capsys, monkeypatch, source, path, types, value
    ):
        # refused, not truncated to an int; the cases are drawn from the declared tables
        assert _refusal(tmp_path, capsys, monkeypatch, source, path, value) == (
            f"{path} must be {WANTED[types]}, got {json.dumps(value)}"
        )

    def test_a_problem_that_is_a_number_is_not_a_file_descriptor(self, tmp_path, capsys):
        # open() used to take the number as a file descriptor: 0 read stdin, and the
        # with-block closed whichever descriptor it named
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as fh:
            json.dump(toy_document(ToySpec(num_components=12)), fh)
        try:
            spec = self._spec(
                tmp_path, [{"variant": "piag", "alpha": 1e-3}, {"variant": "ipiag", "alpha": 1e-3}],
                problem=read_end,
            )
            assert main(["compare", "--spec", spec]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"error: problem must be a path or a JSON object, got {read_end}\n"
            )
            os.fstat(read_end)  # still open
        finally:
            with contextlib.suppress(OSError):
                os.close(read_end)

    @pytest.mark.parametrize("field, value, message", [
        ("the spec", [], "the spec must be a JSON object, got []"),
        ("schedule", 5, "schedule must be a JSON object, got 5"),
        ("configs", 5, "configs must be a JSON list, got 5"),
        ("configs", [5, 6], "configs[0] must be a JSON object, got 5"),
        ("reference", 5, "reference must be a JSON object, got 5"),
        ("reference", "alpha", 'reference must be a JSON object, got "alpha"'),
    ], ids=["spec", "schedule", "configs", "configs[0]", "reference", "reference-str"])
    def test_spec_blocks_must_have_their_json_shape(self, tmp_path, capsys, field, value, message):
        # an error line, not an AttributeError traceback; a lasso problem reads its reference
        overrides = {
            "configs": [{"label": "a", "variant": "piag", "alpha": 1e-3},
                        {"label": "b", "variant": "piag", "alpha": 2e-3}],
            "problem": lasso_document(
                LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1)
            ),
            "reference": {"alpha": 2e-3, "iters": 100},
        }
        if field != "the spec":
            overrides[field] = value
        spec = self._spec(tmp_path, **overrides)
        if field == "the spec":
            (tmp_path / "spec.json").write_text(json.dumps(value))
        assert main(["compare", "--spec", spec]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("source, path, types, value", (
        _type_cases("number", ["0.25", True, None])
        + _type_cases("list of numbers", [["2.0", "1.0"], [True], None])
    ))
    def test_spec_numbers_must_be_json_numbers(
        self, tmp_path, capsys, monkeypatch, source, path, types, value
    ):
        # refused, not read with float(): "c1": "0.25" and "alpha": true (alpha = 1) used to
        # run, and an L_n of strings loaded; every number is read before the reference solve
        assert _refusal(tmp_path, capsys, monkeypatch, source, path, value) == (
            f"{path} must be {WANTED[types]}, got {json.dumps(value)}"
        )

    def test_spec_integer_beyond_the_float_range_is_a_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        big = 10**400  # a JSON number, but float() raises OverflowError
        spec = self._spec(
            tmp_path,
            [{"label": "a", "variant": "piag", "alpha": 1e-3},
             {"label": "b", "variant": "ipiag", "alpha": 2e-3, "c1": big}],
        )
        assert main(["compare", "--spec", spec]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: configs[1].c1 is too large for a float, got {big}\n"
        )
        # in a document's list of numbers it ended in an OverflowError traceback
        for path in ("L_n", "known_optimum.x"):
            value = [big] + [1.0] * 11
            assert _refusal(tmp_path, capsys, monkeypatch, "toy", path, value) == (
                f"{path} is too large for a float, got {json.dumps(value)}"
            )

    @pytest.mark.parametrize("value", ["cmp", 5, None, ["cmp"]])
    @pytest.mark.parametrize("flag", [[], ["--out", "cmp"]], ids=["spec", "flag"])
    def test_a_spec_out_field_is_refused(self, tmp_path, capsys, monkeypatch, value, flag):
        # --out alone names the output directory: a spec's out, which --out silently
        # overrode, is an error line before any solve, run or write
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr("ipiag.problems.reference_solution", no_solve)
        # ipiag run solves through ipiag.cli.run, compare through ipiag.solver.sweep
        monkeypatch.setattr("ipiag.cli.run", no_solve)
        monkeypatch.setattr("ipiag.solver.run", no_solve)
        monkeypatch.chdir(tmp_path)
        spec = self._spec(
            tmp_path,
            [{"label": "a", "variant": "piag", "alpha": 1e-3},
             {"label": "b", "variant": "piag", "alpha": 2e-3}],
            problem=lasso_document(
                LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1)
            ),
            reference={"alpha": 2e-3, "iters": 100},
            out=value,
        )
        assert main(["compare", "--spec", spec, *flag]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'error: the spec has no field "out"\n'
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("kind, message", [
        pytest.param("sync", "the sync schedule has no staleness; tau must be 0, got 2",
                     id="sync-the sync schedule has no staleness; tau must be 0"),
        pytest.param(
            "cyclic", 'schedule.type must be one of "sync", "uniform1", got "cyclic"', id="cyclic"
        ),
    ])
    def test_bad_schedule_fails_before_the_reference_solve(
        self, tmp_path, capsys, monkeypatch, kind, message
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("the reference solve ran")

        monkeypatch.setattr("ipiag.problems.reference_solution", no_solve)
        lasso = lasso_document(LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1))
        spec = self._spec(
            tmp_path,
            [{"label": "a", "variant": "piag", "alpha": 1e-3},
             {"label": "b", "variant": "piag", "alpha": 2e-3}],
            problem=lasso,  # no known optimum, so compare needs a reference solve
            schedule={"type": kind, "tau": 2, "workers": 2},
            reference={"alpha": 2e-3, "iters": 50000, "tol": 1e-10},
        )
        assert main(["compare", "--spec", spec]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert "--tau" not in err

    def test_iters_too_large_for_a_schedule_fails_before_the_reference_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        # every repetition's schedule is built inside the spec checks, so numpy's refusal
        # of the array size is a configuration error, not a traceback after the solve
        def no_solve(*args, **kwargs):
            raise AssertionError("the reference solve ran")

        monkeypatch.setattr("ipiag.problems.reference_solution", no_solve)
        lasso = lasso_document(LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1))
        spec = self._spec(
            tmp_path,
            [{"label": "a", "variant": "piag", "alpha": 1e-3},
             {"label": "b", "variant": "piag", "alpha": 2e-3}],
            problem=lasso,
            iters=10**30,  # too large for any array, so nothing is allocated
            reference={"alpha": 2e-3, "iters": 50000, "tol": 1e-10},
        )
        assert main(["compare", "--spec", spec]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: iters is too large for the arrays it sizes, got {10**30} (")
        assert err.count("\n") == 1

    # 10**30 is beyond numpy's index range (ValueError), 10**15 int64s beyond the address
    # space (MemoryError), and 2**63 beyond int64 (an OverflowError in the sync schedule's
    # arange, once a traceback); either way numpy refuses before it allocates anything
    @pytest.mark.parametrize("iters", [10**15, 2**63, 10**30])
    @pytest.mark.parametrize("call", ["run", "run-sync", "compare", "compare-reference"])
    def test_an_iters_numpy_cannot_allocate_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, call, iters
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        # ipiag run solves through ipiag.cli.run, compare through ipiag.solver.sweep
        monkeypatch.setattr("ipiag.cli.run", no_solve)
        monkeypatch.setattr("ipiag.solver.run", no_solve)
        problem = tmp_path / "toy.json"
        problem.write_text(json.dumps(toy_document(ToySpec(num_components=12))))
        field = "iters"
        if call.startswith("run"):
            sync = ["--schedule", "sync", "--tau", "0"] if call == "run-sync" else []
            argv = ["run", "--problem", str(problem), "--iters", str(iters), *sync,
                    "--out", str(tmp_path / "o")]
        else:
            lasso = lasso_document(LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2,
                                             seed=1))
            overrides = {"iters": iters}
            if call == "compare-reference":
                field = "reference.iters"
                overrides = {"problem": lasso, "reference": {"alpha": 2e-3, "iters": iters}}
            spec = self._spec(
                tmp_path, [{"variant": "piag", "alpha": 1e-3}, {"variant": "piag", "alpha": 2e-3}],
                **overrides,
            )
            argv = ["compare", "--spec", spec]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} is too large for the arrays it sizes, got {iters} (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("base_seed, reps, rc", [
        (2**64 - 2, 2, EXIT_OK), (2**64 - 2, 3, EXIT_CONFIG), (2**64 - 1, 1, EXIT_OK),
    ])
    def test_every_repetition_seed_lies_in_the_seed_range(
        self, tmp_path, capsys, base_seed, reps, rc
    ):
        # SplitMix64 masks its seed to 64 bits, so 2**64 would silently rerun seed 0
        spec = self._spec(
            tmp_path, [{"variant": "piag"}, {"variant": "ipiag"}],
            iters=20, base_seed=base_seed, repetitions=reps,
        )
        assert main(["compare", "--spec", spec]) == rc
        if rc == EXIT_CONFIG:
            assert capsys.readouterr().err == (
                f"error: base_seed + repetitions - 1 must lie in [0, 2**64), got {2**64}\n"
            )

    def test_labels_are_quoted_where_a_csv_reader_needs_it(self, tmp_path, capsys):
        # "a,b" used to write a 10-cell row under the 9-column header
        labels = ["a,b", 'say "hi"', "plain"]
        spec = self._spec(
            tmp_path, [{"label": label, "variant": "piag"} for label in labels], iters=20
        )
        out = tmp_path / "cmp"
        assert main(["compare", "--spec", spec, "--out", str(out)]) == EXIT_OK
        text = (out / "compare.csv").read_text()
        assert capsys.readouterr().out == text
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == COMPARE_HEADER.split(",")
        assert [row[0] for row in rows[1:]] == labels
        assert {len(row) for row in rows} == {9}
        assert text.splitlines()[3].startswith("plain,piag,")  # unquoted where it may be

    def test_nonpositive_repetitions_is_a_config_error(self, tmp_path, capsys):
        spec = self._spec(
            tmp_path,
            [{"variant": "piag", "alpha": "auto"}, {"variant": "ipiag", "alpha": "auto"}],
            repetitions=0,
        )
        assert main(["compare", "--spec", spec]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: repetitions must lie in [1, inf), got 0\n"

    def test_missing_spec_file(self, tmp_path):
        assert main(["compare", "--spec", str(tmp_path / "none.json")]) == EXIT_CONFIG


@pytest.mark.parametrize("command, prefix", [
    ("run", "cannot load problem: "), ("compare", "cannot read spec: ")
])
@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_json_nested_beyond_the_decoder_is_a_config_error(tmp_path, capsys, command, prefix,
                                                          opener):
    # json.load raised RecursionError, which ended in a traceback with exit 1
    path = tmp_path / "nested.json"
    path.write_text(opener * 100000)
    flag = "--problem" if command == "run" else "--spec"
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: " + prefix + "maximum recursion depth exceeded"), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("source, path, value, message", _shape_cases())
def test_every_table_refuses_a_missing_field_an_unknown_key_and_a_non_object(
    tmp_path, capsys, monkeypatch, source, path, value, message
):
    # a JSONL record without source_iter raised KeyError, and one that is not an object
    # TypeError; an undeclared key in a spec or document was ignored
    assert _refusal(tmp_path, capsys, monkeypatch, source, path, value) == message


@pytest.mark.parametrize("source", ["toy", "lasso"])
def test_a_generator_seed_is_refused(tmp_path, capsys, monkeypatch, source):
    # the lasso seed is generator.params.seed: a lasso generator.seed lost to it, and a toy
    # one was ignored
    assert _refusal(tmp_path, capsys, monkeypatch, source, "generator.seed", 2) == (
        'generator has no field "seed"'
    )


@pytest.mark.parametrize("source, path, interval, value", _range_cases())
def test_every_declared_range_is_enforced(
    tmp_path, capsys, monkeypatch, source, path, interval, value
):
    assert _refusal(tmp_path, capsys, monkeypatch, source, path, value) == (
        f"{path} must lie in {interval}, got {json.dumps(value)}"
    )


@pytest.mark.parametrize("value", [-1, -0.5, math.inf, math.nan, "x"])
@pytest.mark.parametrize("flag, row", [
    pytest.param(flag, row, id=flag) for _, flag, row in FLAGS_AT
])
def test_a_run_flag_and_its_spec_field_get_the_same_message(
    tmp_path, capsys, monkeypatch, flag, row, value
):
    # run read --alpha, --eta1 and --eta2 apart from the rows, and worded its own messages:
    # "alpha must be positive", "inertial weights must lie in [0, 1]"; a run message names
    # the flag, so --schedule is not called "type"
    field = SPEC_FIELD[row.name]
    in_spec = _refusal(tmp_path, capsys, monkeypatch, "spec", field, value)
    assert in_spec.startswith(field + " ")
    assert _refusal(tmp_path, capsys, monkeypatch, "run", flag, value) == (
        flag + in_spec[len(field):]
    )


@pytest.mark.parametrize("command, flags_at, values", [
    ("run", FLAGS_AT, ("sync", "uniform1", *inputs.RUN_VARIANTS)),
    ("certify", CERTIFY_AT, ("t1", "t1tight", "cor1", "cor2")),
])
def test_help_shows_each_flag_row(capsys, monkeypatch, command, flags_at, values):
    # the argparse choices that listed --variant and --schedule values were dropped when the
    # rows took over reading the flags, and no flag's help showed its default; certify's
    # help named each flag's meaning but no type, range or default
    monkeypatch.setenv("COLUMNS", "200")  # one line per flag
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    for value in values:
        assert f'"{value}"' in text
    for _, flag, row in flags_at:
        line = next(line for line in text.splitlines() if line.lstrip().startswith(f"--{flag} "))
        default = "required" if row.default is inputs.REQUIRED else (
            f"default {json.dumps(row.default)}"
        )
        assert line.endswith(f"; {default}"), line
        assert f"{row.types} in " in line, line


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("kind, params, message", [
    pytest.param("toy", {"num_components": 10**13},
                 "num_components is too large for the arrays it sizes, got 10000000000000 "
                 "(Unable to allocate 72.8 TiB", id="toy-10**13"),
    pytest.param("toy", {"num_components": 10**400},
                 f"num_components is too large for the arrays it sizes, got {10**400} "
                 "(int too large to convert to float)", id="toy-10**400"),
    pytest.param("toy", {"num_components": 10**20},
                 f"num_components is too large for the arrays it sizes, got {10**20} "
                 "(Maximum allowed dimension exceeded)", id="toy-10**20"),
    pytest.param("lasso", {"cols": 10**13},
                 "rows and generator.params.cols are too large for the arrays they size, got "
                 "8 and 10000000000000 (Unable to allocate", id="lasso-cols-10**13"),
    pytest.param("lasso", {"cols": 10**20},
                 "rows and generator.params.cols are too large for the arrays they size, got "
                 f"8 and {10**20} (Maximum allowed dimension exceeded)", id="lasso-cols-10**20"),
    # the objective guard's own refusal, made before any array is sized, keeps its message
    pytest.param("toy", {"offset": 1e154},
                 "offset is so large that the objective overflows, got 1e+154", id="toy-offset"),
])
def test_a_problem_too_large_for_its_arrays_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, kind, params, message
):
    # 10**400 and 10**13 exited 1 with a traceback: OverflowError in ToySpec's objective
    # guard, or numpy's MemoryError; 10**20 gave numpy's bare "Maximum allowed dimension
    # exceeded".  Every size here is one numpy refuses before allocating anything.
    if kind == "toy":
        doc = toy_document(ToySpec(num_components=12))
    else:
        doc = lasso_document(LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1))
    doc["generator"]["params"].update(params)
    if command == "run":
        got = _refusal(tmp_path, capsys, monkeypatch, kind, "", doc)
    else:
        got = _refusal(tmp_path, capsys, monkeypatch, "spec", "problem", doc)
        assert got.startswith("cannot load problem: "), got
        got = got[len("cannot load problem: "):]
    assert got.startswith("generator.params." + message), got


@pytest.mark.parametrize("command, blocked", [
    ("run", "trace.csv"), ("run --plot", "plot.svg"), ("run diverging", "summary.json"),
    ("compare", "compare.csv"),
])
def test_an_output_file_that_cannot_be_written_is_a_config_error(
    tmp_path, capsys, toy_file, lasso_file, command, blocked
):
    # each ended in an IsADirectoryError traceback (exit 1): only the set-up was guarded.  A
    # run that diverged before its write still prints one error: line, the write's.
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    argv = {
        "run": ["run", "--problem", toy_file, "--iters", "20"],
        "run --plot": ["run", "--problem", toy_file, "--iters", "20", "--plot"],
        "run diverging": ["run", "--problem", lasso_file, "--alpha", "10.0", "--tau", "0",
                          "--schedule", "sync", "--workers", "2", "--iters", "500"],
    }.get(command)
    if argv is None:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"problem": toy_file, "iters": 20, "configs": [{"variant": "piag"}, {"variant": "ipiag"}]}
        ))
        argv = ["compare", "--spec", str(spec)]
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(out / blocked) in err


# ---------------------------------------------------------------------------
# The exit-code contract, over mutated documents and specs, random JSON values
# and output directories that cannot be made.  Sizes stay small: a mutated count
# is at most 50, so no example allocates much or runs long.

json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 50), st.floats(), st.text(max_size=4)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


@st.composite
def _mostly(draw, common, rare):
    """Draws from ``common`` three times in four, else from ``rare``.

    A seeded ``random.Random`` picks the branch: hypothesis's own choices lean to
    the edge cases, which would leave few valid calls.
    """
    return draw(rare if draw(st.randoms(use_true_random=True)).random() < 0.25 else common)


def _mutate(draw, root, tables):
    """Set up to two fields of ``root`` to random JSON values.

    ``tables`` pairs key sequences from the root with the table declaring the JSON object
    there.  Each field is one the table declares or, one time in four, a new key, so a
    newly declared field is fuzzed; a path that an earlier mutation broke is skipped.
    """
    for _ in range(draw(_mostly(st.integers(0, 1), st.just(2)))):
        path, table = draw(st.sampled_from(tables))
        owner = root
        for key in path:
            owner = owner.get(key) if isinstance(owner, dict) else None
        if isinstance(owner, dict):
            declared = st.sampled_from([field.name for field in table.fields])
            owner[draw(_mostly(declared, st.text(max_size=4)))] = draw(json_values)


@st.composite
def problem_documents(draw):
    """A toy or small lasso document with up to two fields set to random JSON values."""
    if draw(_mostly(st.just(True), st.just(False))):
        spec = ToySpec(
            draw(st.integers(2, 12)),
            offset=draw(_mostly(st.sampled_from([1.0, 3.0, 1e-300]), st.floats(1e-300, 10.0))),
            l1_weight=draw(_mostly(st.sampled_from([0.0, 1.0, 3.0]), st.floats(0.0, 10.0))),
        )
        doc, params = toy_document(spec), inputs.TOY_PARAMS
    else:
        doc = lasso_document(LassoSpec(rows=8, cols=12, sparsity=0.25, l1_weight=0.2, seed=1))
        params = inputs.LASSO_PARAMS
    _mutate(draw, doc, [((), inputs.DOCUMENT), (("generator",), inputs.GENERATOR),
                        (("generator", "params"), params), (("known_optimum",), inputs.OPTIMUM)])
    return doc


@st.composite
def compare_specs(draw):
    """A compare spec over a small problem, with up to two fields set to random JSON values."""
    spec = {
        "problem": draw(problem_documents()),
        "iters": 30,
        "schedule": {"type": "uniform1", "tau": 2, "workers": 3},
        "repetitions": 2,
        "base_seed": 0,
        "reference": {"alpha": 2e-3, "iters": 50, "tol": 1e-10},
        "configs": {
            "plain": {"label": "plain", "variant": "piag", "alpha": 1e-3},
            "inertial": {"label": "inertial", "variant": "ipiag", "alpha": 1e-3, "c1": 0.25},
        },
    }
    _mutate(draw, spec, [((), inputs.SPEC), (("schedule",), inputs.SCHEDULE),
                         (("reference",), inputs.REFERENCE), (("configs", "plain"), inputs.CONFIG),
                         (("configs", "inertial"), inputs.CONFIG)])
    if isinstance(spec["configs"], dict):
        spec["configs"] = list(spec["configs"].values())
    return spec


def _write_json(path, value):
    path.write_text(json.dumps(value))  # NaN and infinities go in as JSON's extensions
    return str(path)


@st.composite
def cli_calls(draw):
    """A function of the example's directory that returns the argv of one CLI call."""
    command = draw(st.sampled_from(["run", "compare", "certify"]))
    out = draw(_mostly(st.just("out"), st.just("blocker/sub")))  # blocker is a regular file
    if command == "run":
        content = draw(_mostly(problem_documents(), json_values))
        flags = [
            "--variant", draw(st.sampled_from(["piag", "piag-m", "piag-nel", "ipiag"])),
            "--alpha", draw(_mostly(st.sampled_from(["auto", "1e-3", "1.0"]),
                                    st.sampled_from(["1e200", "-1", "nan"]))),
            "--eta1", draw(_mostly(st.just("auto"), st.sampled_from(["0", "0.3"]))),
            "--tau", str(draw(st.integers(0, 3))),
            "--workers", str(draw(st.integers(1, 4))),
            "--schedule", draw(_mostly(st.just("uniform1"), st.just("sync"))),
            "--iters", str(draw(st.integers(0, 60))),
        ] + (["--plot"] if draw(st.booleans()) else [])
        return lambda d: ["run", "--problem", _write_json(d / "p.json", content),
                          "--out", str(d / out), *flags]
    if command == "compare":
        content = draw(_mostly(compare_specs(), json_values))
        flags = ["--out", out] if draw(st.booleans()) else []
        return lambda d: ["compare", "--spec", _write_json(d / "spec.json", content),
                          *[str(d / f) if f == out else f for f in flags]]
    rare = (st.floats() | st.sampled_from([5e-324, 1e308])).map(repr)
    text = st.sampled_from(["abc", "1.5", "", "bogus", "[1]"])  # no flag's value
    values = {
        "L": draw(_mostly(st.just("101.0"), rare | text)),
        "beta": draw(_mostly(st.just("2.0"), rare | text)),
        "c1": draw(_mostly(st.sampled_from(["0.0", "0.25"]), rare | text)),
        "tau": draw(_mostly(st.integers(0, 8).map(str), st.integers(-2, 1000).map(str) | text)),
        "variant": draw(_mostly(st.sampled_from(["t1", "t1tight", "cor1", "cor2"]), text)),
    }
    # any flag may be left out, a required one too
    flags = [f"--{flag}={value}" for flag, value in values.items()
             if draw(_mostly(st.just(True), st.just(False)))]
    return lambda d: ["certify", *flags]


@given(cli_calls())
@example(lambda d: ["run", "--problem", _write_json(
    d / "p.json", toy_document(ToySpec(10, offset=1.0, l1_weight=1.0))),
    "--variant", "piag", "--iters", "20", "--out", str(d / "out"), "--plot"])
@example(lambda d: ["run", "--problem", _write_json(
    d / "p.json", toy_document(ToySpec(10, offset=1e-300, l1_weight=0.0))),
    "--iters", "20", "--out", str(d / "out"), "--plot"])
@example(lambda d: ["run", "--problem", _write_json(  # an auto eta1 of 5e199, refused
    d / "p.json", toy_document(ToySpec(2, offset=1.0, l1_weight=1.0))),
    "--variant", "ipiag", "--alpha", "1e200", "--workers", "1", "--iters", "1",
    "--out", str(d / "out")])
@example(lambda d: ["run", "--problem", _write_json(  # eta1 = 1 on a run that stays put
    d / "p.json", toy_document(ToySpec(2, offset=1.0, l1_weight=1.0))),
    "--variant", "ipiag", "--alpha", "1e200", "--eta1", "1", "--workers", "1", "--iters", "1",
    "--out", str(d / "out")])
# argparse refused these itself, with its usage text and a second error line
@example(lambda d: ["certify", "--L", "101", "--beta", "2", "--tau", "1.5"])
@example(lambda d: ["certify", "--L", "abc", "--beta", "2", "--tau", "4"])
@example(lambda d: ["certify", "--L", "101", "--beta", "2", "--tau", "4", "--variant", "bogus"])
@example(lambda d: ["certify", "--L", "101", "--tau", "4"])
@settings(max_examples=150)
def test_every_call_keeps_the_exit_code_contract(make_argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        (d / "blocker").write_text("")
        argv = make_argv(d)
        err = io.StringIO()
        os.chdir(tmp)  # a spec's relative problem path is read from here
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(argv)
        finally:
            os.chdir(cwd)
    assert rc in {EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED, EXIT_BOUND}, argv
    assert [str(w.message) for w in caught] == [], argv
    lines = err.getvalue().splitlines()
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), (argv, lines)
    errors = [line for line in lines if line.startswith("error: ")]
    assert len(errors) == (1 if rc in (EXIT_CONFIG, EXIT_DIVERGED) else 0), (argv, lines)
