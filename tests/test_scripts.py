import hashlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lasso_figure_refuses_a_divergent_alpha_before_the_reference_solve(
    monkeypatch, tmp_path, capsys
):
    script = _load("lasso_figure")

    def no_solve(*args, **kwargs):
        raise AssertionError("the reference solve ran")

    monkeypatch.setattr(script, "reference_solution", no_solve)
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--full", "--alpha", "1e-3", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert "--alpha 0.001" in err and "2/||A||^2 = 8.58e-04" in err, err
    assert not (tmp_path / "out").exists()


def test_lasso_figure_full_alone_passes_the_check_and_reaches_the_reference_solve(
    monkeypatch, tmp_path, capsys
):
    script = _load("lasso_figure")

    class Solved(Exception):
        pass

    def no_solve(*args, **kwargs):
        raise Solved

    monkeypatch.setattr(script, "reference_solution", no_solve)
    with pytest.raises(Solved):
        script.main(["--full", "--out", str(tmp_path / "out")])
    assert capsys.readouterr().out.startswith("instance: 300 x 1000,")


def _digests(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.glob("*.csv"))}


# SHA-256 of each CSV the scripts write at 200 iterations, taken before both scripts ran their
# configs through ipiag.solver.sweep.  np.dot goes through BLAS, whose kernel is picked per
# CPU, so a digest holds on the numpy build and CPU family it was taken on (x86-64, numpy 2.4)
TOY_FIGURE_CSVS = {
    "toy_double_inertia.csv": "c472e78b7f5d2427997d2b73aa1404926abe3521f24b5a60fdf88d3304e9e12a",
    "toy_plain.csv": "e6453aeaf7d5959ba8c214ac052ab39531720f8317ed2fabc478e162695cae6b",
    "toy_post_inertia.csv": "a6b9722fd63644ddecb87f54abc7bcc7c03e8cc4aa5aed79961be18f2dc831ba",
    "toy_pre_inertia.csv": "ad08d259dfc93c1d2321a33a969533f3bd721d66ea4e129014b73cf9a6abdb18",
}
LASSO_FIGURE_CSVS = {
    "lasso_mean_error.csv": "d5a48cf45ece59cc51c9cb52021693a953edfd9a2f48165e8992045eab162c1c",
}


def test_toy_figure_keeps_the_bytes_of_its_csvs(monkeypatch, tmp_path, capsys):
    script = _load("toy_figure")
    monkeypatch.setattr(sys, "argv", ["toy_figure.py", "--iters", "200", "--out", str(tmp_path)])
    script.main()
    assert _digests(tmp_path) == TOY_FIGURE_CSVS
    assert (tmp_path / "toy_variants.svg").exists() and (tmp_path / "toy_step_sweep.svg").exists()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:4]] == list(script.LABELS.values())
    assert lines[4:7] == [
        "alpha multiplier    1: final dist2=3.858e-01",
        "alpha multiplier    4: final dist2=2.521e-01",
        "alpha multiplier   16: final dist2=4.506e-02",
    ]


def test_lasso_figure_keeps_the_bytes_of_its_csv(tmp_path, capsys):
    script = _load("lasso_figure")
    script.main(["--iters", "200", "--seeds", "2", "--out", str(tmp_path)])
    assert _digests(tmp_path) == LASSO_FIGURE_CSVS
    assert (tmp_path / "lasso_mean_error.svg").exists()


@pytest.mark.parametrize("argv, iters", [
    ([], 35000),
    (["--full"], 60000),
    (["--iters", "200"], 200),
    # a given --iters is used as given, also below the --full default
    (["--full", "--iters", "1000"], 1000),
])
def test_lasso_figure_iters_default_depends_on_full_and_a_given_value_is_kept(
    monkeypatch, tmp_path, argv, iters
):
    script = _load("lasso_figure")

    class Swept(Exception):
        pass

    def no_sweep(problem, configs, schedules, x_ref, phi_star):
        raise Swept([params.max_iters for params in configs])

    monkeypatch.setattr(script, "reference_solution",
                        lambda problem, *args, **kwargs: (np.ones(problem.dimension), 0.0))
    monkeypatch.setattr(script, "sweep", no_sweep)
    with pytest.raises(Swept) as info:
        script.main([*argv, "--out", str(tmp_path / "out")])
    assert info.value.args[0] == [iters, iters]
