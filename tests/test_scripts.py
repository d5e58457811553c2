import importlib.util
import pathlib

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
