import ctypes
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
    assert capsys.readouterr().out.startswith("instance: 300 x 1000, planted support 100,")


# each fixed setting is a constant of its script, so a flag that would set it is refused; no
# flag is taken by a prefix either, so the toy script's old --seed is not lasso's --seeds
@pytest.mark.parametrize("name, flag", [
    *(("toy_figure", flag) for flag in ("--components", "--tau", "--workers", "--seed",
                                        "--iter")),
    *(("lasso_figure", flag) for flag in ("--rows", "--cols", "--sparsity", "--weight",
                                          "--instance-seed", "--eta", "--tau", "--workers",
                                          "--seed", "--iter")),
])
def test_the_figure_scripts_refuse_a_removed_flag_before_writing(
    monkeypatch, tmp_path, capsys, name, flag
):
    script = _load(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", flag, "4", "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, argv", [
    ("toy_figure", ["--iters", "0"]),
    ("toy_figure", ["--iters", "-1"]),
    ("lasso_figure", ["--iters", "0"]),
    ("lasso_figure", ["--full", "--iters", "-1"]),
    ("lasso_figure", ["--seeds", "0"]),
    ("lasso_figure", ["--seeds", "-2"]),
])
def test_the_figure_scripts_refuse_a_count_below_one_before_writing(
    monkeypatch, tmp_path, capsys, name, argv
):
    script = _load(name)
    if name == "lasso_figure":
        monkeypatch.setattr(script, "make_lasso", None)  # refused before the instance is built
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv, "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 2
    flag, value = argv[-2:]
    assert f"error: {flag} must be at least 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_make_problems_takes_no_flag_by_its_prefix(monkeypatch, tmp_path, capsys):
    # --fu ran as --full
    script = _load("make_problems")
    monkeypatch.setattr(sys, "argv", ["make_problems.py", "--fu", "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --fu" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _digests(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.glob("*.csv"))}


def blas_kernel():
    """Name of the kernel numpy's OpenBLAS runs on this CPU, such as ``SkylakeX``, or None.

    OpenBLAS picks its kernel when it loads (``OPENBLAS_CORETYPE`` forces one), so the build
    string of ``numpy.show_config`` does not name it; the scipy-openblas library that numpy
    wheels bundle in ``numpy.libs`` reports it.
    """
    return _openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p, bytes.decode)


def blas_threads():
    """The number of threads numpy's OpenBLAS runs on, from the library ``blas_kernel`` reads,
    or None."""
    return _openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int, int)


def _openblas_call(name, restype, convert):
    """``convert`` of the result of the scipy-openblas function ``name``, or None without it."""
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        function = getattr(ctypes.CDLL(str(path)), name, None)
        if function is not None:
            function.argtypes, function.restype = [], restype
            return convert(function())
    return None


# SHA-256 of each CSV the scripts write at 200 iterations, taken with numpy 2.4's OpenBLAS
# wheel before both scripts ran their configs through ipiag.solver.sweep.  The toy CSVs held
# under every kernel tried.  The lasso CSV's bytes depend on the OpenBLAS kernel (its matrix
# products go through BLAS), so it is pinned per kernel, each taken with the kernel forced
TOY_FIGURE_CSVS = {
    "toy_double_inertia.csv": "c472e78b7f5d2427997d2b73aa1404926abe3521f24b5a60fdf88d3304e9e12a",
    "toy_plain.csv": "e6453aeaf7d5959ba8c214ac052ab39531720f8317ed2fabc478e162695cae6b",
    "toy_post_inertia.csv": "a6b9722fd63644ddecb87f54abc7bcc7c03e8cc4aa5aed79961be18f2dc831ba",
    "toy_pre_inertia.csv": "ad08d259dfc93c1d2321a33a969533f3bd721d66ea4e129014b73cf9a6abdb18",
}
LASSO_FIGURE_CSVS = {
    "SkylakeX": {
        "lasso_mean_error.csv": "d5a48cf45ece59cc51c9cb52021693a953edfd9a2f48165e8992045eab162c1c",
    },
    "Haswell": {
        "lasso_mean_error.csv": "e8ccdd6c4fbf8b4a4f2a5751558893b52033241a379897c64a816f02f7ec8492",
    },
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
    kernel, got = blas_kernel(), _digests(tmp_path)
    # a kernel with no pinned digest fails: a digest that is compared with nothing shows nothing
    assert kernel in LASSO_FIGURE_CSVS, f"no digest pinned for the BLAS kernel {kernel}: got {got}"
    assert got == LASSO_FIGURE_CSVS[kernel]
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
