"""Tests for the command-line runner."""

import ast
import configparser
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspflow import cli


def _manifest(out_dir):
    manifests = list(out_dir.glob("*-manifest.ini"))
    assert len(manifests) == 1
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(manifests[0])
    return cp


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_global_flags_on_either_side_of_the_subcommand(tmp_path, monkeypatch, before):
    monkeypatch.chdir(tmp_path)  # a dropped --output-dir would write ./runs here
    out = tmp_path / "out"
    config = tmp_path / "flow.ini"
    config.write_text("[flow]\nt_max = 1.5\n")
    flags = [f"--output-dir={out}", "--seed=5", f"--config={config}"]
    argv = flags + ["flow"] if before else ["flow"] + flags
    assert cli.main(argv) == 0
    cp = _manifest(out)
    assert cp["run"]["seed"] == "5"
    assert cp["run"]["output_dir"] == str(out)
    assert cp["flow"]["t_max"] == "1.5"
    assert not (tmp_path / "runs").exists()


def test_cli_and_pairing_modules_do_not_import_scipy_integrate():
    # every module of the package, and the manifest's version record, run
    # on numpy alone: scipy is a test dependency
    code = (
        "import importlib, pkgutil, sys\n"
        "import cuspflow\n"
        "for mod in pkgutil.iter_modules(cuspflow.__path__):\n"
        "    importlib.import_module('cuspflow.' + mod.name)\n"
        "assert 'cuspflow.escape' in sys.modules\n"
        "assert cuspflow.cli._versions()['scipy_version']\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate loaded'\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_escape_certificate_passes_and_repeats_byte_for_byte(tmp_path):
    config = tmp_path / "escape.ini"
    config.write_text("[escape]\nn_theta = 16\nn_phi = 16\n")
    out = tmp_path / "out"
    argv = [f"--output-dir={out}", f"--config={config}", "escape"]
    assert cli.main(argv) == 0
    assert _manifest(out)["manifest"]["status"] == "ok"
    (cert_path,) = out.glob("*-certificate.json")
    first = cert_path.read_bytes()
    assert json.loads(first)["passed"] is True
    cert_path.unlink()
    assert cli.main(argv) == 0
    assert cert_path.read_bytes() == first


# Margins i and ii of the escape certificate at the default grid, as the seed
# commit computed them.  The seed drives only the isometry spot-check.
DEFAULT_GRID_MARGINS = {"i": 1.5062363858669765, "ii": 1.5088685732341078}

# The evaluations each condition reports at the default grid: the kernels
# run on orbit representatives, but the certificate counts the (direction,
# magnitude) pairs they cover.
DEFAULT_GRID_COUNTS = {
    "i": {"n_samples": 3616, "n_distinct_directions": 904,
          "n_transported_cone_samples": 8},
    "ii": {"n_samples": 8192, "n_distinct_directions": 1024},
    "iii": {"n_samples": 243, "n_distinct_directions": 27},
    "iv": {"n_samples": 75},
}


@pytest.mark.parametrize("seed", range(5))
def test_escape_default_grid_certificate_is_pinned(tmp_path, seed):
    out = tmp_path / "out"
    assert cli.main([f"--output-dir={out}", f"--seed={seed}", "escape"]) == 0
    (cert_path,) = out.glob("*-certificate.json")
    cond = json.loads(cert_path.read_text())["conditions"]
    for key, want in DEFAULT_GRID_MARGINS.items():
        assert cond[key]["margin"] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert cond["iii"]["passed"] and cond["iv"]["passed"]
    assert {key: {k: v for k, v in c.items() if k.startswith("n_")}
            for key, c in cond.items()} == DEFAULT_GRID_COUNTS


def test_escape_at_an_odd_azimuth_count_certifies(tmp_path):
    # at odd n_phi the grid has no growing-component flip, so only four of
    # the eight sign patterns map it onto itself
    out = tmp_path / "out"
    assert cli.main([f"--output-dir={out}", "escape", "--n-phi=33"]) == 0
    assert _manifest(out)["manifest"]["status"] == "ok"
    (cert_path,) = out.glob("*-certificate.json")
    cert = json.loads(cert_path.read_text())
    assert cert["passed"] is True
    assert cert["grid"]["n_phi"] == 33
    assert cert["conditions"]["ii"]["n_distinct_directions"] == 32 * 33


def test_correlate_through_a_deep_cusp_excursion_repeats_byte_for_byte(tmp_path):
    # sampler seed 1 sends a sample deep into a cusp, where the greedy
    # reduction gave up (exit 4)
    out = tmp_path / "out"
    argv = [f"--output-dir={out}", "--seed=1", "correlate", "--n=20000"]
    assert cli.main(argv) == 0
    assert _manifest(out)["manifest"]["status"] == "ok"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(first) == 3
    for p in out.iterdir():
        p.unlink()
    assert cli.main(argv) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


# The t = 0 row of correlation.csv and two laplace.json fields of
# ``correlate --n=2000`` at seeds 0 and 1, as written before the sampler and
# the flow loop were rewritten; none of them goes through the reduction.
# Then the limit from the bumps' exact integrals and its error bound, the
# same at every seed.
EXACT_LIMIT = {"mixing_limit": "0.04187767420579243",
               "mixing_limit_error": "1.6723583670434174e-16"}
PINNED_CORRELATE = {
    0: ("0.0,0.23677887363977196,0.01798757639582483",
        {"area": "6.344", "area_stderr": "0.1750109482289608", **EXACT_LIMIT}),
    1: ("0.0,0.22449583339144774,0.017229903512911315",
        {"area": "6.232", "area_stderr": "0.17446228245669607", **EXACT_LIMIT}),
}


@pytest.mark.parametrize("seed", sorted(PINNED_CORRELATE))
def test_correlate_sampler_outputs_are_pinned(tmp_path, seed):
    out = tmp_path / "out"
    assert cli.main(["correlate", "--n=2000", f"--output-dir={out}", f"--seed={seed}"]) == 0
    (csv_path,) = out.glob("*-correlation.csv")
    header, row0 = csv_path.read_text().splitlines()[:2]
    (json_path,) = out.glob("*-laplace.json")
    probe = json.loads(json_path.read_text())
    row, fields = PINNED_CORRELATE[seed]
    assert (header, row0) == ("t,rho,stderr", row)
    assert {key: repr(probe[key]) for key in fields} == fields


def test_correlate_of_constant_observables_is_exact(tmp_path):
    # B = 2 is nonzero on every sample, so every sample is flowed
    out = tmp_path / "out"
    argv = ["correlate", "--n=200", "--a-amplitude=0", "--b-amplitude=0",
            "--a-baseline=0.5", "--b-baseline=2", f"--output-dir={out}"]
    assert cli.main(argv) == 0
    (csv_path,) = out.glob("*-correlation.csv")
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == 201
    assert {(float(rho), float(err)) for _, rho, err in rows} == {(2.0 * math.pi, 0.0)}
    (json_path,) = out.glob("*-laplace.json")
    probe = json.loads(json_path.read_text())
    assert (probe["mixing_limit"], probe["mixing_limit_error"]) == (2.0 * math.pi, 0.0)
    assert probe["final_gap_z_score"] == 0.0


def test_correlate_draws_liouville_samples_once(tmp_path, monkeypatch):
    import cuspflow.flow as fl

    calls = []
    draw = fl.liouville_samples
    monkeypatch.setattr(fl, "liouville_samples",
                        lambda n, seed: calls.append((n, seed)) or draw(n, seed))
    argv = ["correlate", "--n=200", "--t-max=1", "--seed=3", f"--output-dir={tmp_path}"]
    assert cli.main(argv) == 0
    assert calls == [(200, 3)]


@pytest.mark.parametrize("radius, code", [(18.0, 0), (18.5, 3)])
def test_correlate_exits_3_where_the_limit_error_passes_1e_9(tmp_path, radius, code):
    # at order 3 the integral's roundoff bound first exceeds 1e-9 * 2 pi at
    # radius 18.27; the artifacts are written either way
    out = tmp_path / "out"
    argv = ["correlate", "--n=200", "--t-max=1", f"--a-radius={radius}", f"--output-dir={out}"]
    assert cli.main(argv) == code
    status = _manifest(out)["manifest"]["status"]
    assert status == ("ok" if code == 0 else "tolerance_failure: mixing_limit_error")
    assert len(list(out.iterdir())) == 3


# ``eigendist --d 1`` (re_pairing per row) and ``residue --d 1`` (re_closed,
# re_contour per row) at their defaults, as written before the radial series
# became closed forms; every imaginary part is 0 or roundoff.
PINNED_JETS = {
    "eigendist": ("pairings", ("re_pairing",), (
        5.967920264874818, 5.010803841146069, 2.2398739185384, 2.5772196038990196,
        2.9540626802707224, 2.440218369858695, 3.2829649623014605, 2.553218348385307,
        0.6291643017389603, 1.4, 1.4, 1.4, 0.6000000000000001, -0.3727201554209737,
        0.6000000000000001, 0.18064553519264337, -0.14776379160729392,
        -1.9556991489030446)),
    "residue": ("residues", ("re_closed", "re_contour"), (
        -1.4, -1.3999999999999997, -0.0, 2.220446049250313e-18, 1.6414767449135939,
        1.641476744913592, -0.0, -3.7007434154171887e-19, -0.6000000000000001,
        -0.5999999999999998, -0.0, 1.1102230246251566e-18)),
}


@pytest.mark.parametrize("sub", sorted(PINNED_JETS))
def test_jet_series_outputs_are_pinned(tmp_path, sub):
    # relative to max(|value|, 1), as residue's own check, max(|closed|, h),
    # guards exact zeros at h = 1
    out = tmp_path / "out"
    assert cli.main([sub, "--d=1", f"--output-dir={out}"]) == 0
    name, columns, pinned = PINNED_JETS[sub]
    (csv_path,) = out.glob(f"*-{name}.csv")
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    got = [float(row.split(",")[header.index(col)]) for row in lines[1:] for col in columns]
    assert len(got) == len(pinned)
    for value, ref in zip(got, pinned):
        assert abs(value - ref) <= 1e-13 * max(abs(ref), 1.0)
    for row in lines[1:]:
        cells = dict(zip(header, row.split(",")))
        for col in ("im_pairing", "im_closed", "im_contour"):
            assert abs(float(cells.get(col, 0.0))) <= 1e-13


def test_correlate_step_past_the_float_range_exits_2(tmp_path, capsys):
    argv = ["correlate", "--n=10", "--dt=800", "--t-max=800", f"--output-dir={tmp_path}"]
    assert cli.main(argv) == 2
    diag = _diagnostic(capsys)
    assert diag["type"] == "ValidationError"
    assert diag["message"].startswith("dt = 800.0")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["residue", "--h=1e-6"], ["residue", "--h=5e-7"],
                                  ["residue", "--d=2", "--h=1e-6"],
                                  ["eigendist", "--d=2", "--h=1e-9"]])
def test_small_h_runs_pass_their_pole_and_root_guards(tmp_path, argv):
    # the guards are in w = lambda/h units; the residue circle's nodes sit
    # eps*h = 1e-8 from the pole at h = 1e-6, and each residue is h times
    # its h = 1 value, so its contour error is measured against h
    out = tmp_path / "out"
    assert cli.main(argv + [f"--output-dir={out}"]) == 0
    if argv[0] == "residue":
        h = float(argv[-1].split("=")[1])
        (csv_path,) = out.glob("*-residues.csv")
        lines = csv_path.read_text().splitlines()
        col = lines[0].split(",").index("abs_diff")
        assert max(float(row.split(",")[col]) for row in lines[1:]) <= 2e-14 * h


@pytest.mark.parametrize("sub", ["residue", "eigendist"])
def test_runs_at_a_large_h_pass_their_gates(tmp_path, sub):
    # residues and eigen-residuals scale as h, and so do the gates' floors: at
    # h = 1e12 the residue parity zero (k, j) = (0, 1) has a contour value of
    # 3e-18 h, and the eigen-residuals reach 2e-16 h
    assert cli.main([sub, "--h=1e12", f"--output-dir={tmp_path}"]) == 0


@pytest.mark.parametrize("argv", [["residue", "--s=1"], ["residue", "--s=-1.5"],
                                  ["eigendist", "--n-te=1"]])
def test_abbreviated_options_exit_2(tmp_path, capsys, argv):
    # residue has no --s, which argparse would otherwise expand to --seed
    with pytest.raises(SystemExit) as stop:
        cli.main(argv + [f"--output-dir={tmp_path}"])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in _diagnostic(capsys)["message"]
    assert not any(tmp_path.iterdir())


# one small run per subcommand
SMALL_RUNS = {
    "roots": [],
    "eigendist": ["--n-test=1"],
    "residue": ["--j-max=0"],
    "resolvent": ["--n-r=1024", "--n-x=5"],
    "escape": ["--n-theta=16", "--n-phi=16"],
    "flow": ["--t-max=1"],
    "correlate": ["--n=200", "--t-max=1"],
}


def _artifacts(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def _diagnostic(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("sub", sorted(SMALL_RUNS))
def test_manifest_fed_back_as_config_reproduces_every_artifact(tmp_path, sub):
    out = tmp_path / "out"
    assert cli.main([sub, *SMALL_RUNS[sub], f"--output-dir={out}"]) == 0
    assert _manifest(out)["manifest"]["status"] == "ok"
    first = _artifacts(out)
    (manifest,) = (name for name in first if name.endswith("-manifest.ini"))
    config = tmp_path / "rerun.ini"
    config.write_bytes(first[manifest])
    for p in out.iterdir():
        p.unlink()
    assert cli.main([f"--config={config}"]) == 0
    assert _artifacts(out) == first


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads")
@pytest.mark.parametrize("sub", [
    pytest.param(sub, marks=pytest.mark.xfail(
        strict=True, reason="resolvent.csv depends on the BLAS thread count: the "
        "sums of _synthesis's dgemm and _series_eval's zgemm split by thread "
        "(the CHANGES.md FOUND line on OPENBLAS_NUM_THREADS)"))
    if sub == "resolvent" else sub for sub in cli.SCHEMAS])
def test_default_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, sub):
    # the config hash names no thread count, so two runs with one hash must
    # write the same bytes; each run writes to ./out of its own directory, so
    # the manifests agree as well
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        (tmp_path / threads).mkdir()
        subprocess.run([sys.executable, "-m", "cuspflow.cli", "--output-dir=out", sub],
                       cwd=tmp_path / threads, env=env, capture_output=True, check=True)
        runs.append(_artifacts(tmp_path / threads / "out"))
    assert runs[0] == runs[1]


def _shift_report(out):
    (path,) = out.glob("*-shift_identity.json")
    return json.loads(path.read_text())


@pytest.mark.parametrize("h", ["0.5", "1", "2"])
def test_resolvent_shift_identity_holds_for_every_h(tmp_path, h):
    # the crossed root is the minus root of level 0 at w = -(s + d/2) = -1.8,
    # whatever h is: abscissas and levels are in w = lambda/h units
    out = tmp_path / "out"
    argv = ["resolvent", f"--h={h}", "--n-r=1024", "--n-x=5", f"--output-dir={out}"]
    assert cli.main(argv) == 0
    report = _shift_report(out)
    assert report["passed"] is True
    assert report["defect"] <= 1e-6
    (level,) = report["crossed_levels"]
    assert level["re"] == pytest.approx(-1.8, abs=1e-14)
    assert level["im"] == 0.0


def _resolvent_csv(out):
    (path,) = out.glob("*-resolvent.csv")
    header, *rows = path.read_text().splitlines()
    im = [i for i, name in enumerate(header.split(",")) if name.startswith("im_x=")]
    return [[row.split(",")[i] for i in im] for row in rows]


@pytest.mark.parametrize("h", ["0.5", "1", "2"])
def test_resolvent_at_the_benchmark_grid_writes_real_columns(tmp_path, h):
    # n_r = 4096 and n_x = 41 are the defaults the benchmark runs at; the
    # real input folds each line onto eta > 0, whose field is real.  Of the
    # 4096 grid rows, the 1835 with |r| <= r_window = 13.44 are written
    out = tmp_path / "out"
    assert cli.main(["resolvent", f"--h={h}", f"--output-dir={out}"]) == 0
    assert _shift_report(out)["defect"] <= 1e-12
    im = _resolvent_csv(out)
    assert len(im) == 1835 and len(im[0]) == 3
    assert all(cell == "0.0" for row in im for cell in row)


def test_resolvent_at_complex_s_writes_imaginary_columns(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["resolvent", "--s=1.3+0.25j", f"--output-dir={out}"]) == 0
    assert any(cell != "0.0" for row in _resolvent_csv(out) for cell in row)


def test_resolvent_manifest_records_each_line_resolution(tmp_path):
    # r_window = 11.2 panels / height = 13.44 at the defaults, where both
    # lines resolve their truncation tail
    for extra, names in (([], ("rho", "rho_prime")), (["--rho-prime="], ("rho",))):
        out = tmp_path / str(len(names))
        assert cli.main(["resolvent", *extra, f"--output-dir={out}"]) == 0
        man = _manifest(out)["manifest"]
        keys = {k for k in man if k.endswith(("_r_window", "_contour_tail_rel", "_tail_ok"))}
        assert keys == {f"tolerance_{name}_{key}" for name in names
                        for key in ("r_window", "contour_tail_rel", "tail_ok")}
        for name in names:
            assert float(man[f"tolerance_{name}_r_window"]) == pytest.approx(13.44, rel=1e-12)
            assert float(man[f"tolerance_{name}_contour_tail_rel"]) <= 1e-9
            assert man[f"tolerance_{name}_tail_ok"] == "true"


def test_resolvent_without_rho_prime_writes_the_same_line(tmp_path):
    # the default run evaluates the rho line inside shift_identity; an empty
    # --rho-prime evaluates it alone and skips the identity
    lines = {}
    for name, extra in (("default", []), ("alone", ["--rho-prime="])):
        out = tmp_path / name
        assert cli.main(["resolvent", *extra, f"--output-dir={out}"]) == 0
        (csv_path,) = out.glob("*-resolvent.csv")
        lines[name] = csv_path.read_bytes()
        reports = list(out.glob("*-shift_identity.json"))
        assert len(reports) == (name == "default")
    assert lines["alone"] == lines["default"]


def test_resolvent_counts_a_coincident_root_pair_once(tmp_path):
    # s = -1, d = 1: w = 0.5 carries the plus root of level 1 and the minus
    # root of level 0; the contour crosses one location, so one residue
    out = tmp_path / "out"
    argv = ["resolvent", "--s=-1.0", "--rho=0.2", "--rho-prime=0.8",
            "--n-r=1024", "--n-x=5", f"--output-dir={out}"]
    assert cli.main(argv) == 0
    report = _shift_report(out)
    assert report["passed"] is True
    assert report["crossed_levels"] == [{"re": 0.5, "im": 0.0}]


def test_resolvent_encloses_crossed_roots_closer_than_the_default_radius(tmp_path):
    # s = -1.005, d = 1: the crossed roots sit at w = 0.495 and 0.505, 0.01
    # apart, so a circle of the default radius 1e-2 would enclose both
    out = tmp_path / "out"
    argv = ["resolvent", "--s=-1.005", "--rho=0.2", "--rho-prime=0.8",
            "--n-r=1024", "--n-x=5", f"--output-dir={out}"]
    assert cli.main(argv) == 0
    report = _shift_report(out)
    assert report["passed"] is True
    assert report["defect"] <= 1e-6
    assert [lvl["re"] for lvl in report["crossed_levels"]] == pytest.approx(
        [0.495, 0.505], abs=1e-12)


@pytest.mark.parametrize("s", ["-1.00001", "-1.0000075", "-1.000005", "-1.000001"])
def test_resolvent_crossed_roots_2e_5_to_2e_6_apart_exit_0(tmp_path, s):
    # the crossed roots sit 2 (1 + s) apart around w = 0.5: 2e-5 down to 2e-6
    out = tmp_path / "out"
    argv = ["resolvent", f"--s={s}", "--rho=0.2", "--rho-prime=0.8",
            "--n-r=1024", "--n-x=5", f"--output-dir={out}"]
    assert cli.main(argv) == 0
    report = _shift_report(out)
    assert len(report["crossed_levels"]) == 2
    assert report["defect"] <= 1e-9


# d = 1, h = 1: at s0 = -(1 + n + p)/2 the plus root of level n meets the minus
# root of level p at w0 = (n - p)/2; the contours run 0.3 either side of w0
_COLLISIONS = [(-1.0, 0.5), (-1.5, 0.0), (-1.5, 1.0), (-2.0, 0.5), (-2.0, 1.5)]


@settings(settings.get_profile("reproducible"), max_examples=12, deadline=None)
@given(collision=st.sampled_from(_COLLISIONS), exponent=st.floats(-10.0, -3.0),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_resolvent_near_root_collisions_exits_0(tmp_path_factory, collision,
                                                exponent, angle):
    s0, w0 = collision
    s = s0 + 10.0**exponent * complex(math.cos(angle), math.sin(angle))
    out = tmp_path_factory.mktemp("out")
    argv = ["resolvent", f"--s={s.real!r}{s.imag:+.17g}j", f"--rho={w0 - 0.3}",
            f"--rho-prime={w0 + 0.3}", "--n-r=1024", "--n-x=5",
            f"--output-dir={out}"]
    assert cli.main(argv) == 0
    assert _shift_report(out)["defect"] <= 1e-6


def test_cli_imports_no_private_name_from_the_package():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("cuspflow"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# Definitions that no code in src/ references and that stay, with the reason.
_UNREFERENCED_BY_DESIGN = {
    "RootTable.visible": "library API: the visible levels of the paper's "
                         "continuation, read at one s",
    "EscapeData.G": "library API: the escape function in cusp coordinates; "
                    "the benchmark's traced run wraps it by name",
    "WeightField.derivative": "library API: the weight's flow difference at "
                              "caller-given directions; the benchmark's traced "
                              "run wraps it by name",
    "_Parser.error": "argparse calls it; it overrides ArgumentParser.error",
}


def _code_references(tree) -> tuple:
    """(names, attributes) that code refers to.  Names are bare identifiers
    and imported names; attributes are ``obj.name`` references and string
    constants passed to getattr, setattr, hasattr or delattr.  Words in
    docstrings, comments and other strings do not count."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) in (
                "getattr", "setattr", "hasattr", "delattr", "__setattr__"):
            attrs.update(arg.value for arg in node.args
                         if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    return names, attrs


def test_every_package_definition_is_used_in_src_or_exported():
    # a function, class or method that no code in src/ references and that no
    # public module's __all__ exports is run by tests alone; it belongs in
    # tests/ (or nowhere), not in the package.  This also keeps any helper of
    # a replaced code path (such as the one-lambda pairing in hadamard) from
    # staying behind.  A method is referenced only as an attribute (obj.name):
    # a local variable of the same name does not use it.  A private module's
    # __all__ lists what the package shares between its modules, not library
    # API, so it exports nothing here.
    exported, defined, names, attrs = set(), {}, set(), set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        public = path.stem == "__init__" or not path.stem.startswith("_")
        tree_names, tree_attrs = _code_references(tree)
        names |= tree_names
        attrs |= tree_attrs
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        defined[item] = f"{node.name}.{item.name}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node, node.name)
            elif public and isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
    unused = sorted(qualname for node, qualname in defined.items()
                    if node.name not in (attrs if "." in qualname else names | attrs)
                    and node.name not in exported
                    and not re.fullmatch(r"__\w+__", node.name))
    assert unused == sorted(_UNREFERENCED_BY_DESIGN)


# Dataclass fields that no code in src/ or tests/ reads by attribute and that
# stay, with the reason.
_UNREAD_FIELDS_BY_DESIGN = {
    "EscapeCertificate.notes": "dataclasses.asdict writes it to certificate.json",
    "_Gate.check": "dataclasses.asdict writes it to the exit-3 stderr line",
}


def _attribute_reads(tree) -> set:
    """Names that code reads as attributes: ``obj.name`` in a load, and string
    constants passed to getattr or hasattr."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("getattr", "hasattr"):
            reads.update(arg.value for arg in node.args
                         if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    return reads


def _dataclass_fields(tree) -> list:
    """(Class.field, field) of every annotated field of a @dataclass class."""
    return [(f"{node.name}.{item.target.id}", item.target.id)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and any(
                getattr(dec, "id", getattr(getattr(dec, "func", None), "id", None)) == "dataclass"
                for dec in node.decorator_list)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def test_every_dataclass_field_is_read():
    # a field that nothing reads by attribute is data carried for no one; a
    # write or a constructor keyword does not read it
    package = Path(cli.__file__).parent
    fields, reads = [], set()
    for path in sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads |= _attribute_reads(tree)
        if path.parent == package:
            fields += _dataclass_fields(tree)
    unread = sorted(qualname for qualname, name in fields if name not in reads)
    assert unread == sorted(_UNREAD_FIELDS_BY_DESIGN)


def test_perfbench_span_targets_resolve():
    # the traced benchmark run wraps these attributes by name; a rename in the
    # package must fail here, not only in the benchmark's own smoke test
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for _, module, attr_path, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"{module}.{attr_path}"


def test_the_cli_loads_the_flow_modules_only_when_a_run_needs_them():
    # the package resolves its exports on first access: importing the CLI
    # (every subcommand's start) loads neither flow.py nor geometry.py, and the
    # escape stage loads geometry.py but not flow.py; every __all__ name still
    # resolves, each from the module that defines or re-exports it
    script = (
        "import sys\n"
        "import cuspflow.cli\n"
        "watched = ('cuspflow.flow', 'cuspflow.geometry')\n"
        "loaded = lambda: sorted(m for m in watched if m in sys.modules)\n"
        "print(loaded())\n"
        "import cuspflow.escape\n"
        "print(loaded())\n"
        "import cuspflow\n"
        "print(all(getattr(cuspflow, name) is not None for name in cuspflow.__all__))\n"
        "print(cuspflow.PhasePoint is cuspflow.geometry.PhasePoint, "
        "cuspflow.correlate is cuspflow.flow.correlate)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=env).stdout.splitlines()
    assert out == ["[]", "['cuspflow.geometry']", "True", "True True"]
    import cuspflow
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        cuspflow.nonexistent


def test_out_of_bound_parameter_exits_2_naming_key_and_value(tmp_path, capsys):
    assert cli.main(["roots", "--h=0", f"--output-dir={tmp_path}"]) == 2
    diag = _diagnostic(capsys)
    assert diag["error"] == "validation"
    assert "h must lie in (0, inf), got 0.0" in diag["message"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("eps, code", [("0.17", 2), ("0.166", 0)])
def test_residue_eps_bound_is_the_pole_spacing_limit(tmp_path, capsys, eps, code):
    # the circle of radius eps*h must keep the next pole, h/2 away, beyond 3
    # radii: eps < 1/6 at every h, refused by the schema naming the key
    assert cli.main(["residue", f"--eps={eps}", f"--output-dir={tmp_path}"]) == code
    if code:
        assert _diagnostic(capsys)["message"] == f"eps must lie in (0, 1/6), got {eps}"


def test_eigendist_twist_exits_2_as_an_unknown_key(tmp_path, capsys):
    # south-branch eigendistributions exist only at A = 0, so no twist is settable
    with pytest.raises(SystemExit) as stop:
        cli.main(["eigendist", "--twist=0.5", f"--output-dir={tmp_path}"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --twist=0.5" in _diagnostic(capsys)["message"]
    config = tmp_path / "eigendist.ini"
    config.write_text("[eigendist]\ntwist = 0.5\n")
    assert cli.main([f"--config={config}", f"--output-dir={tmp_path / 'out'}", "eigendist"]) == 2
    assert _diagnostic(capsys)["message"] == "unknown key 'twist' in section [eigendist]"
    assert not (tmp_path / "out").exists()


def test_escape_config_with_n_alpha_exits_2_as_an_unknown_key(tmp_path, capsys):
    # the angle fiber is not sampled, so no setting resolves it
    config = tmp_path / "escape.ini"
    config.write_text("[escape]\nn_alpha = 8\n")
    assert cli.main([f"--config={config}", f"--output-dir={tmp_path / 'out'}", "escape"]) == 2
    assert _diagnostic(capsys)["message"] == "unknown key 'n_alpha' in section [escape]"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["a_kind", "b_value"])
def test_correlate_config_with_an_observable_kind_exits_2_as_an_unknown_key(tmp_path, capsys,
                                                                            key):
    # a constant observable is a bump of amplitude 0; no alias maps the old keys
    config = tmp_path / "correlate.ini"
    config.write_text(f"[correlate]\n{key} = 1\n")
    assert cli.main([f"--config={config}", f"--output-dir={tmp_path / 'out'}", "correlate"]) == 2
    assert _diagnostic(capsys)["message"] == f"unknown key {key!r} in section [correlate]"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named, code", [
    (["flow", "--u0=1.0000000001"], "u0 must be a unit vector, |u0| = 1.0000000001", 2),
    (["roots", "--n-max=171"], "jet order 171 is past 170", 2),
    (["eigendist", "--n-max=171", "--n-test=1"], "jet order 171 is past 170", 2),
    (["roots", "--s=nan"], "roots.s: 'nan'", 2),
    (["roots", "--s=inf"], "roots.s: 'inf'", 2),
    (["roots", "--twist=nan"], "roots.twist: 'nan'", 2),
    (["eigendist", "--s=nan"], "eigendist.s: 'nan'", 2),
    (["resolvent", "--s=nan"], "resolvent.s: 'nan'", 2),
    (["resolvent", "--r0=nan"], "resolvent.r0: 'nan'", 2),
    (["flow", "--r0=nan"], "flow.r0: 'nan'", 2),
    (["flow", "--theta0=nan"], "flow.theta0: 'nan'", 2),
    (["roots", "--s=1e308"], "at s=(1e+308+0j), A=0.0 is not finite", 2),
    (["roots", "--twist=1e308"], "at s=0j, A=1e+308 is not finite", 2),
    (["eigendist", "--s=1e300", "--n-test=1"], "at lambda=(-1e+300+0j) leaves the float range", 3),
    (["flow", "--r0=1e300"], "log-height r = 1e+300 is past 709.78", 2),
    (["correlate", "--a-radius=800"], "bump radius 800.0 is past 709.78", 2),
    (["escape", "--step=1e-9"], "step = 1e-09 puts 2e+11 nodes", 2),
    (["escape", "--step=1e-300"], "step = 1e-300 puts 2e+302 nodes", 2),
], ids=["flow-u0", "roots", "eigendist", "roots-s-nan", "roots-s-inf", "roots-twist-nan",
        "eigendist-s-nan", "resolvent-s-nan", "resolvent-r0-nan", "flow-r0-nan",
        "flow-theta0-nan", "roots-s-1e308", "roots-twist-1e308", "eigendist-s-1e300",
        "flow-r0-1e300", "correlate-radius-800", "escape-step-1e-9", "escape-step-1e-300"])
def test_values_past_what_the_arithmetic_holds_exit_2_naming_them(tmp_path, capsys,
                                                                  argv, named, code):
    # a unit vector the phase point would reject, factorials, exponentials and
    # node counts past what floats and memory hold, and non-finite values:
    # each is an invalid input, not an internal error; a pairing whose tail
    # leaves the float range is a tolerance failure (exit 3)
    assert cli.main(argv + [f"--output-dir={tmp_path}"]) == code
    diag = _diagnostic(capsys)
    assert (diag["error"], diag["type"]) == (
        ("validation", "ValidationError") if code == 2 else ("tolerance", "ToleranceError"))
    assert named in diag["message"]
    assert not any(tmp_path.iterdir())


_FLOAT_KEYS = [(sub, param.key) for sub, schema in cli.SCHEMAS.items() for param in schema
               if param.typ in ("float", "complex", "ofloat", "floats")]


@pytest.mark.parametrize("sub, key", _FLOAT_KEYS, ids=[f"{s}-{k}" for s, k in _FLOAT_KEYS])
def test_every_float_key_rejects_non_finite_values(tmp_path, capsys, sub, key):
    for text in ("nan", "inf", "-inf", "1e309"):
        assert cli.main([sub, f"--{key.replace('_', '-')}={text}",
                         f"--output-dir={tmp_path}"]) == 2
        diag = _diagnostic(capsys)
        assert diag["type"] == "ValidationError"
        assert f"invalid value for {sub}.{key}: {text!r}" in diag["message"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, named", [
    (["resolvent", "--poly=1e308"], "line at rho=-2.3 is not finite on 1835 of its rows"),
    (["resolvent", "--h=1e-300"], "line at rho=-2.3 is not finite on 267 of its rows, "
                                  "r=-13.4326171875 to r=-9.5361328125"),
    (["correlate", "--n=200", "--t-max=1", "--a-amplitude=1e308"],
     "the correlation at t=0.0 is inf"),
], ids=["resolvent-poly", "resolvent-h", "correlate-amplitude"])
def test_non_finite_results_exit_3_naming_the_abscissa_or_time(tmp_path, capsys, argv, named):
    # these used to exit 0 with NaN or inf cells; numpy's overflow warnings
    # are silenced, so the diagnostic is the one line on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv + [f"--output-dir={tmp_path}"]) == 3
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    diag = json.loads(err[0])
    assert (diag["error"], diag["type"]) == ("tolerance", "ToleranceError")
    assert named in diag["message"]
    assert not any(tmp_path.iterdir())


def _nan_theta_at_t_max(monkeypatch):
    # Python's max(x, nan) is x: a NaN cross-section point at t_max must
    # still fail the semigroup gate
    import cuspflow.flow as fl
    from cuspflow.geometry import PhasePoint

    exact = fl.flow_cusp_exact

    def nan_at_t_max(p0, t):
        q = exact(p0, t)
        return PhasePoint(q.r, q.theta * math.nan, q.phi, q.u) if t == 2.0 else q

    monkeypatch.setattr(fl, "flow_cusp_exact", nan_at_t_max)


def test_flow_gates_fail_on_a_nan_defect(tmp_path, capsys, monkeypatch):
    _nan_theta_at_t_max(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["flow", "--t-max=2", f"--output-dir={out}"]) == 3
    status = _manifest(out)["manifest"]["status"]
    assert status == "tolerance_failure: semigroup_defect"
    # the failed gate carries the NaN itself, not a finite stand-in
    [gate] = json.loads(capsys.readouterr().err)["gates"]
    assert gate["name"] == "semigroup_defect" and math.isnan(gate["value"])


@pytest.mark.parametrize("argv", [
    ["--phi0=0", "--u0=-1"], ["--phi0=3.141592653589793", "--u0=-1"],
    ["--d=2", "--phi0=0", "--u0=0,1"], ["--d=2", "--phi0=3.141592653589793", "--u0=0.6,-0.8"],
], ids=["d1-north", "d1-south", "d2-north", "d2-south"])
def test_flow_at_a_pole_passes_its_azimuth_gate_for_any_u0(tmp_path, argv):
    # at a pole PhasePoint stores the azimuth as e_1; the drift used to be
    # measured from the configured u0 and read 2.0 or 1.0 here, failing the run
    out = tmp_path / "out"
    assert cli.main(["flow", *argv, f"--output-dir={out}"]) == 0
    (path,) = out.glob("*-conservation.json")
    assert json.loads(path.read_text())["azimuth_drift"] == 0.0


@pytest.mark.parametrize("argv, failure, checks, patch", [
    (["eigendist", "--s=-1.5"], "eigen_residual", [""], None),
    (["resolvent", "--m=1"], "shift_identity", [""], None),
    (["escape", "--r-small=1e-3"], "escape_certificate", ["i: threshold <= margin"], None),
    # the bump a integral's error fails, not the limit error it propagates into
    (["correlate", "--n=200", "--t-max=1", "--a-radius=18.5"], "mixing_limit_error", ["a"],
     None),
    (["flow", "--t-max=2"], "semigroup_defect", [""], _nan_theta_at_t_max),
], ids=["eigendist", "resolvent", "escape", "correlate", "flow-nan"])
def test_a_failed_gate_exits_3_and_stderr_lists_only_the_failed_gates(
        tmp_path, capsys, monkeypatch, argv, failure, checks, patch):
    if patch is not None:
        patch(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(argv + [f"--output-dir={out}"]) == 3
    assert _manifest(out)["manifest"]["status"] == f"tolerance_failure: {failure}"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    diag = json.loads(err[0])
    assert diag["error"] == "tolerance"
    assert [gate["check"] for gate in diag["gates"]] == checks
    assert all(not gate["value"] <= gate["bound"] for gate in diag["gates"])
    assert diag["failures"] == sorted({gate["name"] for gate in diag["gates"]}) == [failure]


def test_unknown_flag_exits_2_with_one_json_diagnostic_line(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["escape", "--bogus=1"])
    assert stop.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    diag = json.loads(err[0])
    assert (diag["error"], diag["type"]) == ("validation", "ArgumentError")
    assert "--bogus=1" in diag["message"]


def test_every_parameter_type_has_one_parser_and_one_formatter():
    # a type with a parser or a formatter but no parameter is code nothing runs
    schema_types = {param.typ for schema in cli.SCHEMAS.values() for param in schema}
    assert set(cli._PARSERS) == schema_types
    assert set(cli._FORMATTERS) == schema_types


@pytest.mark.parametrize("flag", ["--t=800", "--t-prime=800"])
def test_escape_window_past_the_float_range_exits_2(tmp_path, capsys, flag):
    argv = ["escape", "--n-theta=16", "--n-phi=16", flag,
            f"--output-dir={tmp_path}"]
    assert cli.main(argv) == 2
    diag = _diagnostic(capsys)
    assert diag["type"] == "ValidationError"
    assert "T = 800.0" in diag["message"]
    assert not any(tmp_path.iterdir())


def test_escape_symbol_window_400_gives_finite_constants(tmp_path):
    # e^400 is a float but its square is not
    out = tmp_path / "out"
    argv = ["escape", "--n-theta=16", "--n-phi=16",
            "--t-prime=400", f"--output-dir={out}"]
    assert cli.main(argv) == 0
    (cert_path,) = out.glob("*-certificate.json")
    constants = json.loads(cert_path.read_text())["constants"]
    assert math.isfinite(constants["c_f"]) and math.isfinite(constants["R"])


def test_contour_on_a_root_exits_2(tmp_path, capsys):
    # rho = -1.8 is the abscissa of the minus root of level 0
    argv = ["resolvent", "--rho=-1.8", "--n-r=1024", "--n-x=5",
            f"--output-dir={tmp_path}"]
    assert cli.main(argv) == 2
    assert _diagnostic(capsys)["type"] == "ContourOnRootError"


@pytest.mark.parametrize("n_r", ["64", "128", "256", "512"])
def test_under_resolved_radial_grid_exits_2_naming_the_floor(tmp_path, capsys, n_r):
    # the r-grid step 2 r_span / n_r aliases the Gaussian input's transform
    # onto the contour; at the defaults the identity failed with exit 3 here
    assert cli.main(["resolvent", f"--n-r={n_r}", "--n-x=5", f"--output-dir={tmp_path}"]) == 2
    diag = _diagnostic(capsys)
    assert diag["type"] == "ValidationError"
    assert f"n_r={n_r} under-resolves" in diag["message"]
    assert "the smallest n_r that works is 583" in diag["message"]
    assert not any(tmp_path.iterdir())


def test_radial_grid_at_600_resolves_the_shift_identity(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["resolvent", "--n-r=600", "--n-x=5", f"--output-dir={out}"]) == 0
    assert _shift_report(out)["defect"] <= 1e-12


def test_radial_grid_floor_follows_height_not_rho_or_r0(tmp_path, capsys):
    # height 20 moves the floor to ceil(30 (20 + sqrt(16 ln 1e12)) / pi) = 392;
    # another contour line and a shifted Gaussian leave it there
    argv = ["resolvent", "--rho=-1.0", "--rho-prime=-0.4", "--r0=1.5", "--height=20",
            "--n-x=5"]
    assert cli.main(argv + ["--n-r=391", f"--output-dir={tmp_path / 'low'}"]) == 2
    assert "the smallest n_r that works is 392" in _diagnostic(capsys)["message"]
    out = tmp_path / "out"
    assert cli.main(argv + ["--n-r=392", f"--output-dir={out}"]) == 0
    assert _shift_report(out)["defect"] <= 1e-6


@pytest.mark.parametrize("flag,need", [("--panels=24", 36), ("--height=80", 72)])
def test_contour_window_narrower_than_the_identity_exits_2(tmp_path, capsys, flag, need):
    # r_window = 11.2 panels / height = 6.72 at either flag, short of the
    # identity's |r| <= 10 (the defect was about 1e-5, exit 3); the message
    # names ceil(10 height / 11.2), and that many panels pass
    argv = ["resolvent", flag, "--n-r=1024", "--n-x=5"]
    assert cli.main(argv + [f"--output-dir={tmp_path / 'low'}"]) == 2
    diag = _diagnostic(capsys)
    assert diag["type"] == "ValidationError"
    assert "resolves |r| <= 6.72" in diag["message"]
    assert diag["message"].endswith(f"needs panels >= {need}")
    assert not any(tmp_path.iterdir())
    out = tmp_path / "out"
    assert cli.main(argv + [f"--panels={need}", f"--output-dir={out}"]) == 0
    assert _shift_report(out)["defect"] <= 1e-6
