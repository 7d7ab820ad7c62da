"""Configuration-driven experiment runner.

Every computation exposed by this package can be driven from the command
line through a small set of subcommands:

``roots``
    Indicial root tables for the model operator, with the jet-matrix
    eigenvalue cross-check.
``eigendist``
    Pairing tables of the eigendistributions at the indicial roots against
    smooth test functions, with weak eigen-equation residuals.
``resolvent``
    Mode resolvents on vertical contour lines, optionally checking the
    contour-shift identity (difference of two lines equals the sum of the
    residues crossed).  Abscissas and the crossed levels written to
    ``shift_identity.json`` are in w = lambda / h units, and coincident
    roots count as one crossed level.
``residue``
    Regularized-pairing residues compared against their closed forms.
``escape``
    Assembles the escape function on the reduced phase grid and emits the
    verification certificate.
``flow``
    Exact geodesic trajectory dumps with conservation reports.
``correlate``
    Monte Carlo correlation functions on the quotient surface plus a
    Laplace-transform probe.

Configs are flat INI files with one section per subcommand plus a ``[run]``
section (subcommand, output directory, seed).  Command-line flags override
file values.  Every run writes its artifacts atomically at the end, each
file name prefixed by a hash of the resolved configuration; the
``*-manifest.ini`` artifact is itself a valid config that reproduces the
run.  The hash covers the subcommand, the seed and the subcommand's
parameters -- not the output directory -- so the same experiment keeps its
identity wherever it is written.

Exit codes: 0 success, 2 invalid configuration, 3 tolerance failure,
4 internal error.  Diagnostics are emitted as single-line JSON on stderr.
Non-finite values are rejected where they are parsed; a computation that
leaves the float range raises a typed error or fails its gate.

A run's gates, records (name, value, bound) passing when value <= bound (a
NaN fails), alone decide its manifest ``status``; a failed gate exits 3 with
a stderr line listing the failed names as ``failures`` and the failed records
as ``gates``, each with the ``check`` that tells apart gates sharing a name.
The manifest's ``tolerance_*`` values are reported whether they gate or not.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ContourOnRootError,
    DomainError,
    InvalidEnclosureError,
    NearSingularError,
    PoleError,
    ToleranceError,
    UnsupportedDimensionError,
    ValidationError,
)

__all__ = ["ExperimentConfig", "run", "main", "build_parser"]

_CONFIG_ERRORS = (
    ValidationError,
    ConfigurationError,
    DomainError,
    UnsupportedDimensionError,
    NearSingularError,
    ContourOnRootError,
    InvalidEnclosureError,
    PoleError,
)

_HASH_PREFIX_LEN = 12


# ---------------------------------------------------------------------------
# value parsing / deterministic formatting
# ---------------------------------------------------------------------------

def _fmt_float(v) -> str:
    return repr(float(v))


def _fmt_complex(v) -> str:
    c = complex(v)
    if c.imag == 0.0:
        return _fmt_float(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"{_fmt_float(c.real)}{sign}{_fmt_float(abs(c.imag))}j"


def _finite(v):
    if not cmath.isfinite(v):
        raise ValueError(f"{v!r} is not finite")
    return v


_PARSERS = {
    "int": lambda t: int(t.strip(), 10),
    "float": lambda t: _finite(float(t)),
    "complex": lambda t: _finite(complex(t.replace(" ", ""))),
    "ofloat": lambda t: None if t.strip() == "" else _finite(float(t)),
    "floats": lambda t: tuple(_finite(float(tok)) for tok in t.split(",") if tok.strip() != ""),
    "ints": lambda t: tuple(int(tok, 10) for tok in t.split(",") if tok.strip() != ""),
}

_FORMATTERS = {
    "int": lambda v: str(int(v)),
    "float": _fmt_float,
    "complex": _fmt_complex,
    "ofloat": lambda v: "" if v is None else _fmt_float(v),
    "floats": lambda v: ",".join(_fmt_float(x) for x in v),
    "ints": lambda v: ",".join(str(int(x)) for x in v),
}


@dataclass(frozen=True)
class _Param:
    """One subcommand parameter; ``bound`` is the interval its value (each
    entry, for a list) must lie in, written like "(0, 0.2]"."""

    key: str
    typ: str
    default: object
    help: str
    bound: str | None = None


_POS = "(0, inf)"
_NONNEG = "[0, inf)"
_BOUND_NAMES = {"pi": math.pi, "pi/2": math.pi / 2.0, "1/6": 1.0 / 6.0}


def _in_bound(bound: str, value) -> bool:
    ends = (end.strip() for end in bound[1:-1].split(","))
    lo, hi = (_BOUND_NAMES[end] if end in _BOUND_NAMES else float(end) for end in ends)
    above = lo < value if bound[0] == "(" else lo <= value
    below = value < hi if bound[-1] == ")" else value <= hi
    return above and below


def _require(key: str, value, bound: str) -> None:
    entries = value if isinstance(value, tuple) else (value,)
    if not all(_in_bound(bound, v) for v in entries):
        raise ValidationError(f"{key} must lie in {bound}, got {value!r}")


# ---------------------------------------------------------------------------
# subcommand parameter schemas
# ---------------------------------------------------------------------------

SCHEMAS: dict[str, tuple[_Param, ...]] = {
    "roots": (
        _Param("d", "int", 1, "cusp rank (cross-section dimension)", "[1, inf)"),
        _Param("h", "float", 1.0, "model scaling constant", _POS),
        _Param("s", "complex", 0.0 + 0.0j, "spectral parameter"),
        _Param("n_max", "int", 3, "largest root level to enumerate", _NONNEG),
        _Param("twist", "float", 0.0, "constant bundle twist added to the operator"),
    ),
    "eigendist": (
        _Param("d", "int", 1, "cusp rank", "[1, inf)"),
        _Param("h", "float", 1.0, "model scaling constant", _POS),
        _Param("s", "complex", 0.3 + 0.0j, "spectral parameter"),
        _Param("n_max", "int", 2, "largest root level", _NONNEG),
        _Param("n_test", "int", 3, "number of random test functions", "[1, inf)"),
    ),
    "resolvent": (
        _Param("d", "int", 1, "cusp rank", "[1, inf)"),
        _Param("h", "float", 1.0, "model scaling constant", _POS),
        _Param("s", "complex", 1.3 + 0.0j, "spectral parameter"),
        _Param("rho", "float", -2.3, "real part of the first contour line"),
        _Param("rho_prime", "ofloat", -1.3,
               "second contour line for the shift identity (empty to skip)"),
        _Param("height", "float", 40.0, "contour truncation height", _POS),
        _Param("panels", "int", 48, "quadrature panels per contour", "[4, inf)"),
        _Param("m", "int", 0, "input Fourier mode", _NONNEG),
        _Param("mu", "ints", (), "input monomial multi-index (default zeros)", _NONNEG),
        _Param("poly", "floats", (1.0,), "input polynomial coefficients"),
        _Param("r0", "float", 0.0, "center of the Gaussian radial factor"),
        _Param("r_span", "float", 30.0, "radial half-width of the transform grid; its rows "
               "with |r| <= r_window (in the manifest) are written", _POS),
        _Param("n_r", "int", 4096, "radial transform grid size", "[64, inf)"),
        _Param("x_lo", "float", -0.9, "lower end of the angular grid (x = cos phi)",
               "(-1, 1)"),
        _Param("x_hi", "float", 0.6, "upper end of the angular grid", "(-1, 1)"),
        _Param("n_x", "int", 41, "angular grid size", "[2, inf)"),
    ),
    "residue": (
        _Param("d", "int", 1, "cusp rank", "[1, inf)"),
        _Param("h", "float", 1.0, "model scaling constant", _POS),
        _Param("k_max", "int", 1, "largest angular degree", _NONNEG),
        _Param("j_max", "int", 2, "largest radial level", _NONNEG),
        _Param("eps", "float", 0.01, "contour radius around each pole over h; the next "
               "pole lies h/2 away and must stay beyond 3 radii", "(0, 1/6)"),
        _Param("n_nodes", "int", 24, "contour quadrature nodes", "[8, inf)"),
    ),
    "escape": (
        _Param("n_theta", "int", 32, "sphere colatitude resolution", "[2, inf)"),
        _Param("n_phi", "int", 32, "sphere azimuth resolution", "[2, inf)"),
        _Param("eps", "float", 0.15, "cone half-width", "(0, pi/2)"),
        _Param("delta", "float", 1e-3, "small-frequency cutoff scale", _POS),
        _Param("step", "float", 0.05, "flow quadrature step", _POS),
        _Param("t", "ofloat", None,
               "averaging window (empty: twice the transition time)", _POS),
        _Param("t_prime", "float", 2.0, "symbol averaging window", _POS),
        _Param("c_g_prime", "ofloat", None, "weight prefactor override", _POS),
        _Param("r_small", "ofloat", None, "small-scale radius override", _POS),
    ),
    "flow": (
        _Param("d", "int", 1, "cusp rank", "[1, inf)"),
        _Param("r0", "float", 0.0, "initial log-height"),
        _Param("theta0", "floats", (), "initial cross-section point (default zeros)"),
        _Param("phi0", "float", 1.2, "initial polar angle", "[0, pi]"),
        _Param("u0", "floats", (), "initial azimuthal direction (default first axis)"),
        _Param("t_max", "float", 20.0, "final time"),
        _Param("dt", "float", 0.1, "output time step", _POS),
    ),
    "correlate": (
        _Param("n", "int", 1000, "Monte Carlo sample count", "[2, inf)"),
        _Param("t_max", "float", 20.0, "final correlation time"),
        _Param("dt", "float", 0.1, "correlation time step", _POS),
        _Param("s_probe", "float", 0.05, "Laplace transform probe point", _POS),
        _Param("a_center_re", "float", 0.0, "first bump center, real part"),
        _Param("a_center_im", "float", 1.0, "first bump center, imaginary part", _POS),
        _Param("a_radius", "float", 0.8, "first bump radius", _POS),
        _Param("a_order", "int", 3, "first bump smoothness order", "[1, inf)"),
        _Param("a_amplitude", "float", 1.0, "first bump amplitude (0: the constant baseline)"),
        _Param("a_baseline", "float", 0.0, "first bump baseline (the constant at amplitude 0)"),
        _Param("b_center_re", "float", 0.2, "second bump center, real part"),
        _Param("b_center_im", "float", 1.2, "second bump center, imaginary part", _POS),
        _Param("b_radius", "float", 0.8, "second bump radius", _POS),
        _Param("b_order", "int", 3, "second bump smoothness order", "[1, inf)"),
        _Param("b_amplitude", "float", 1.0, "second bump amplitude (0: the constant baseline)"),
        _Param("b_baseline", "float", 0.0, "second bump baseline (the constant at amplitude 0)"),
    ),
}

_RUN_KEYS = ("output_dir", "seed", "subcommand")


def _schema_map(sub: str) -> dict[str, _Param]:
    return {p.key: p for p in SCHEMAS[sub]}


# ---------------------------------------------------------------------------
# configuration object
# ---------------------------------------------------------------------------

def _resolve_params(sub: str, params: dict) -> dict:
    """Fill data-dependent defaults so the stored config is explicit."""
    out = dict(params)
    if sub == "resolvent" and out["mu"] == ():
        out["mu"] = (0,) * out["d"]
    if sub == "flow":
        if out["theta0"] == ():
            out["theta0"] = (0.0,) * out["d"]
        if out["u0"] == ():
            out["u0"] = (1.0,) + (0.0,) * (out["d"] - 1)
    return out


def _validate_params(sub: str, p: dict) -> None:
    """Each value against its declared bound, then the checks across fields."""
    for param in SCHEMAS[sub]:
        if param.bound is not None and p[param.key] is not None:
            _require(param.key, p[param.key], param.bound)
    for key in ("mu", "theta0", "u0"):
        if key in p and len(p[key]) != p["d"]:
            raise ValidationError(
                f"{key} must have length d={p['d']}, got {p[key]!r}")
    if sub == "resolvent":
        if not p["poly"]:
            raise ValidationError("poly must have at least one coefficient, got ()")
        if not p["x_lo"] < p["x_hi"]:
            raise ValidationError(
                f"need x_lo < x_hi, got x_lo={p['x_lo']!r}, x_hi={p['x_hi']!r}")
        # the r-grid aliases frequency 2 pi/step onto the contour, where the Gaussian input's
        # transform is e^{-(2 pi/step - height)^2/4a} of its peak (rho, r0 scale both alike)
        alias = math.sqrt(4 * _GAUSSIAN_A * math.log(1e12))
        n_min = math.ceil(p["r_span"] * (p["height"] + alias) / math.pi)
        if p["n_r"] < n_min:
            raise ValidationError(
                f"n_r={p['n_r']} under-resolves the radial transform (step 2 r_span/n_r = "
                f"{2 * p['r_span'] / p['n_r']!r}); the smallest n_r that works is {n_min}")
    if sub in ("flow", "correlate") and p["t_max"] < p["dt"]:
        raise ValidationError(
            f"t_max must be at least dt, got t_max={p['t_max']!r}, dt={p['dt']!r}")
    if sub == "flow":
        from .geometry import UNIT_TOL

        norm = float(np.linalg.norm(p["u0"]))
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValidationError(f"u0 must be a unit vector, |u0| = {norm}")
        if p["t_max"] / p["dt"] > 2e5:
            raise ValidationError(
                f"too many output steps: t_max/dt = {p['t_max'] / p['dt']!r} > 2e5")


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully-resolved, validated run description."""

    subcommand: str
    output_dir: str
    seed: int
    params: dict

    def __post_init__(self):
        if self.subcommand not in SCHEMAS:
            raise ValidationError(
                f"unknown subcommand {self.subcommand!r}; expected one of "
                f"{sorted(SCHEMAS)}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed}")
        if not self.output_dir:
            raise ValidationError("output_dir must be nonempty")
        schema = _schema_map(self.subcommand)
        unknown = set(self.params) - set(schema)
        if unknown:
            raise ValidationError(
                f"unknown parameters for {self.subcommand}: {sorted(unknown)}")
        merged = {k: self.params.get(k, p.default) for k, p in schema.items()}
        object.__setattr__(self, "params", _resolve_params(self.subcommand, merged))

    def validate(self) -> None:
        _validate_params(self.subcommand, self.params)

    def canonical_text(self) -> str:
        """Deterministic INI text of the hashed part of the config."""
        schema = _schema_map(self.subcommand)
        lines = ["[run]", f"seed = {self.seed}",
                 f"subcommand = {self.subcommand}", "", f"[{self.subcommand}]"]
        for key in sorted(self.params):
            lines.append(f"{key} = {_FORMATTERS[schema[key].typ](self.params[key])}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def hash_prefix(self) -> str:
        return self.config_hash()[:_HASH_PREFIX_LEN]


def _parse_section_values(sub: str, raw: dict) -> dict:
    schema = _schema_map(sub)
    out = {}
    for key, text in raw.items():
        if key not in schema:
            raise ValidationError(f"unknown key {key!r} in section [{sub}]")
        try:
            out[key] = _PARSERS[schema[key].typ](text)
        except (ValueError, TypeError) as exc:
            raise ValidationError(
                f"invalid value for {sub}.{key}: {text!r} ({exc})") from exc
    return out


def _read_ini(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ValidationError(f"cannot parse config {path!r}: {exc}") from exc
    known = set(SCHEMAS) | {"run", "manifest"}
    unknown = set(cp.sections()) - known
    if unknown:
        raise ValidationError(f"unknown config sections: {sorted(unknown)}")
    return cp


def config_from_sources(subcommand=None, config_path=None, output_dir=None,
                        seed=None, overrides=None) -> ExperimentConfig:
    """Merge defaults, config file and command-line overrides."""
    file_run: dict = {}
    file_params_all: dict = {}
    if config_path is not None:
        cp = _read_ini(config_path)
        if cp.has_section("run"):
            for key, value in cp.items("run"):
                if key not in _RUN_KEYS:
                    raise ValidationError(f"unknown key {key!r} in section [run]")
                file_run[key] = value
        for sub in SCHEMAS:
            if cp.has_section(sub):
                file_params_all[sub] = dict(cp.items(sub))

    sub = subcommand or file_run.get("subcommand")
    if sub is None:
        raise ValidationError(
            "no subcommand given (pass one on the command line or set it "
            "in the [run] section)")
    if sub not in SCHEMAS:
        raise ValidationError(
            f"unknown subcommand {sub!r}; expected one of {sorted(SCHEMAS)}")

    params = _parse_section_values(sub, file_params_all.get(sub, {}))
    for key, text in (overrides or {}).items():
        params.update(_parse_section_values(sub, {key: text}))

    if seed is not None:
        seed_text = str(seed)
    else:
        seed_text = file_run.get("seed", "0")
    try:
        seed_value = int(seed_text, 10)
    except ValueError as exc:
        raise ValidationError(f"invalid seed: {seed_text!r}") from exc
    out_dir = output_dir or file_run.get("output_dir", "runs")
    return ExperimentConfig(subcommand=sub, output_dir=out_dir,
                            seed=seed_value, params=params)


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    """One manifest tolerance value, a Python float or bool."""
    return ("true" if v else "false") if isinstance(v, bool) else repr(v)


def _csv_text(header, rows) -> str:
    """CSV text of rows of Python ints and floats, whose ``str`` is the
    shortest round-trip form (what ``_cell`` writes for them)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(str, row)))
    return "\n".join(lines) + "\n"


def _nanmax(*values) -> float:
    """The largest value, NaN if any is (Python's max drops a NaN that is not first)."""
    return float(np.max(values))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_artifacts(output_dir: str, artifacts: dict) -> None:
    os.makedirs(output_dir, exist_ok=True)
    for name in sorted(artifacts):
        data = artifacts[name]
        payload = data.encode() if isinstance(data, str) else data
        tmp = os.path.join(output_dir, f".{name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, os.path.join(output_dir, name))


@functools.lru_cache(maxsize=None)
def _installed_version(dist: str) -> str:
    """Version of an installed distribution, read from its metadata without
    importing it; "unknown" when it is not installed.  Cached: parsing
    scipy's metadata takes about 4 ms, and every run writes a manifest."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version(dist)
    except PackageNotFoundError:
        return "unknown"


def _versions() -> dict:
    import platform

    return {
        "package_version": _installed_version("cuspflow"),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": _installed_version("scipy"),
    }


def _build_manifest(config: ExperimentConfig, tolerances: dict,
                    artifact_names, failures) -> str:
    """The hashed config with its output directory, then the [manifest]
    section: hash, versions, artifacts, status and tolerance values."""
    entries = {"config_hash": config.config_hash(), **_versions()}
    entries["artifacts"] = " ".join(sorted(artifact_names))
    entries["status"] = "tolerance_failure: " + " ".join(failures) if failures else "ok"
    entries.update({f"tolerance_{name}": _cell(v) for name, v in tolerances.items()})
    text = config.canonical_text().replace(
        "[run]\n", f"[run]\noutput_dir = {config.output_dir}\n", 1)
    return text + "\n[manifest]\n" + "".join(f"{k} = {entries[k]}\n" for k in sorted(entries))


# ---------------------------------------------------------------------------
# subcommand runners: each returns (artifacts, tolerances, gates), the
# artifacts keyed by bare file name
# ---------------------------------------------------------------------------

_GAUSSIAN_A = 4.0  # the resolvent input's radial factor e^{-a (r - r0)^2}
# each gate's bound, which the JSON artifacts write too; escape's are its certificate's, and
# mixing_limit_error's is of each bump's 2 pi |amplitude| (at order 3 exceeded from radius 18.27)
_BOUNDS = {"jet_deviation": 1e-9, "eigen_residual": 1e-6, "shift_identity": 1e-6,
           "residue_match": 1e-6, "azimuth_drift": 1e-10, "semigroup_defect": 1e-8,
           "log_height_defect": 1e-9, "mixing_limit_error": 1e-9}


@dataclass(frozen=True)
class _Gate:
    """A run's check, passing when value <= bound; ``check`` tells apart gates sharing a name."""

    name: str
    value: float
    bound: float
    check: str = ""

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


def _gaussian_radial(center: float):
    return lambda rr: np.exp(-_GAUSSIAN_A * (np.asarray(rr) - center) ** 2)


def _test_function_family(d: int, seed: int, count: int):
    from ._testfunctions import TestFunction, random_test_function

    out = []
    e1 = (1,) + (0,) * (d - 1)
    for i in range(count):
        rng = np.random.default_rng(seed + i)
        psi = random_test_function(d, rng, n_terms=3, max_deg=2)
        psi = psi + TestFunction.from_monomial(d, e1, 0.3, (0.8, -0.2))
        psi = psi + TestFunction.from_monomial(d, (0,) * d, 0.9, (1.0, 0.4))
        out.append(psi)
    return out


def _run_roots(config: ExperimentConfig):
    from .indicial import ModelOperator, indicial_roots, numeric_roots_jet

    p = config.params
    op = ModelOperator(d=p["d"], h=p["h"], A=p["twist"])
    roots = indicial_roots(op, p["s"], p["n_max"])
    rows = []
    for r in roots:
        lam = complex(r.lambda_at(p["s"]))
        rows.append([r.sign, r.n, lam.real, lam.imag, r.multiplicity,
                     r.jordan_index])
    csv = _csv_text(
        ["sign", "n", "re_lambda", "im_lambda", "multiplicity", "jordan_index"],
        rows)

    # cross-check: at each enumerated plus root the jet matrix must have the
    # pairing eigenvalue h*s
    hs = p["h"] * p["s"]
    deviation = 0.0
    for r in roots:
        if r.sign != 1:
            continue
        op_r = ModelOperator(d=p["d"], h=p["h"], lam=complex(r.lambda_at(p["s"])),
                             A=p["twist"])
        eigs = numeric_roots_jet(op_r, K=p["n_max"])
        deviation = _nanmax(deviation, np.min(np.abs(eigs - hs)))
    gates = [_Gate("jet_deviation", deviation, _BOUNDS["jet_deviation"])]
    return {"roots.csv": csv}, {"jet_deviation_max": deviation}, gates


def _run_eigendist(config: ExperimentConfig):
    from .hadamard import pair_distribution
    from .indicial import ModelOperator, eigendistribution, indicial_roots

    p = config.params
    op0 = ModelOperator(d=p["d"], h=p["h"])
    roots = indicial_roots(op0, p["s"], p["n_max"])
    psis = _test_function_family(p["d"], config.seed, p["n_test"])
    parts = [psi.transpose_parts(p["h"]) for psi in psis]  # the same at every root
    rows = []
    worst = 0.0
    for r in roots:
        lam = complex(r.lambda_at(p["s"]))
        op = ModelOperator(d=p["d"], h=p["h"], lam=lam)
        mu = (r.n,) + (0,) * (p["d"] - 1)
        rep = eigendistribution(r, op, mu)
        shifted = [psi.apply_model_transpose(p["h"], lam, parts=t) for psi, t in zip(psis, parts)]
        paired = pair_distribution(rep, psis + shifted).tolist()  # each psi, then its transpose
        for i, (base, moved) in enumerate(zip(paired, paired[len(psis):])):
            residual = abs(moved - complex(rep.eigenvalue) * base)
            rel = residual / (p["h"] * max(1.0, abs(base)))  # residuals scale as h
            worst = _nanmax(worst, rel)
            rows.append([r.sign, r.n, lam.real, lam.imag, i, base.real,
                         base.imag, rel])
    csv = _csv_text(
        ["sign", "n", "re_lambda", "im_lambda", "psi_index", "re_pairing",
         "im_pairing", "eigen_residual"], rows)
    gates = [_Gate("eigen_residual", worst, _BOUNDS["eigen_residual"])]
    return {"pairings.csv": csv}, {"eigen_residual_max": worst}, gates


def _run_resolvent(config: ExperimentConfig):
    from .bcontinuation import (ContourSpec, CuspFunction, CuspTerm,
                                resolvent_line, shift_identity)
    from .indicial import ModelOperator

    p = config.params
    op = ModelOperator(d=p["d"], h=p["h"])
    f = CuspFunction(d=p["d"], terms=(CuspTerm(
        m=p["m"], mu=tuple(p["mu"]), poly=tuple(p["poly"]),
        radial=_gaussian_radial(p["r0"])),))

    x_grid = np.linspace(p["x_lo"], p["x_hi"], p["n_x"])
    contour = ContourSpec(rho=p["rho"], height=p["height"], panels=p["panels"])
    grids = {"x_grid": x_grid, "r_span": p["r_span"], "n_r": p["n_r"]}
    shift = None
    if p["rho_prime"] is None:
        U = resolvent_line(op, p["s"], contour, f, **grids)
        lines = {"rho": U}
    else:
        lo, hi = sorted((p["rho"], p["rho_prime"]))
        shift = shift_identity(op, p["s"], f, lo, hi, contour=contour, **grids)
        U, other = (shift.lo, shift.hi) if p["rho"] == lo else (shift.hi, shift.lo)
        lines = {"rho": U, "rho_prime": other}
    # plot-ready slices of the summed scalar field at three angular nodes,
    # evaluated along the diagonal cross-section direction
    u_dir = np.full(p["d"], 1.0 / math.sqrt(p["d"]))
    scalar = U.scalar_values(u_dir)
    slices = sorted({0, p["n_x"] // 2, p["n_x"] - 1})
    header = ["r"]
    for j in slices:
        tag = _fmt_float(x_grid[j])
        header += [f"re_x={tag}", f"im_x={tag}"]
    columns = [U.r_grid]
    for j in slices:
        columns += [scalar[:, j].real, scalar[:, j].imag]
    rows = np.column_stack(columns).tolist()
    artifacts = {"resolvent.csv": _csv_text(header, rows)}
    # each line's quadrature resolution: the |r| its panels resolve and the
    # truncation tail they estimate
    tolerances = {f"{name}_{key}": line.meta[key] for name, line in lines.items()
                  for key in ("r_window", "contour_tail_rel", "tail_ok")}
    gates = []
    if shift is not None:
        tolerances["shift_identity_defect"] = shift.defect
        gates.append(_Gate("shift_identity", shift.defect, _BOUNDS["shift_identity"]))
        artifacts["shift_identity.json"] = _json_text({
            "rho_low": lo,
            "rho_high": hi,
            "crossed_levels": [{"re": loc.value.real, "im": loc.value.imag}
                               for loc in shift.crossed],
            "defect": shift.defect, "tolerance": gates[0].bound, "passed": gates[0].passed,
        })
    return artifacts, tolerances, gates


def _run_residue(config: ExperimentConfig):
    from ._sphere import homogeneous_dimension
    from .hadamard import pole_location, pole_residue

    p = config.params
    rows = []
    worst = 0.0
    index = 0
    for k in range(p["k_max"] + 1):
        ups = tuple(1.0 for _ in range(homogeneous_dimension(p["d"], k)))
        for j in range(p["j_max"] + 1):
            psi = _test_function_family(p["d"], config.seed + 37 * index, 1)[0]
            index += 1
            pair = pole_residue(j, k, ups, psi, p["d"], h=p["h"], eps=p["eps"],
                                n_nodes=p["n_nodes"])
            closed = complex(pair.closed_form)
            contour = complex(pair.contour)
            # guarded relative difference: parity makes some residues exactly
            # zero, where the contour value confirms the closed form to h, the
            # scale of every residue
            rel = abs(closed - contour) / max(abs(closed), p["h"])
            worst = _nanmax(worst, rel)
            rows.append([p["d"], k, j, pole_location(j, k, p["h"]),
                         closed.real, closed.imag, contour.real, contour.imag,
                         abs(closed - contour), rel])
    csv = _csv_text(
        ["d", "k", "j", "pole_location", "re_closed", "im_closed",
         "re_contour", "im_contour", "abs_diff", "rel_diff"], rows)
    gates = [_Gate("residue_match", worst, _BOUNDS["residue_match"])]
    return {"residues.csv": csv}, {"residue_rel_diff_max": worst}, gates


def _run_escape(config: ExperimentConfig):
    from .escape import ReducedPhaseGrid, assemble_G, verify

    p = config.params
    grid = ReducedPhaseGrid(n_theta=p["n_theta"], n_phi=p["n_phi"],
                            eps=p["eps"], delta=p["delta"])
    data = assemble_G(grid, T=p["t"], T_prime=p["t_prime"], C_G_prime=p["c_g_prime"],
                      R=p["r_small"], step=p["step"])
    cert = verify(data, seed=config.seed)
    text = cert.to_json() + "\n"
    tolerances = {"certificate_passed": cert.passed,
                  **{f"margin_{k}": float(r["margin"]) for k, r in cert.conditions.items()}}
    # the certificate's records; i and ii are lower bounds, gated as threshold <= margin
    # so that stderr shows the numbers as the certificate wrote them (a NaN still fails)
    c = cert.conditions
    gates = [_Gate("escape_certificate", c[k][v], c[k][b], f"{k}: {v} <= {b}") for k, v, b in (
        ("i", "threshold", "margin"), ("ii", "threshold", "margin"), ("iii", "margin", "threshold"),
        ("iii", "flow_dual_max_abs", "flow_dual_threshold"), ("iv", "margin", "threshold"))]
    return {"certificate.json": text}, tolerances, gates


def _run_flow(config: ExperimentConfig):
    from .flow import flow_cusp_exact
    from .geometry import PhasePoint

    p = config.params
    p0 = PhasePoint(p["r0"], np.array(p["theta0"], dtype=float), p["phi0"],
                    np.array(p["u0"], dtype=float))
    n_steps = int(round(p["t_max"] / p["dt"]))
    times = [i * p["dt"] for i in range(n_steps + 1)]
    d = p["d"]
    header = ["t", "r"] + [f"theta_{i}" for i in range(d)] + ["phi", "y"]
    rows, drifts = [], []
    for t in times:
        q = flow_cusp_exact(p0, t)
        rows.append([t, q.r] + [float(v) for v in q.theta] + [q.phi, q.y])
        drifts.append(q.u - p0.u)  # at a pole p0.u is e_1, not the configured u0
    csv = _csv_text(header, rows)
    u_drift = _nanmax(np.abs(drifts))
    r_max = _nanmax([row[1] for row in rows])

    half = flow_cusp_exact(flow_cusp_exact(p0, p["t_max"] / 2.0),
                           p["t_max"] / 2.0)
    full = flow_cusp_exact(p0, p["t_max"])
    semigroup = _nanmax(abs(half.r - full.r), abs(half.phi - full.phi),
                        np.max(np.abs(half.theta - full.theta)),
                        np.max(np.abs(half.u - full.u)))
    if 0.0 < p["phi0"] < math.pi:
        bound = p["r0"] - math.log(math.sin(p["phi0"]))
        height_defect = _nanmax(0.0, r_max - bound)
    else:
        bound = None
        height_defect = 0.0
    tolerances = {"azimuth_drift": u_drift, "semigroup_defect": semigroup,
                  "log_height_defect": height_defect}
    gates = [_Gate(key, value, _BOUNDS[key]) for key, value in tolerances.items()]
    report = {**tolerances, "log_height_bound": bound, "max_log_height_sampled": r_max,
              "tolerances": {gate.name: gate.bound for gate in gates}}
    return ({"trajectory.csv": csv,
             "conservation.json": _json_text(report)},
            tolerances, gates)


def _run_correlate(config: ExperimentConfig):
    from .flow import (SURFACE_AREA, BumpObservable, correlate, estimate_area,
                       laplace_tail_bound, laplace_transform)

    p = config.params
    A, B = (BumpObservable(center=complex(p[f"{side}_center_re"], p[f"{side}_center_im"]),
                           radius=p[f"{side}_radius"], order=p[f"{side}_order"],
                           amplitude=p[f"{side}_amplitude"], baseline=p[f"{side}_baseline"])
            for side in "ab")
    rec = correlate(A, B, T_max=p["t_max"], dt=p["dt"], n=p["n"],
                    seed=config.seed)
    csv = _csv_text(["t", "rho", "stderr"],
                    [[t, v, e] for t, v, e in
                     zip(rec.times, rec.values, rec.stderrs)])

    area, area_se = estimate_area(p["n"], config.seed + 1)
    total = SURFACE_AREA
    (mean_a, err_a), (mean_b, err_b) = A.integral(), B.integral()
    limit = mean_a * mean_b / total
    limit_err = (abs(mean_b) * err_a + abs(mean_a) * err_b + err_a * err_b) / total
    # at amplitude 0 both a bump's bound and its integral's error are 0
    bound = _BOUNDS["mixing_limit_error"] * total
    gates = [_Gate("mixing_limit_error", err, bound * abs(amp), side) for side, err, amp in
             (("a", err_a, A.amplitude), ("b", err_b, B.amplitude))]

    final = float(rec.values[-1])
    final_se = float(rec.stderrs[-1])
    gap = final - limit
    spread = math.hypot(final_se, limit_err)
    z_score = 0.0 if gap == 0.0 else (math.inf if spread == 0.0
                                      else gap / spread)

    lap = complex(laplace_transform(rec, p["s_probe"]))
    tail = float(laplace_tail_bound(rec, p["s_probe"]))
    probe = {
        "s": p["s_probe"],
        "laplace_value": lap.real,
        "s_times_laplace": p["s_probe"] * lap.real,
        "tail_bound": tail,
        "tail_bound_kind": "heuristic",
        "mixing_limit": limit,
        "mixing_limit_error": limit_err,
        "final_value": final,
        "final_stderr": final_se,
        "final_gap_z_score": z_score,
        "area": area,
        "area_stderr": area_se,
        "area_target": total,
        "area_gap_z_score": (area - total) / area_se if area_se > 0 else 0.0,
        "sample_count": p["n"],
    }
    tolerances = {key: probe[key] for key in
                  ("final_gap_z_score", "area_gap_z_score", "mixing_limit_error")}
    return ({"correlation.csv": csv,
             "laplace.json": _json_text(probe)},
            tolerances, gates)


_RUNNERS = {
    "roots": _run_roots,
    "eigendist": _run_eigendist,
    "resolvent": _run_resolvent,
    "residue": _run_residue,
    "escape": _run_escape,
    "flow": _run_flow,
    "correlate": _run_correlate,
}


# ---------------------------------------------------------------------------
# runner entry points
# ---------------------------------------------------------------------------

def run(config: ExperimentConfig) -> int:
    """Validate, compute, write artifacts atomically; return the exit code."""
    config.validate()
    named, tolerances, gates = _RUNNERS[config.subcommand](config)
    failed = [gate for gate in gates if not gate.passed]
    failures = sorted({gate.name for gate in failed})
    prefix = config.hash_prefix()
    artifacts = {f"{prefix}-{name}": data for name, data in named.items()}
    manifest = _build_manifest(config, tolerances, list(artifacts), failures)
    artifacts[f"{prefix}-manifest.ini"] = manifest
    _write_artifacts(config.output_dir, artifacts)
    if failed:
        print(json.dumps({"error": "tolerance", "failures": failures,
                          "gates": [asdict(gate) for gate in failed]},
                         sort_keys=True), file=sys.stderr)
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors match the JSON diagnostic format."""

    def error(self, message):
        print(json.dumps({"error": "validation", "type": "ArgumentError",
                          "message": message}, sort_keys=True),
              file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuspflow", allow_abbrev=False,
        description="Experiment runner for cusp geodesic-flow computations.")
    common = {"config": ("--config", "path to an INI config file"),
              "output_dir": ("--output-dir", "directory for artifacts"),
              "seed": ("--seed", "random seed (nonnegative integer)")}
    for dest, (flag, help_text) in common.items():
        parser.add_argument(flag, dest=dest, default=None, help=help_text)
    subparsers = parser.add_subparsers(dest="subcommand")
    for name, schema in SCHEMAS.items():
        sp = subparsers.add_parser(
            name, description=f"run the {name} experiment",
            help=f"{name} experiment", allow_abbrev=False)
        # SUPPRESS: a flag given before the subcommand keeps its value
        for dest, (flag, help_text) in common.items():
            sp.add_argument(flag, dest=dest, default=argparse.SUPPRESS,
                            help=help_text)
        for param in schema:
            sp.add_argument(f"--{param.key.replace('_', '-')}",
                            dest=f"param_{param.key}", default=None,
                            metavar="VALUE",
                            help=f"{param.help} (default: "
                                 f"{_FORMATTERS[param.typ](param.default)})")
    return parser


def _diagnostic(kind: str, exc: BaseException) -> None:
    print(json.dumps({"error": kind, "type": type(exc).__name__,
                      "message": str(exc)}, sort_keys=True), file=sys.stderr)


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        overrides = {key[len("param_"):]: value
                     for key, value in vars(args).items()
                     if key.startswith("param_") and value is not None}
        config = config_from_sources(
            subcommand=args.subcommand, config_path=args.config,
            output_dir=args.output_dir, seed=args.seed, overrides=overrides)
        # a non-finite value fails its gate or raises a typed error, which
        # the one diagnostic line reports, so numpy's warnings add nothing
        with np.errstate(all="ignore"):
            return run(config)
    except _CONFIG_ERRORS as exc:
        _diagnostic("validation", exc)
        return 2
    except ToleranceError as exc:
        _diagnostic("tolerance", exc)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        _diagnostic("internal", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
