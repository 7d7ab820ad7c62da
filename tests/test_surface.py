"""The package's surface: each function in src/ is called by a CLI run, or
stays for a stated reason.

A profile hook records which functions a fixed set of in-process CLI runs
calls: every subcommand at its defaults plus one key away from them.  A
function that none of them calls is either reached at other valid input, is
named by the benchmark's traced run, carries a statement of the paper that
the tests check through it, or belongs to the continuation group that has no
CLI path yet.  Anything else is test-only code, which belongs in tests/.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from cuspflow import cli

RUNS = (
    ("roots",), ("eigendist",), ("resolvent",), ("residue",), ("escape",), ("flow",),
    ("correlate",),
    ("roots", "--d=2"), ("roots", "--twist=0.5"),
    ("eigendist", "--d=2"), ("eigendist", "--s=-1.5"), ("eigendist", "--s=-1.0"),
    ("resolvent", "--h=2"), ("resolvent", "--m=1"), ("resolvent", "--rho-prime="),
    ("residue", "--d=2"),
    ("escape", "--n-theta=16", "--n-phi=16", "--t-prime=25"),
    ("flow", "--d=2"),
    ("correlate", "--n=2000"),
)

_SPAN = "the benchmark's traced run wraps it by name"
_CONTINUATION = ("the continued resolvent and its paired residue channel have no CLI "
                 "path; they stay until where its poles live is settled (ROADMAP)")

# Functions that no run of RUNS calls, each with the reason it stays.
_UNCALLED_BY_DESIGN = {
    # reached at other valid input
    "__init__.__getattr__": "library code reading an export (PEP 562); the CLI "
                            "imports the modules themselves",
    "cli._read_ini": "--config",
    "cli._Parser.error": "a usage error: argparse calls it",
    "bcontinuation._narrow_window": "a contour window narrower than the shift identity's",
    "indicial.RootTable.nearest": "a contour node near a resonance of the solve",
    "_jets.float_order_error": "error constructor: a jet order past FLOAT_ORDER_MAX",
    "errors.NearSingularError.__init__": "error constructor: solve_indicial at a root",
    # a statement of the paper that tier-1 tests check through it
    "bcontinuation.solve_indicial": "the indicial solve at one lambda",
    "bcontinuation.SphereFunction.__post_init__": "validates solve_indicial's input",
    "flow.flow_quotient": "the geodesic flow on the level-2 quotient",
    "geometry.invariant_splitting": "the flow-invariant splitting",
    "geometry.SplittingFrame.__post_init__": "the coframe of invariant_splitting",
    # span targets of the benchmark
    "hadamard.pairing": _SPAN,
    "flow.sample_liouville": _SPAN,
    "escape.EscapeData.G": _SPAN,
    "escape.WeightField.__call__": _SPAN,
    "escape.WeightField.derivative": _SPAN,
    # the continuation group
    "bcontinuation.continue_resolvent": _CONTINUATION,
    "bcontinuation._crossing_check": _CONTINUATION,
    "bcontinuation.rho_max": _CONTINUATION,
    "indicial.RootTable.visible": _CONTINUATION,
    "indicial.RootTable.collision": _CONTINUATION,
    "bcontinuation.residue_pairing": _CONTINUATION,
    "bcontinuation._paired_mode_values": _CONTINUATION,
    "bcontinuation._binomial_series": _CONTINUATION,
    "bcontinuation._moments": _CONTINUATION,
}


def _package_functions() -> dict:
    """{(file, first line): "module.qualname"} of every module-level function
    and method in the package; a decorated function's code starts at its
    first decorator.  Nested functions are part of the one that holds them."""
    functions = {}
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = ([(f"{node.name}.", item) for item in node.body]
                       if isinstance(node, ast.ClassDef) else [("", node)])
            for prefix, item in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    functions[(str(path), first)] = f"{path.stem}.{prefix}{item.name}"
    return functions


# Runs RUNS in one fresh interpreter (earlier tests would have filled the
# package's caches, whose functions a later run then does not call) and
# writes the (file, first line) of every code object called.
_CENSUS = """
import json, sys
from cuspflow import cli
out, runs = sys.argv[1], json.loads(sys.argv[2])
codes = set()
def hook(frame, event, arg):
    if event == "call":
        codes.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
for i, argv in enumerate(runs):
    sys.setprofile(hook)
    try:
        cli.main([f"--output-dir={out}/{i}", *argv])
    finally:
        sys.setprofile(None)
with open(f"{out}/codes.json", "w") as f:
    json.dump(sorted(codes), f)
"""


def test_every_function_is_called_by_a_cli_run_or_stays_for_a_stated_reason(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", _CENSUS, str(tmp_path), json.dumps(RUNS)],
                   env=env, capture_output=True, check=True)
    codes = json.loads((tmp_path / "codes.json").read_text())
    called = {(str(Path(name).resolve()), line) for name, line in codes}
    uncalled = sorted(name for key, name in _package_functions().items() if key not in called)
    assert uncalled == sorted(_UNCALLED_BY_DESIGN)
