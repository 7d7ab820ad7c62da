"""Benchmark of the cuspflow CLI: time to a checked result, per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

It drives the real CLI in-process (``cuspflow.cli.main``, one call per
operation), checks every output, prints each metric by name with its unit
and sample count, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics.  The end-to-end times are
corrected for the shared host's speed at the moment they were taken (see
``gauge.py``).  The exit code is 1 when a check fails and 2 when the program
cannot be loaded.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP threads before numpy is imported, here and in every
# interpreter started for the set-up measurement.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gauge  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

WORKLOADS = ("spectral", "escape", "mixing")
SUBCOMMANDS = ("roots", "eigendist", "residue", "resolvent", "escape", "flow",
               "correlate")

#: fresh interpreters timed for set-up (after one that fills __pycache__)
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "hadamard.pairing.calls": "count",
    "hadamard.pairing.self_s": "s",
    "hadamard.quad.calls": "count",
    "hadamard.quad.s": "s",
    "hadamard.pole_residue.self_s": "s",
    "hadamard.pair_distribution.self_s": "s",
    "jets.RadialSeries.power.calls": "count",
    "jets.RadialSeries.power.s": "s",
    "import.scipy_integrate_s": "s",
    "import.cuspflow_s": "s",
    "indicial.indicial_roots.s": "s",
    "indicial.numeric_roots_jet.s": "s",
    "indicial.eigendistribution.s": "s",
    "bcontinuation.resolvent_line.calls": "count",
    "bcontinuation.resolvent_line.self_s": "s",
    "bcontinuation._solve_mode_profiles.s": "s",
    "bcontinuation._fhat.s": "s",
    "bcontinuation.residue_apply.calls": "count",
    "bcontinuation.residue_apply.s": "s",
    "escape.verify.self_s": "s",
    "escape.assemble_G.self_s": "s",
    "escape.build_weight.s": "s",
    "escape.build_f.s": "s",
    "escape.EscapeData.G.calls": "count",
    "escape.EscapeData.G.s": "s",
    "escape.EscapeData.reduced_G.calls": "count",
    "escape.WeightField.__call__.s": "s",
    "escape.WeightField.derivative.s": "s",
    "flow.sample_liouville.s": "s",
    "flow.sample_liouville.samples_per_s": "1/s",
    "flow.estimate_area.s": "s",
    "flow.correlate.self_s": "s",
    "flow.correlate.errors": "count",
    "flow.flow_cusp_exact.calls": "count",
    "flow.flow_cusp_exact.s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_frac": "frac",
    **{f"{sub}_s": "s" for sub in SUBCOMMANDS},
    "failed_frac": "frac",
    "cert_margin": "1",
}

_SPAN_FIELDS = ("calls", "s", "self_s", "errors")


class Harness:
    """Runs a workload's operations through the CLI and keeps every sample."""

    def __init__(self, workload, seed, tmp, tiny=False):
        from cuspflow import cli

        self.cli = cli
        self.seed = seed
        self.kinds = workloads.kinds(workload, tiny)
        # one fixed directory, so that runs of the same operation must leave
        # byte-identical artifacts, manifest included
        self.out_dir = os.path.join(tmp, "out")
        self.samples = []        # (kind, sub, seconds, outcome, traced, start)
        self.gauge = None        # set while timed() corrects for host speed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.cert_margins = []
        self.traced_bytes = 0

    def op_for(self, kind, pass_index):
        rng = random.Random(f"{self.seed}/{kind.name}/{pass_index}")
        return workloads.Op(kind.name, kind.sub, tuple(kind.make(rng)),
                            self.seed if kind.seed is None else kind.seed)

    def run_op(self, op, tracer=None):
        """Run one operation, check it, and record its time and outcome."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = op.argv(self.out_dir)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call(spans.OP_SPAN, self.cli.main, argv)
            except SystemExit as exc:   # argparse usage errors
                code = exc.code
            seconds = time.perf_counter() - start
        self.attempted += 1
        error_type = None
        for line in err.getvalue().splitlines():
            with contextlib.suppress(ValueError):
                error_type = json.loads(line).get("type", error_type)
        artifacts = (workloads.read_outputs(self.out_dir)
                     if os.path.isdir(self.out_dir) else {})
        status, problems = (workloads.check(op, self.out_dir, artifacts)
                            if code in (0, 3) else (None, []))
        ok = code == 0 and status == "ok" and not problems
        if not ok:
            self.failed += 1
            if problems or not workloads.expected_failure(op, code, status, error_type):
                self.problems.append(
                    f"{op.kind}: {' '.join(argv)}: exit {code}, status {status}, "
                    f"error {error_type}, problems {problems}")
        digest = hashlib.sha256()
        for name in sorted(artifacts):
            digest.update(name.encode() + b"\0" + artifacts[name] + b"\0")
        if self.digests.setdefault(op, digest.hexdigest()) != digest.hexdigest():
            self.problems.append(f"{op.kind}: artifacts differ between runs of "
                                 f"{' '.join(argv)}")
        if tracer is not None:
            self.traced_bytes += sum(len(v) for v in artifacts.values())
        if op.sub == "escape" and ok:
            self.cert_margins.append(workloads.cert_margin(
                next(v for k, v in artifacts.items() if k.endswith("-certificate.json"))))
        outcome = "ok" if ok else ("aborted" if code == 4 else "failed")
        self.samples.append((op.kind, op.sub, seconds, outcome, tracer is not None, start))

    def run_kind(self, kind, pass_index, tracer=None, reps=None):
        """One pass of a kind: its op ``reps`` times (default ``kind.reps``)."""
        op = self.op_for(kind, pass_index)
        for _ in range(kind.reps if reps is None else reps):
            self.run_op(op, tracer)

    def timed(self, passes):
        """``passes`` whole passes over all kinds, with the speed gauge on."""
        with gauge.Gauge() as self.gauge:
            for pass_index in range(passes):
                for kind in self.kinds:
                    self.run_kind(kind, pass_index)
            self.gauge.settle()

    def traced(self):
        """One untraced pass, then a traced pass that runs each kind's op
        once, so that the per-layer counts repeat exactly."""
        for kind in self.kinds:
            self.run_kind(kind, 0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            for kind in self.kinds:
                self.run_kind(kind, 0, tracer, reps=1)
        finally:
            tracer.uninstall()
        return tracer

    # -- timing statistics (untraced samples only) ---------------------------
    def charged(self):
        """(kind, sub, seconds) of the untraced samples, each abort charged as
        slower than any completed operation of its kind: the longer of its own
        time and the slowest completed one.  A kind that only aborts keeps its
        times to abort.  Times of a timed() run are corrected for host speed."""
        done = [(kind, sub, sec if self.gauge is None else self.gauge.corrected(start, sec),
                 outcome)
                for kind, sub, sec, outcome, traced, start in self.samples if not traced]
        slowest = {}
        for kind, _, sec, outcome in done:
            if outcome != "aborted":
                slowest[kind] = max(slowest.get(kind, 0.0), sec)
        return [(kind, sub, max(sec, slowest.get(kind, 0.0)) if outcome == "aborted" else sec)
                for kind, sub, sec, outcome in done]

    def kind_medians(self):
        by_kind = {}
        for kind, _, sec in self.charged():
            by_kind.setdefault(kind, []).append(sec)
        return {k: statistics.median(v) for k, v in by_kind.items()}, by_kind

    def sub_medians(self):
        by_sub = {}
        for _, sub, sec in self.charged():
            by_sub.setdefault(sub, []).append(sec)
        return {k: (statistics.median(v), len(v)) for k, v in by_sub.items()}


# ---------------------------------------------------------------------------
# set-up time, in fresh interpreters
# ---------------------------------------------------------------------------

_CHILD = """
import importlib, sys, time
sys.path[:0] = [{src!r}, {here!r}]
import gauge

def load():
    for name in {mods!r}:
        importlib.import_module(name)

t0 = time.perf_counter()
load()
seconds = time.perf_counter() - t0
if not {importtime!r}:
    print(repr(gauge.corrected_now(seconds)))
"""


def loaded_modules():
    """Every cuspflow module the run loaded, plus scipy for the manifest."""
    return sorted(m for m in sys.modules
                  if m == "cuspflow" or m.startswith("cuspflow.")) + ["scipy"]


def _child(mods, importtime=False):
    """Import ``mods`` in a fresh interpreter.  Returns the import time
    corrected for host speed (None under ``-X importtime``, which does not
    run the gauge) and the interpreter's stderr."""
    flags = ["-X", "importtime"] if importtime else []
    script = _CHILD.format(src=str(SRC), here=str(HERE), mods=mods, importtime=importtime)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT)
    return None if importtime else float(proc.stdout.strip().splitlines()[-1]), proc.stderr


def setup_seconds(mods, repeats):
    """Median time to import ``mods`` in a fresh interpreter, corrected for
    host speed."""
    _child(mods)
    return statistics.median(_child(mods)[0] for _ in range(repeats)), repeats


def import_layers(mods, repeats):
    """Medians of scipy.integrate's and cuspflow's cumulative import times
    from ``python -X importtime``."""
    _child(mods)
    scipy_s, cusp_s = [], []
    for _ in range(repeats):
        _, err = _child(mods, importtime=True)
        sci = cusp = 0.0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                cumulative = int(parts[1]) / 1e6
            except ValueError:
                continue   # the header line
            name = parts[2][1:]
            if name.strip() == "scipy.integrate" and not sci:
                sci = cumulative
            if name.startswith("cuspflow"):   # top level: no indentation
                cusp += cumulative
        scipy_s.append(sci)
        cusp_s.append(cusp)
    return statistics.median(scipy_s), statistics.median(cusp_s)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(h, setup):
    medians, by_kind = h.kind_medians()
    n_ops = sum(len(v) for v in by_kind.values())
    setup_s, setup_n = setup
    return {
        "setup_s": (setup_s, setup_n),
        "pass_s": (sum(medians.values()), n_ops),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(h, tracer, imports):
    summary = tracer.summary()
    traced = [s for s in h.samples if s[4]]
    n_traced = len(traced)
    medians, _ = h.kind_medians()
    out = {}
    for name in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if field in _SPAN_FIELDS:   # 0 when the workload never enters the layer
            out[name] = (summary.get(prefix, {}).get(field, 0), n_traced)
    sample = summary.get("flow.sample_liouville", {})
    out["flow.sample_liouville.samples_per_s"] = (
        sample["items"] / sample["s"] if sample.get("s") else 0.0, n_traced)
    out["cli.artifact_bytes"] = (h.traced_bytes, n_traced)
    out["trace.overhead_frac"] = (
        sum(s[2] for s in traced) / sum(medians[s[0]] for s in traced) - 1.0, n_traced)
    out["import.scipy_integrate_s"] = (imports[0], imports[2])
    out["import.cuspflow_s"] = (imports[1], imports[2])
    subs = h.sub_medians()
    for sub in SUBCOMMANDS:
        out[f"{sub}_s"] = subs.get(sub, (0.0, 0))
    out["failed_frac"] = (h.failed / h.attempted, h.attempted)
    out["cert_margin"] = (min(h.cert_margins) if h.cert_margins else 0.0,
                          len(h.cert_margins))
    return {name: out[name] for name in PER_LAYER}


def run(workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (correct, attempted, failed, {name: (value, n)})."""
    for name in workloads.PRELOAD[workload]:
        importlib.import_module(name)
    WORK_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        h = Harness(workload, seed, tmp, tiny)
        if trace:
            tracer = h.traced()
            tracer.write(WORK_DIR / f"trace-{workload}-seed{seed}.jsonl")
            repeats = 1 if tiny else 3
            imports = import_layers(loaded_modules(), repeats) + (repeats,)
            metrics = per_layer(h, tracer, imports)
        else:
            h.timed(max(1, round(seconds / workloads.PASS_S[workload])))
            setup = setup_seconds(loaded_modules(), 1 if tiny else SETUP_REPEATS)
            metrics = end_to_end(h, setup)
            medians, by_kind = h.kind_medians()
            for kind, value in medians.items():
                print(f"# kind {kind}: median {value:.6f} s of {len(by_kind[kind])}")
            for sub, (value, n) in sorted(h.sub_medians().items()):
                print(f"# {sub}_s = {value:.6f} s (median of {n} operations)")
            ticks = [d for _, d in h.gauge.ticks]
            print(f"# gauge: median {statistics.median(ticks) * 1e3:.4f} ms of {len(ticks)} "
                  f"runs, reference {gauge.REFERENCE_S * 1e3:.4f} ms")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in h.problems:
        print(f"# CHECK FAILED: {problem}", file=sys.stderr)
    return not h.problems, h.attempted, h.failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small operation per subcommand (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (the CLI takes no negative seed)")
    if not (SRC / "cuspflow" / "cli.py").is_file():
        print(f"cuspflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    correct, attempted, failed, metrics = run(args.workload, args.seed, args.seconds,
                                              args.trace, args.tiny)
    units = PER_LAYER if args.trace else END_TO_END
    for name, (value, n) in metrics.items():
        print(f"# {name} = {value!r} {units[name]} (n={n})")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
