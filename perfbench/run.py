"""quivergauge benchmark: seeded workloads over the CLI and the library.

Usage (from the repository root):

    python3 perfbench/run.py --workload small-docs --seed 1 --seconds 30 --trace 0

One runner process runs a closed loop with one job in flight: it launches
``python -m quivergauge.cli`` children one at a time (``src`` on
PYTHONPATH), makes timed in-process library calls, and checks every
output.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
replays every CLI job in-process with spans around the package's public
functions and prints the per-layer metrics.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread everywhere: flow iteration counts repeat exactly and the
# machine's cores stay free of BLAS workers.  Set before numpy loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

# Set-up runs before the first round and again after every round, at
# least this many times in all.
MIN_SETUPS = 5
IMPORT_CLI = "import quivergauge.cli"
# Timed jobs are reported relative to a reference measured right before
# each one, because the speed of a shared host drifts by 20-30% over
# minutes (see README.md):
# CLI jobs against a fresh interpreter importing numpy (the same kind of
# start-up work), in-process calls against ``reference_kernel`` run just
# before and just after.
REFERENCE_CHILD = ("-c", "import numpy")
CHILD_TIMEOUT_S = 120.0
# In-process calls repeat within a round at least INPROC_MIN_REPEATS times
# and until INPROC_BUDGET_S is spent, up to INPROC_MAX_REPEATS.
INPROC_MIN_REPEATS = 3
INPROC_BUDGET_S = 0.5
INPROC_MAX_REPEATS = 50
LAYERS = ("cli", "dsl", "quiver", "rewrites", "representation", "kempfness", "matrices", "additive", "toric", "serialize")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], out_path: Path, err_path: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, max RSS in MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, lib):
        self.workload, self.seed, self.seconds, self.trace, self.lib = workload, seed, seconds, trace, lib
        self.dir = WORK / f"{workload}-s{seed}-t{int(trace)}"
        self.attempted = 0
        self.failures: list[str] = []
        # (kind, wall, reference wall) per successful CLI job, and
        # (seconds per call, reference kernel seconds) per in-process call.
        self.walls: list[tuple[str, float, float]] = []
        self.inproc: list[tuple[float, float]] = []
        self.peak_rss_mb = 0.0
        self.setup_times: list[float] = []
        self.batch = None
        self.flow_iterations: list[int] = []
        # Traced runs: per-round layer totals and counts, per-job CLI wall and
        # cli.main span, and fresh-process import samples.
        self.rounds: list[dict[str, float]] = []
        self.glue: list[tuple[float, float]] = []
        self.imports: dict[str, list[float]] = defaultdict(list)

    # ------------------------------------------------------------ jobs

    def cli(self, job) -> tuple[float, str | None, str]:
        """Run one CLI job; returns (wall, failure reason or None, stdout).

        Every job reuses job.out and job.err, so a run's directory stays small.
        """
        out_path, err_path = self.dir / "job.out", self.dir / "job.err"
        wall, code, rss = spawn([sys.executable, "-m", "quivergauge.cli", *job.argv], out_path, err_path)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        out = out_path.read_text(encoding="utf-8")
        err = err_path.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            return wall, f"exit {code}: {err.strip()[:200]}", out
        if err:
            return wall, f"stderr: {err.strip()[:200]}", out
        if job.save is not None:
            job.save.write_text(out, encoding="utf-8")
        if job.check is not None:
            try:
                reason = job.check(out)
            except (KeyError, ValueError, TypeError, IndexError, OSError, AttributeError) as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                return wall, reason, out
        return wall, None, out

    def replay(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(f"{label}: {reason}")

    def run_round(self, index: int, inst) -> None:
        tracer = self.lib.tracer
        counts = defaultdict(float)
        overhead = 0.0
        start_span = len(tracer.spans)
        for job in workloads.round_jobs(self.workload, inst, self.batch):
            label = f"{job.kind}#r{index}"
            if job.run is not None:
                self.run_inproc(job, label)
                continue
            reference = 0.0 if self.trace else self.python(*REFERENCE_CHILD)
            wall, reason, out = self.cli(job)
            counts["dsl.input_bytes"] += len(job.doc.text().encode())
            counts["serialize.out_bytes"] += len(out.encode())
            if job.kind == "reduce" and not reason:
                counts["rewrites.collapse_steps"] += len(json.loads(out)["trace"]["steps"])
            if job.kind.startswith("toric") and not reason:
                counts["toric.kernel_vectors"] += len(json.loads(out)["vectors"])
            if job.kind == "kn-flow" and not reason:
                self.flow_iterations.append(json.loads(out)["iterations"])
            if self.trace and not reason:
                reason, job_overhead = self.traced_replay(job, label, wall, out)
                overhead += job_overhead
            if not self.trace and not reason:
                self.walls.append((job.kind, wall, reference))
            self.record(label, reason)
        if self.trace:
            spans = tracer.spans[start_span:]
            seconds, calls = layer_totals(spans)
            row = dict(counts)
            for layer in LAYERS:
                row[f"{layer}.self_s"] = seconds.get(layer, 0.0)
                row[f"{layer}.calls"] = calls.get(layer, 0)
            row["trace.overhead_s"] = overhead
            row["trace.spans"] = len(spans)
            self.rounds.append(row)

    def traced_replay(self, job, label: str, wall: float, cli_out: str) -> tuple[str | None, float]:
        """Replay a CLI job in-process, without and with spans.

        Both outputs must equal the CLI's stdout byte for byte.  Returns
        the failure reason (or None) and traced minus untraced time.
        """
        tracer = self.lib.tracer
        start = time.perf_counter()
        plain = self.replay(job.argv)
        untraced = time.perf_counter() - start
        tracer.job = label
        first = len(tracer.spans)
        tracer.install(self.lib.modules)
        try:
            start = time.perf_counter()
            traced = self.replay(job.argv)
            with_spans = time.perf_counter() - start
        finally:
            tracer.uninstall()
        for name, (code, out, err) in (("replay", plain), ("traced replay", traced)):
            if code != 0 or err:
                return f"{name} exit {code}: {err.strip()[:200]}", 0.0
            if out.encode() != cli_out.encode():
                return f"{name} stdout differs from the CLI's", 0.0
        mains = [s for s in tracer.spans[first:] if s.parent is None and s.name == "cli.main"]
        self.glue.append((wall, sum(s.end - s.start for s in mains)))
        return None, with_spans - untraced

    @staticmethod
    def more_inproc(times: list[float]) -> bool:
        if len(times) >= INPROC_MAX_REPEATS:
            return False
        return len(times) < INPROC_MIN_REPEATS or sum(times) < INPROC_BUDGET_S

    def run_inproc(self, job, label: str) -> None:
        """Time the in-process job, repeated as ``more_inproc`` says.

        A traced run makes one traced call instead.
        """
        lib, tracer = self.lib, self.lib.tracer
        times, kernels = [], []
        try:
            args = job.prepare(lib)
            if self.trace:
                tracer.job = label
                tracer.install(lib.modules)
            try:
                while not times or (not self.trace and self.more_inproc(times)):
                    before = reference_kernel()
                    start = time.perf_counter()
                    state = job.run(lib, args)
                    times.append(time.perf_counter() - start)
                    kernels.append((before + reference_kernel()) / 2)
            finally:
                tracer.uninstall()
            reason = job.verify(state)
        except (ValueError, ArithmeticError, KeyError) as exc:  # LinAlgError is a ValueError
            reason = f"raised {type(exc).__name__}: {exc}"
        if not reason and not self.trace:
            self.inproc.extend((t / job.calls, k) for t, k in zip(times, kernels))
        self.record(label, reason)

    # ------------------------------------------------------------ phases

    def setup(self, root: Path) -> list:
        """Generate and write the instance pool under ``root``, then warm up.

        The time goes to ``setup_times``; ``run`` repeats set-up between
        rounds so its median spans the same stretch of time as the jobs.
        """
        start = time.perf_counter()
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        pool = [
            workloads.make_instance(self.workload, self.seed, i, root)
            for i in range(workloads.POOL_SIZE[self.workload])
        ]
        self.batch = workloads.pushforward_batch(self.workload, self.seed)
        _, reason, _ = self.cli(workloads.warmup_job(root))
        if reason:
            fail(f"warm-up failed: {reason}")
        self.setup_times.append(time.perf_counter() - start)
        return pool

    def python(self, *args: str) -> float:
        """Wall time of one fresh interpreter running ``args``; stderr goes to imp.err."""
        wall, status, _ = spawn([sys.executable, *args], self.dir / "imp.out", self.dir / "imp.err")
        if status != 0:
            fail(f"python {' '.join(args)} exited {status}")
        return wall

    def measure_imports(self) -> None:
        """One sample each of interpreter start, package import and scipy's share."""
        self.imports["interpreter"].append(self.python("-c", "pass"))
        self.imports["import"].append(self.python("-c", IMPORT_CLI))
        self.python("-X", "importtime", "-c", IMPORT_CLI)
        self.imports["scipy"].append(scipy_import_seconds((self.dir / "imp.err").read_text()))

    def default_flow(self, inst) -> str:
        """The flow at its default tol on this run's first GL instance (a diagnostic)."""
        lib = self.lib
        parsed = lib.dsl.parse(inst.doc.text())
        rep = lib.representation.random_representation(parsed.quiver, lib.quiver.GroupSpec("GL", 3), inst.sample_seed)
        start = time.perf_counter()
        report = lib.kempfness.kn_flow(rep)
        return (
            f"default-tol flow on {inst.path.name}: converged={report.converged} "
            f"iterations={report.iterations} final_residual={report.residual_history[-1]:.3g} "
            f"seconds={time.perf_counter() - start:.2f}"
        )

    def run(self) -> dict:
        pool = self.setup(self.dir)
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < self.seconds:
            self.run_round(index, pool[index % len(pool)])
            if self.trace:
                self.measure_imports()
            else:
                self.setup(self.dir / "setup-again")
            index += 1
        self.n_rounds = index
        while not self.trace and len(self.setup_times) < MIN_SETUPS:
            self.setup(self.dir / "setup-again")
        shutil.rmtree(self.dir / "setup-again", ignore_errors=True)
        if self.flow_iterations:
            its = self.flow_iterations
            print(f"# kn-flow iterations: n={len(its)} median={stats.median(its):g} max={max(its)}")
        if self.trace and self.workload != "large-structure":
            gl = next((i for i in pool if i.family == "GL"), None)
            if gl is not None:
                print("# " + self.default_flow(gl))
        return self.trace_metrics() if self.trace else self.end_to_end()

    # ------------------------------------------------------------ metrics

    def end_to_end(self) -> dict:
        if not self.walls or not self.inproc:
            fail("no successful CLI or in-process job")
        by_kind = defaultdict(list)
        for kind, wall, _ in self.walls:
            by_kind[kind].append(wall)
        for kind, ws in sorted(by_kind.items()):
            print(f"# cli {kind}: n={len(ws)} p50={stats.median(ws):.4g}s{tail_note(ws)}")
        walls = [w for _, w, _ in self.walls]
        refs = [r for _, _, r in self.walls]
        calls = [t for t, _ in self.inproc]
        print(f"# cli all: n={len(walls)} rounds={self.n_rounds} p50={stats.median(walls):.4g}s{tail_note(walls)}")
        print(f"# reference child: p50={stats.median(refs):.4g}s")
        print(f"# pushforward: n={len(calls)} p50={stats.median(calls):.4g}s{tail_note(calls)}")
        print(f"# reference kernel: p50={stats.median([k for _, k in self.inproc]):.4g}s")
        return {
            "setup_s": (stats.median(self.setup_times), "s"),
            "cli_p50_rel": (stats.median([w / r for _, w, r in self.walls]), "ratio"),
            "cli_mean_rel": (sum(walls) / sum(refs), "ratio"),
            "pushforward_rel": (stats.median([t / k for t, k in self.inproc]), "ratio"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def trace_metrics(self) -> dict:
        print(f"# traced rounds={self.n_rounds} spans={len(self.lib.tracer.spans)}")
        interpreter = stats.median(self.imports["interpreter"])
        package = stats.median(self.imports["import"]) - interpreter
        metrics = {
            "cli.interpreter_s": (interpreter, "s"),
            "cli.import_s": (package, "s"),
            "cli.import_scipy_s": (stats.median(self.imports["scipy"]), "s"),
            "cli.glue_s": (stats.median([w - interpreter - package - main for w, main in self.glue]), "s"),
        }
        keys = [f"{layer}.self_s" for layer in LAYERS] + [f"{layer}.calls" for layer in LAYERS]
        keys += ["dsl.input_bytes", "serialize.out_bytes", "rewrites.collapse_steps", "toric.kernel_vectors"]
        keys += ["trace.overhead_s", "trace.spans"]
        for key in keys:
            unit = "s" if key.endswith("_s") else "bytes" if key.endswith("bytes") else "count"
            metrics[key] = (stats.median([r.get(key, 0.0) for r in self.rounds]), unit)
        self.write_spans()
        return metrics

    def write_spans(self) -> None:
        with open(self.dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in self.lib.tracer.spans:
                fh.write(json.dumps([s.id, s.parent, s.job, s.name, s.start, s.end]) + "\n")


_ROTATION = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) + 1j * np.eye(3))[0]


def reference_kernel() -> float:
    """Seconds for a fixed mix of dict updates and 3x3 complex products.

    The same kinds of work as the library's structural passes and marking
    arithmetic, in code independent of it; the rotation keeps the entries
    bounded.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(50_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    m = np.eye(3, dtype=complex)
    for _ in range(2_000):
        m = _ROTATION @ m
    return time.perf_counter() - start


def tail_note(values) -> str:
    t = stats.tail(values)
    return f" p{t[0]:g}={t[1]:.4g}s (of {t[2]})" if t else " (too few samples for a tail)"


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of scipy in a ``-X importtime`` log.

    Sums the cumulative column of every scipy module that was not imported
    by another scipy module, so nothing is counted twice.  The log lists a
    module after everything it imported, indented one level less.
    """
    rows = []
    for line in importtime_log.splitlines():
        if line.startswith("import time:"):
            parts = line[len("import time:") :].split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total_us, ancestors = 0, []  # (depth, is scipy) of the enclosing imports
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in ancestors):
            total_us += cumulative
        ancestors.append((depth, is_scipy))
    return total_us / 1e6


def load_library():
    """Import the package's modules from ``src``."""
    sys.path.insert(0, str(SRC))
    from quivergauge import (
        additive,
        cli,
        dsl,
        kempfness,
        matrices,
        quiver,
        representation,
        rewrites,
        serialize,
        toric,
    )

    modules = (cli, dsl, quiver, rewrites, representation, kempfness, matrices, additive, toric, serialize)
    return SimpleNamespace(
        cli=cli,
        dsl=dsl,
        quiver=quiver,
        rewrites=rewrites,
        representation=representation,
        kempfness=kempfness,
        modules=modules,
        tracer=Tracer(),
    )


def environment() -> str:
    import scipy

    blas = " ".join(f"{k}={v}" for k, v in BLAS_THREADS.items())
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} {blas}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quivergauge" / "cli.py").is_file():
        fail(f"no quivergauge sources under {SRC.name}/; run from a repository checkout")
    lib = load_library()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env: {environment()}")
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace), lib)
    metrics = runner.run()
    for line in runner.failures:
        print(f"# FAIL {line}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
