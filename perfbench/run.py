"""zentropy benchmark: CLI workloads end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload grid-exact --seed 1 --seconds 25 --trace 0

Run from the repository root. Each op is one in-process `zentropy.cli.main`
call on an input generated from (--seed, op index), with outputs written to
a scratch directory under .perfbench_work/ and checked after the timed
region. Ops repeat until --seconds have passed. The last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it is
the environment record and the per-op times. Times in the result are scaled
to a nominal host speed by a reference kernel timed next to each op
(hostspeed.py). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# main() pins the run to one CPU (see pin_to_one_cpu), so BLAS threads are
# capped at one; set before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ZENTROPY_OUT", None)  # would redirect the CLI's outputs

if not (SRC / "zentropy" / "cli.py").is_file():
    print(f"perfbench: no zentropy source under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
import zentropy  # noqa: E402
from tracing import ROOT as ROOT_SPAN, UNITS, Tracer  # noqa: E402
from zentropy import cli  # noqa: E402

SETUP_REPEATS = 7       # fresh interpreters timed per run for setup_s

# Reference kernel parts (hostspeed.py) whose slowdown matches each
# workload's when the host slows. grid-mc's walk kernel is bound by memory
# bandwidth, like the `walks` part; the other three are interpreted numpy
# calls and loops, which slow more than `walks` does. The setup probes use
# every part.
INTERPRETED = ("push_forward", "event_loop")
REFERENCE_PARTS = {
    "grid-exact": INTERPRETED,
    "grid-mc": hostspeed.PARTS,
    "stream": INTERPRETED,
    "train-shaped": INTERPRETED,
}
MIN_OPS = 3             # per timed kind (untraced, traced), whatever --seconds says

IMPORT_PROBE = ("import time\n"
                "t = time.perf_counter()\n"
                "import zentropy, zentropy.cli\n"
                "print(time.perf_counter() - t)\n")

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_to_one_cpu() -> None:
    """Run on the lowest CPU this process may use.

    The setup probes and the reference kernel's process inherit the pin, so
    the kernel measures the speed of the CPU that ran the op or the probe.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(kernel: hostspeed.ReferenceProcess) -> tuple:
    """Seconds fresh interpreters take to import zentropy and its CLI.

    Returns (median normalised seconds, raw seconds of each probe). Each
    probe is normalised by the mean of the reference times just before and
    just after it.
    """
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    raw, normalised = [], []
    ref_before = kernel.seconds()
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        ref_after = kernel.seconds()
        if i:  # the first one may compile bytecode
            seconds = float(done.stdout.strip())
            raw.append(seconds)
            normalised.append(hostspeed.normalised(seconds, ref_before, ref_after))
        ref_before = ref_after
    return statistics.median(normalised), raw


# -- environment record -------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "zentropy_backend": zentropy.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


# -- ops ------------------------------------------------------------------------

def output_counters(workload: str, out: Path) -> dict:
    """Per-op counts read from the program's output files."""
    counts = {"cli.bytes_written": sum(p.stat().st_size for p in out.iterdir()),
              "anomaly_detect.events_flagged": 0, "rl_agent.z_refreshes": 0,
              "rl_agent.env_steps": 0}
    if workload == "stream":
        counts["anomaly_detect.events_flagged"] = checks.read_json(out / "summary.json")["flag_count"]
    elif workload == "train-shaped":
        result = checks.read_json(out / "train_result.json")
        counts["rl_agent.z_refreshes"] = len(result["z_snapshots"])
        counts["rl_agent.env_steps"] = sum(result["steps_to_goal"])
    return counts


def run_op(argv: list, tracer) -> tuple:
    """(wall seconds, exit code or None if it raised) of one CLI call."""
    gc.collect()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span(ROOT_SPAN):
                    rc = cli.main(argv)
        except Exception:  # the op fails; the run goes on and reports it
            traceback.print_exc()
            rc = None
        seconds = perf_counter() - t0
    return seconds, rc


class Run:
    """Ops of one benchmark run and what they measured.

    `untraced` and `traced` hold wall seconds, `untraced_norm` and
    `traced_norm` the same ops normalised by the mean of the reference times
    just before and just after each op, and `untraced_items` the items of
    each untraced op that passed its check (0 if it failed).
    """

    def __init__(self, workload: str, workdir: Path, kernel: hostspeed.ReferenceProcess):
        self.workload = workload
        self.workdir = workdir
        self.kernel = kernel
        self.attempted = self.failed = 0
        self.untraced: list = []
        self.traced: list = []
        self.untraced_norm: list = []
        self.traced_norm: list = []
        self.untraced_items: list = []
        self.references: list = []
        self.layers: list = []
        self.references.append(kernel.seconds())

    def _record(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: {what} failed: {problems[:3]}", file=sys.stderr)
            return False
        return True

    def preflight(self) -> None:
        """The corridor golden values, once per run, untimed."""
        out = self.workdir / "preflight"
        argv = ["gridworld", "--config", str(ROOT / "configs" / "corridor.json"),
                "--out", str(out)]
        _, rc = run_op(argv, None)
        self._record("preflight", checks.check_corridor(out) if rc == 0
                     else [f"exit code {rc}"])

    def op(self, inp, traced: bool) -> None:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = inp.write(self.workdir) + ["--out", str(out)]
        tracer = Tracer() if traced else None
        seconds, rc = run_op(argv, tracer)
        self.references.append(self.kernel.seconds())
        norm = hostspeed.normalised(seconds, self.references[-2], self.references[-1],
                                    REFERENCE_PARTS[self.workload])
        (self.traced if traced else self.untraced).append(seconds)
        (self.traced_norm if traced else self.untraced_norm).append(norm)
        try:
            problems = checks.CHECKS[self.workload](inp, out) if rc == 0 \
                else [f"exit code {rc}"]
        except (OSError, ValueError, KeyError) as e:
            problems = [f"unreadable output: {e!r}"]
        passed = self._record(f"op {len(self.untraced) + len(self.traced) - 1}", problems)
        if not traced:
            self.untraced_items.append(inp.items if passed else 0)
        elif passed:
            self.layers.append({**tracer.layer_metrics(),
                                **output_counters(self.workload, out)})


def measure(args, workdir: Path, kernel: hostspeed.ReferenceProcess) -> Run:
    """Ops until --seconds have passed; with --trace 1, every other op traced."""
    run = Run(args.workload, workdir, kernel)
    run.preflight()
    generate = workloads.GENERATORS[args.workload]
    start = perf_counter()
    op = 0
    while (perf_counter() - start < args.seconds or len(run.untraced) < MIN_OPS
           or (args.trace and len(run.traced) < MIN_OPS)):
        run.op(generate(args.seed, op), traced=bool(args.trace) and op % 2 == 1)
        op += 1
    return run


def end_to_end(run: Run, setup_s: float) -> dict:
    """End-to-end metrics; setup_s and the op times are normalised seconds."""
    values = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(run.untraced_norm),
        "items_per_s": statistics.median(
            items / s for items, s in zip(run.untraced_items, run.untraced_norm)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(run: Run) -> dict:
    if not run.layers:
        return {}
    values = {k: statistics.median(r[k] for r in run.layers) for k in run.layers[0]}
    values["trace_overhead_ratio"] = (statistics.median(run.traced_norm)
                                      / statistics.median(run.untraced_norm))
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    env = environment()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        with hostspeed.ReferenceProcess() as kernel:
            setup_s, setup_raw = (None, []) if args.trace else measure_setup(kernel)
            run = measure(args, workdir, kernel)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.rmdir()

    metrics = per_layer(run) if args.trace else end_to_end(run, setup_s)
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "setup_raw_s": setup_raw,
                      "untraced_op_s": run.untraced, "traced_op_s": run.traced,
                      "untraced_op_norm_s": run.untraced_norm,
                      "traced_op_norm_s": run.traced_norm,
                      "reference_s": run.references}))
    print(json.dumps({"correct": run.failed == 0 and bool(metrics),
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
