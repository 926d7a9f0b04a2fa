#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mbqc CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload stab_wide --seed 1 --seconds 25 --trace 0

A workload is a fixed, seed-generated list of ``mbqc`` jobs (see
``workloads.py``).  With ``--trace 0`` the jobs run as subprocesses in a
closed loop, one at a time, cycling through the list until ``--seconds``
have passed (every job runs at least once); the end-to-end metrics are
printed.  With ``--trace 1`` the list runs once untraced and twice in
process under the layer tracer of ``tracing.py``; the per-layer metrics are
printed.  Every output is checked by the oracles in ``oracles.py`` outside
the timed region; a job fails if it exits non-zero or its output is wrong.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run artefacts (the full result
with the environment, and the spans of a traced run) go to
``.perfbench_out/`` under the repository root.
"""
import os

# one client, one job at a time, and no helper threads in numpy's BLAS either
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017          # reserved for confirming claims; never tune on it
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0               # a run must end within 180 s
COUNT_METRICS = ("cli.out_bytes", "engine.branches", "tableau.measure.calls",
                 "tableau.random_ratio", "pauli.mul.calls", "statevector.apply_cz.calls",
                 "statevector.measure.calls", "statevector.bytes", "statevector.peak_qubits",
                 "compiler.sites", "graphs.graph_init.calls", "rng.draws")
EXPECTED_COUNTS = ("tableau.measure.calls", "statevector.apply_cz.calls",
                   "compiler.sites", "engine.branches")
WALL_KEY = b'"wall_time_ms":'


class Sample:
    """One job execution: timings, peak memory, and its output."""

    def __init__(self, job, rc, wall_s, rss_kb, out: bytes, err: str):
        self.job, self.rc, self.wall_s, self.rss_kb, self.err = job, rc, wall_s, rss_kb, err
        cut = out.rfind(WALL_KEY)
        self.compute_s = None
        self.content = out[:cut] if cut >= 0 else out
        if rc == 0 and cut >= 0:
            try:
                self.compute_s = float(out[cut + len(WALL_KEY):].split()[0].rstrip(b",}")) / 1000
            except (ValueError, IndexError):
                pass
        self.digest = hashlib.sha256(self.content).hexdigest()
        self.error = None if self.compute_s is not None else (
            f"exit {rc}: {err.strip()[-200:]}" if rc else "no wall_time_ms in the report")

    def result(self) -> dict:
        """The report's ``result`` object (the content minus ``wall_time_ms``)."""
        return json.loads(self.content + b'"wall_time_ms": 0}')["result"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MBQC_CAP", None)
    return env


def run_job(job, argv, workdir: Path, env: dict, stop_at: float) -> Sample:
    """Run ``mbqc argv`` in a subprocess; peak RSS comes from this child's own
    rusage (os.wait4), not from the running maximum over all children."""
    err_path = workdir / ".stderr"
    chunks = []
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "mbqc.cli", *argv], cwd=workdir,
                                env=env, stdout=subprocess.PIPE, stderr=err)
        fd = proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                left = stop_at - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    break
                if not sel.select(timeout=left):
                    continue
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return Sample(job, proc.returncode, wall, usage.ru_maxrss, b"".join(chunks),
                  err_path.read_text(errors="replace"))


def setup(name: str, seed: int, workdir: Path, env: dict, stop_at: float):
    """Generate the inputs and make one warm-up invocation (fills bytecode caches)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    wl = workloads.build(name, seed, str(workdir))
    warm = run_job(None, wl.warmup, workdir, env, stop_at)
    return wl, time.perf_counter() - t0, warm


def verify(samples, workdir: Path, cache: dict) -> None:
    """Set ``sample.error`` from the oracle, checking each distinct output once."""
    for s in samples:
        if s.error is not None or s.job is None:
            continue
        key = (s.job.id, s.digest)
        if key not in cache:
            try:
                result = s.result()
            except (ValueError, KeyError) as exc:
                cache[key] = f"unparsable report: {exc}"
            else:
                cache[key] = oracles.check(result, s.job, str(workdir))
        s.error = cache[key]


def per_job_medians(samples, attr: str) -> dict:
    by_job: dict = {}
    for s in samples:
        by_job.setdefault(s.job.id, []).append(getattr(s, attr))
    return {jid: statistics.median(v) for jid, v in by_job.items()}


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"l{level}"] = (idx / "size").read_text().strip()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **caches,
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}


# -- untraced end-to-end run ------------------------------------------------------------------

def end_to_end(wl, workdir, env, seconds, setup_times, stop_at, cache):
    jobs = wl.jobs
    deadline = time.perf_counter() + seconds
    samples = []
    i = 0
    while i < len(jobs) or time.perf_counter() < deadline:
        if time.perf_counter() >= stop_at:
            break
        job = jobs[i % len(jobs)]
        samples.append(run_job(job, job.argv, workdir, env, stop_at))
        i += 1
    verify(samples, workdir, cache)
    ok = [s for s in samples if s.error is None]
    failed = len(samples) - len(ok)
    if not ok:
        return samples, {}, {}
    walls = per_job_medians(ok, "wall_s")
    computes = per_job_medians(ok, "compute_s")
    slowest = max(walls, key=walls.get)
    metrics = {
        "wall_s": (sum(walls.values()), "s"),
        "compute_s": (sum(computes.values()), "s"),
        "startup_s": (statistics.median(s.wall_s - s.compute_s for s in ok), "s"),
        "job_p50_s": (statistics.median(walls.values()), "s"),
        "job_tail_s": (walls[slowest], "s"),
        "peak_rss_mb": (max(s.rss_kb for s in ok) / 1024, "MB"),
        "pass_ratio": ((len(samples) - failed) / len(samples), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    detail = {"samples": len(ok), "slowest_job": slowest, "setup_times_s": setup_times,
              "jobs": {jid: {"runs": sum(1 for s in ok if s.job.id == jid),
                             "wall_s": walls[jid], "compute_s": computes[jid]}
                       for jid in walls}}
    return samples, metrics, detail


# -- traced in-process run -------------------------------------------------------------------

def traced_pass(wl, workdir: Path):
    """Run every job once through ``mbqc.cli.main`` under a fresh tracer."""
    from mbqc import cli
    tracer = tracing.Tracer()
    samples = []
    cwd = os.getcwd()
    os.chdir(workdir)
    tracer.install()
    try:
        for job in wl.jobs:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = tracer.run_root(job.id, cli.main, list(job.argv))
            except Exception as exc:      # a crash inside the program is a failed job
                rc, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
            samples.append(Sample(job, rc, 0.0, 0, out.getvalue().encode(), err.getvalue()))
    finally:
        tracer.uninstall()
        os.chdir(cwd)
    return tracer, samples


def layer_metrics(tracer, traced, untraced) -> dict:
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    m = {"cli.startup_s": (statistics.median(s.wall_s - s.compute_s for s in untraced
                                             if s.compute_s is not None), "s"),
         "cli.out_bytes": (sum(len(s.content) for s in traced), "B"),
         "engine.branches": (counts["engine.branches"], "count"),
         "tableau.measure.calls": (calls["tableau.measure"], "count"),
         "pauli.mul.calls": (calls["pauli.mul"], "count"),
         "statevector.apply_cz.calls": (calls["statevector.apply_cz"], "count"),
         "statevector.measure.calls": (calls["statevector.measure"], "count"),
         "statevector.bytes": (counts["statevector.bytes"], "B"),
         "statevector.peak_qubits": (counts["statevector.peak_qubits"], "qubits"),
         "compiler.sites": (counts["compiler.sites"], "count"),
         "graphs.graph_init.calls": (calls["graphs.graph_init"], "count"),
         "rng.draws": (calls["rng"], "count")}
    words = counts["tableau.measure.words"]
    m["tableau.measure.us_per_kword"] = (
        self_s["tableau.measure"] * 1e6 / (words / 1000) if words else 0.0, "us/kword")
    n_rand = counts["tableau.random_calls"]
    m["tableau.random_ratio"] = (counts["tableau.random_true"] / n_rand if n_rand else 0.0,
                                 "ratio")
    for g in tracing.GROUPS:
        m[f"{g}.self_s"] = (self_s[g], "s")
    traced_compute = sum(s.compute_s or 0.0 for s in traced)
    untraced_compute = sum(s.compute_s or 0.0 for s in untraced)
    m["trace.total_s"] = (tracer.total_s(), "s")
    m["trace.overhead_s"] = (traced_compute - untraced_compute, "s")
    return m


def traced(wl, workdir, env, stop_at, cache, name, seed):
    untraced = [run_job(job, job.argv, workdir, env, stop_at) for job in wl.jobs]
    passes = [traced_pass(wl, workdir) for _ in range(2)]
    samples = untraced + passes[0][1] + passes[1][1]
    verify(samples, workdir, cache)
    problems = []
    for s_u, s_1, s_2 in zip(untraced, passes[0][1], passes[1][1]):
        if s_u.error is None and not (s_u.digest == s_1.digest == s_2.digest):
            s_1.error = s_1.error or "traced output differs from the untraced output"
    if any(s.error for s in samples):
        return samples, {}, problems
    tracer, last = passes[1]
    metrics = layer_metrics(tracer, last, untraced)
    first = layer_metrics(passes[0][0], passes[0][1], untraced)
    for key in COUNT_METRICS:
        if first[key][0] != metrics[key][0]:
            problems.append(f"count {key} differs between two traced passes: "
                            f"{first[key][0]} vs {metrics[key][0]}")
    expected = {k: 0 for k in EXPECTED_COUNTS}
    for job, s in zip(wl.jobs, last):
        for k, v in job.expect.items():
            expected[k] += v
        if job.kind == "branches":
            expected["engine.branches"] += s.result()["n_branches"]
    for k, want in expected.items():
        if metrics[k][0] != want:
            problems.append(f"{k} = {metrics[k][0]}, inputs imply {want}")
    self_sum = sum(v for k, (v, _) in metrics.items()
                   if k.endswith(".self_s") and not k.startswith("trace."))
    total = metrics["trace.total_s"][0]
    if abs(self_sum - total) > 1e-6 * total + 1e-9:
        problems.append(f"layer self times sum to {self_sum}, traced total is {total}")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(str(OUT / f"spans-{name}-seed{seed}.jsonl"))
    return samples, metrics, problems


# -- main ------------------------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    stop_at = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "mbqc" / "cli.py").is_file():
        print(f"perfbench: no mbqc sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    cache: dict = {}
    try:
        setup_times, warmups = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            wl, dt, warm = setup(args.workload, args.seed, workdir, env, stop_at)
            setup_times.append(dt)
            warmups.append(warm)
        if args.trace:
            samples, metrics, problems = traced(wl, workdir, env, stop_at, cache,
                                                args.workload, args.seed)
            detail = {}
        else:
            samples, metrics, detail = end_to_end(wl, workdir, env, args.seconds,
                                                  setup_times, stop_at, cache)
            problems = []
        twins = [] if args.trace else wl.twins
        problems += [f"twin {i}: {e}" for i, twin in enumerate(twins)
                     if (e := oracles.check_twin(twin))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = warmups + samples
    failures = [s for s in samples if s.error is not None]
    for s in failures[:10]:
        print(f"FAILED {s.job.id if s.job else 'warm-up'}: {s.error}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    env_info = environment()
    print("environment: " + json.dumps(env_info, sort_keys=True))
    if detail:
        print(f"job_tail_s is the median wall time of the slowest job, {detail['slowest_job']} "
              f"({detail['jobs'][detail['slowest_job']]['runs']} of {detail['samples']} samples); "
              f"no percentile above p50 has ten samples beyond it in a run this size")
    for k, (v, unit) in metrics.items():
        print(f"{k:32s} {v:16.6f} {unit}")
    result = {"correct": not failures and not problems and bool(metrics),
              "attempted": len(samples), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**result, "environment": env_info, "detail": detail,
                   "problems": problems}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
