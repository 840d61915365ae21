#!/usr/bin/env python3
"""Benchmark of gauge_mps: the certify and canonicalize workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see perfbench/README.md).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the environment record and the
verdict digest.  A full record, and in a traced run every span, is written
to .perfbench_out/ at the root of the checkout.

This process only orchestrates.  The workload runs in fresh interpreters:
a set-up-only one before and after the worker (for setup_s and import_s),
and the worker, which sets up and then times a closed loop of requests, one
client waiting for each reply, starting an import-only interpreter after
each cycle.  BLAS and OpenMP threads are pinned to BLAS_THREADS in all of
them.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

BLAS_THREADS = 1       # at most nproc; one thread keeps the timings steady
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORTTIME_SAMPLES = 3
MIN_REQUESTS = 100     # so that at least 10 latencies lie beyond p90
TIME_LIMIT_S = 170     # the whole run, children included
WORKER_MARGIN_S = 25   # the worker starts no request this close to the limit
TRACE_CYCLES = 2       # per phase of a traced run, so that counts repeat
WORKLOAD_NAMES = ("certify", "canonicalize")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed seconds to reach (untraced runs; a traced run "
                        "runs a fixed number of cycles)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run only the warm-up requests once (for tests)")
    # internal: how the orchestrator starts its children
    p.add_argument("--role", choices=("main", "import", "setup", "worker"),
                   default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--t-spawn", type=float, help=argparse.SUPPRESS)
    p.add_argument("--deadline", type=float, help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------------
# orchestrator


def child_env():
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args, role, workdir, deadline):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--workdir", str(workdir),
           "--deadline", repr(deadline), "--t-spawn", repr(time.monotonic())]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scipy_import_s(deadline):
    """Share of `import gauge_mps` spent importing scipy (self times of the
    scipy.* rows of -X importtime), median over fresh interpreters."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gauge_mps"],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()), check=True)
        total_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 \
                    and parts[0].split(":")[1].strip().isdigit():
                name = parts[2].strip()
                if name == "scipy" or name.startswith("scipy."):
                    total_us += int(parts[0].split(":")[1])
        samples.append(total_us * 1e-6)
    return statistics.median(samples)


def end_to_end(setups, imports, work):
    """The end-to-end metrics from the set-up samples, the import samples
    (seconds) and the worker's record."""
    lat = work["latencies"]
    attempted = len(lat)
    completed = attempted - work["failed"]
    deciles = statistics.quantiles(lat, n=10, method="inclusive") \
        if attempted > 1 else lat * 9
    return {
        "requests_per_s": (completed / work["timed_s"], "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (deciles[8], "s"),
        "success_ratio": (completed / attempted, "1"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "import_s": (statistics.median(imports), "s"),
        "peak_rss_mb": (work["peak_rss_mb"], "MB"),
    }


def main(args):
    if not (SRC / "gauge_mps" / "__init__.py").is_file():
        print(f"error: no gauge_mps package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = WORK_DIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # one set-up-only child before the worker and one after it, so that
        # the samples span the run rather than one moment of it
        sampled = not (args.smoke or args.trace)
        setups = [run_child(args, "setup", workdir, deadline)] if sampled else []
        work = run_child(args, "worker", workdir, deadline)
        setups += [work] + (
            [run_child(args, "setup", workdir, deadline)] if sampled else [])
        imports = [s["import_s"] for s in setups] + work["import_samples"]
        if args.trace:
            metrics = dict(work["per_layer"])
            metrics["import.scipy_s"] = (scipy_import_s(deadline), "s")
            metrics["trace.overhead_ratio"] = (work["overhead_ratio"], "1")
        else:
            metrics = end_to_end(setups, imports, work)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:   # another run still uses it
            pass
    result = {
        "correct": work["failed"] == 0,
        "attempted": len(work["latencies"]),
        "failed": work["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": work["environment"], "verdict_digest": work["digest"],
            "cycles": work["cycles"], "absent": work.get("absent", []),
            "setup_samples": [s["setup_s"] for s in setups],
            "import_samples": imports}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"info": info, "result": result,
                   "latencies": work["latencies"]}, fh, indent=1)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------------
# children: set-up, and the worker that also runs the timed loop


def environment():
    import platform

    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_model": cpu_model,
        "caches": {k: caches[k] for k in ("L2", "L3") if k in caches},
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Loop:
    """A closed loop with one client: each request starts when the previous
    one has returned and been checked."""

    def __init__(self, workload, seed, workdir, tracer=None):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.tracer = tracer
        self.latencies, self.tokens = [], []
        self.failed = 0
        self.timed_s = 0.0

    def request(self, template, index):
        req = self.workload.make(template, self.seed, index, self.workdir)
        gc.collect()
        span = self.tracer.request(index, req.kind, req.size) \
            if self.tracer else nullcontext()
        error = None
        t0 = time.perf_counter()
        try:
            with span:
                out = req.call()
        except Exception as exc:  # counted as failed below, after timing
            error = exc
        latency = time.perf_counter() - t0
        try:
            if error is not None:
                raise error
            token = req.check(out)
        except Exception as exc:  # the call raised, or its output is wrong
            self.failed += 1
            token = ["failed", req.kind, repr(exc)]
            print(f"request failed: {req.kind}: {exc!r}", file=sys.stderr)
        finally:
            req.close()
        self.latencies.append(latency)
        self.timed_s += latency
        self.tokens.append(token)

    def cycles(self, templates, first_index, count=None, seconds=None,
               deadline=None, between=None):
        """Run whole passes over `templates`: `count` of them, or until
        `seconds` of timed requests and MIN_REQUESTS are reached.  The
        untimed `between` runs after each pass."""
        index, done = first_index, 0
        start_timed, start_n = self.timed_s, len(self.latencies)
        while True:
            for template in templates:
                if deadline is not None and time.monotonic() > deadline:
                    return index, done
                self.request(template, index)
                index += 1
            done += 1
            if between is not None:
                between()
            if count is not None and done >= count:
                return index, done
            if seconds is not None and self.timed_s - start_timed >= seconds \
                    and len(self.latencies) - start_n >= MIN_REQUESTS:
                return index, done

    def digest(self):
        """Hash of the distinct verdict tokens: exit codes, failing windows
        and structures, never residual digits."""
        distinct = sorted({json.dumps(t, sort_keys=True) for t in self.tokens})
        return hashlib.sha256("\n".join(distinct).encode()).hexdigest()[:16]


WARMUP_INDEX = 10 ** 9   # warm-up inputs come from their own index range


def child(args):
    t = time.monotonic()
    import gauge_mps
    import_s = time.monotonic() - t
    if Path(gauge_mps.__file__).resolve().parent != SRC / "gauge_mps":
        raise RuntimeError(f"imported gauge_mps from {gauge_mps.__file__}")
    if args.role == "import":
        return {"import_s": import_s}
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    for name in wl.catalogs:
        gauge_mps.reps.builtin_catalog(name)
    warm = Loop(wl, args.seed, args.workdir)
    warm.cycles(wl.warmup, WARMUP_INDEX, count=1)
    if warm.failed:
        raise RuntimeError("a warm-up request failed its check")
    setup_s = time.monotonic() - args.t_spawn
    if args.role == "setup":
        return {"import_s": import_s, "setup_s": setup_s}

    deadline = args.deadline - WORKER_MARGIN_S
    templates = wl.warmup if args.smoke else wl.cycle
    out = {"import_s": import_s, "setup_s": setup_s, "import_samples": []}
    loop = Loop(wl, args.seed, args.workdir)
    if args.trace:
        count = 1 if args.smoke else TRACE_CYCLES
        index, _ = loop.cycles(templates, 0, count=count, deadline=deadline)
        untraced_s = loop.timed_s
        tracer = tracing.Tracer().install(gauge_mps)
        traced = Loop(wl, args.seed, args.workdir, tracer)
        try:
            _, cycles = traced.cycles(templates, index, count=count,
                                      deadline=deadline)
        finally:
            tracer.uninstall()
        out.update(per_layer=tracer.per_layer(), absent=tracer.absent,
                   overhead_ratio=untraced_s / traced.timed_s)
        write_trace(args, tracer)
        loop.latencies += traced.latencies
        loop.tokens += traced.tokens
        loop.failed += traced.failed
        loop.timed_s += traced.timed_s
    elif args.smoke:
        _, cycles = loop.cycles(templates, 0, count=1, deadline=deadline)
    else:
        # an import-only child after each cycle: import_s samples that span
        # the timed loop
        def sample_import():
            sample = run_child(args, "import", args.workdir, args.deadline)
            out["import_samples"].append(sample["import_s"])

        _, cycles = loop.cycles(templates, 0, seconds=args.seconds,
                                deadline=deadline, between=sample_import)
    out.update(
        latencies=loop.latencies, failed=loop.failed, timed_s=loop.timed_s,
        cycles=cycles, digest=loop.digest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        environment=environment())
    return out


def write_trace(args, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": ["id", "parent", "name", "start_s", "end_s",
                                        "request", "size_d_D_N_G"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
        for req, summary in sorted(tracer.request_summaries().items()):
            fh.write(json.dumps({"request": req, **summary}) + "\n")


if __name__ == "__main__":
    ARGS = parse_args()
    if ARGS.role == "main":
        sys.exit(main(ARGS))
    print(json.dumps(child(ARGS)))
