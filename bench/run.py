"""Benchmark for spincorr: end-to-end CLI metrics and per-layer times.

    python3 bench/run.py --workload chsh-hv-1w --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --seconds 10          # every workload, one line each

Run it from anywhere inside a checkout; the program is taken from ``src/``
next to this directory, with no install step.

``--trace 0`` starts fresh ``python3 -m spincorr`` processes one at a time for
``--seconds`` seconds and reports the medians of the end-to-end metrics
(the largest peak for ``peak_rss_mb``).
``--trace 1`` runs the same command in this process, alternately plain and
with the layer wrappers of ``layers.py`` installed, and reports per-layer
numbers; traced numbers never feed the end-to-end metrics.  Every document is
checked by ``checks.py``; an invocation that exits non-zero or writes a
document that fails a check counts as failed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

# One BLAS thread per process, so an invocation runs at most --workers busy
# threads.  Set before numpy is imported here (trace mode) and inherited by
# every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))

HARD_LIMIT_S = 170.0  # a run ends within the 180 s its caller allows
SETUP_REPEATS = 9
SMALL_N = 1000  # size of the worker-count byte-identity check


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    n: int
    workers: int
    fmt: str
    trials_per_n: int  # trials sampled per unit of --n
    check: Callable[[str, int, int], list[str]]

    def argv(self, seed: int, out: Path, n: int | None = None, workers: int | None = None) -> list[str]:
        return [*self.args, "--n", str(n or self.n), "--seed", str(seed),
                "--workers", str(workers or self.workers), "--format", self.fmt, "--out", str(out)]


WORKLOADS = {w.name: w for w in (
    Workload("chsh-hv-1w", ("chsh", "--model", "hv"), 10_000_000, 1, "csv", 4, checks.check_chsh_hv),
    Workload("chsh-transfer-2w", ("chsh", "--model", "transfer"), 10_000_000, 2, "csv", 1,
             checks.check_chsh_transfer),
    Workload("sweep-fine-2w", ("sweep", "--grid", "0:180:0.1", "--deg"), 2000, 2, "json", checks.SWEEP_ROWS,
             checks.check_sweep),
)}

UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "trials/s", "cpu_s": "s", "peak_rss_mb": "MB",
         "cli.document_bytes": "bytes"}


def _unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def spawn(args: list[str], log: Path, deadline: float) -> tuple[int, float, float, float]:
    """Run ``python3 <args>`` to its exit: (exit code, wall s, CPU s, peak RSS MB) of that child."""
    with open(log, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=ENV,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Verdicts:
    """Checks each distinct document once; every successful document must be the same bytes."""

    def __init__(self, workload: Workload, seed: int):
        self.workload, self.seed = workload, seed
        self.problems: dict[str, list[str]] = {}

    def judge(self, code: int, doc: Path, log: Path | None = None) -> list[str]:
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:] if log else []
            return [f"exit code {code}", *tail]
        try:
            text = doc.read_text(encoding="utf-8")
        except OSError as exc:
            return [f"no document: {exc}"]
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self.problems:
            try:
                self.problems[digest] = self.workload.check(text, self.workload.n, self.seed)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                self.problems[digest] = [f"malformed document: {exc!r}"]
        return self.problems[digest]

    @property
    def deterministic(self) -> bool:
        return sum(1 for p in self.problems.values() if not p) <= 1


def steal_seconds() -> float | None:
    """CPU time the hypervisor has given to other guests since boot (Linux), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _fail(problems: list[str], what: str) -> None:
    print(f"FAILED {what}: " + "; ".join(problems[:5]), file=sys.stderr)


def workers_identical(workload: Workload, seed: int, run_dir: Path, deadline: float) -> bool:
    """A small-n document must be byte-identical at --workers 1 and 2."""
    texts = []
    for workers in (1, 2):
        doc = run_dir / f"small-{workers}w.{workload.fmt}"
        argv = workload.argv(seed, doc, SMALL_N, workers)
        code, *_ = spawn(["-m", "spincorr", *argv], run_dir / "stderr.txt", deadline)
        texts.append(doc.read_bytes() if code == 0 and doc.exists() else None)
    ok = texts[0] is not None and texts[0] == texts[1]
    if not ok:
        _fail(["documents differ or a run failed"], f"{workload.name} small-n byte identity")
    return ok


def run_cli(workload: Workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics from fresh CLI processes, started one at a time."""
    deadline = perf_counter() + HARD_LIMIT_S
    run_dir = OUT / f"{workload.name}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    log, doc = run_dir / "stderr.txt", run_dir / f"doc.{workload.fmt}"
    correct = workers_identical(workload, seed, run_dir, deadline)

    setup = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = spawn(["-c", "import spincorr.cli"], log, deadline)
        if code != 0:
            raise SystemExit(f"bench: cannot import spincorr.cli from {SRC}")
        setup.append(wall)
    setup_s = statistics.median(setup)

    verdicts = Verdicts(workload, seed)
    samples, attempted, failed = [], 0, 0
    steal_before, start = steal_seconds(), perf_counter()
    end = start + seconds
    while attempted == 0 or perf_counter() < end:
        attempted += 1
        doc.unlink(missing_ok=True)
        code, wall, cpu, rss = spawn(["-m", "spincorr", *workload.argv(seed, doc)], log, deadline)
        problems = verdicts.judge(code, doc, log)
        if problems:
            failed += 1
            _fail(problems, f"{workload.name} invocation {attempted}")
        else:
            samples.append((wall, cpu, rss))
    steal_after, elapsed = steal_seconds(), perf_counter() - start
    steal_share = None if steal_before is None else (steal_after - steal_before) / (elapsed * (os.cpu_count() or 1))
    if steal_share is not None and steal_share > 0.05:
        print(f"bench: the hypervisor took {steal_share:.0%} of this machine's CPU time during the run; "
              "wall_s and trials_per_s are inflated, cpu_s much less", file=sys.stderr)
    (run_dir / "samples.json").write_text(
        json.dumps({"setup_s": setup, "wall_cpu_rss": samples, "steal_share": steal_share}) + "\n")
    if not samples:
        raise SystemExit(f"bench: every {workload.name} invocation failed")

    trials = workload.trials_per_n * workload.n
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(s[0] for s in samples),
        "trials_per_s": statistics.median(trials / (s[0] - setup_s) for s in samples),
        "cpu_s": statistics.median(s[1] for s in samples),
        # The two workers' temporaries overlap by chance, so one invocation's
        # peak varies; the largest peak of the run is what a user must provision.
        "peak_rss_mb": max(s[2] for s in samples),
    }
    return _result(correct and verdicts.deterministic, attempted, failed, metrics)


SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import spincorr.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def setup_layers(deadline: float) -> dict:
    numpy_s, spincorr_s = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=ENV, capture_output=True,
                              text=True, timeout=max(1.0, deadline - perf_counter()), check=True)
        a, b = map(float, done.stdout.split())
        numpy_s.append(a)
        spincorr_s.append(b)
    return {"setup.numpy_import_s": statistics.median(numpy_s),
            "setup.spincorr_import_s": statistics.median(spincorr_s)}


def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics from the same command run in this process, plain and traced in turn."""
    deadline = perf_counter() + HARD_LIMIT_S
    run_dir = OUT / f"{workload.name}-seed{seed}-trace"
    run_dir.mkdir(parents=True, exist_ok=True)
    metrics = setup_layers(deadline)

    sys.path.insert(0, str(SRC))
    import layers
    from spincorr import cli

    doc = run_dir / f"doc.{workload.fmt}"
    argv = workload.argv(seed, doc)
    verdicts = Verdicts(workload, seed)
    plain, traced, per_run = [], [], []
    attempted = failed = 0

    def command(tracer: layers.Tracer | None, timed: bool = True) -> None:
        nonlocal attempted, failed
        attempted += 1
        start = perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            with layers.traced(tracer):
                code = cli.main(argv)
        elapsed = perf_counter() - start
        problems = verdicts.judge(code, doc)
        if problems:
            failed += 1
            _fail(problems, f"{workload.name} in-process run {attempted}")
        elif tracer is not None:
            traced.append(elapsed)
            per_run.append({**layers.layer_metrics(tracer.spans), "cli.document_bytes": doc.stat().st_size})
            tracer.write(run_dir / "trace.jsonl")
        elif timed:
            plain.append(elapsed)

    command(None, timed=False)  # pays one-time costs
    end = perf_counter() + seconds
    plain_first = True
    while attempted == 1 or perf_counter() < end:
        pair = (None, layers.Tracer())
        for tracer in pair if plain_first else pair[::-1]:
            command(tracer)
        plain_first = not plain_first
    if not traced or not plain:
        raise SystemExit(f"bench: every traced {workload.name} run failed")

    for name in per_run[0]:
        metrics[name] = statistics.median(run[name] for run in per_run)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return _result(verdicts.deterministic, attempted, failed, metrics)


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1, help="seed passed to the program as --seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = parser.parse_args(argv)
    if not (SRC / "spincorr" / "cli.py").is_file():
        print(f"bench: program source not found at {SRC}", file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_cli
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        result = run(WORKLOADS[name], args.seed, args.seconds)
        line = json.dumps(result)
        print(line if args.workload else f"{name}: {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
