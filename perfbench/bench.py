"""Timed and traced runs of one workload through the bosetraj CLI.

A run repeats the workload's round of CLI invocations in this process,
closed-loop (one invocation at a time), for about the requested number
of seconds: a new round starts only while the median round still fits.
Timed runs report end-to-end metrics with tracing off; traced runs
alternate untraced and traced rounds and report per-layer metrics plus
the tracing overhead.

End-to-end times are scaled to nominal machine speed: after every round
(and after each set-up probe) the run times a fixed reference bundle
(`reference.py`), and every time is multiplied by the bundle's nominal
time over its median measured time. The unscaled values are printed on
the `# raw` line.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from reference import Reference
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120

# name -> unit; which way is better, and the bounds, live in BENCHMARK.json
END_TO_END = {"setup_s": "s", "solve_s": "s", "cpu_s": "s",
              "traj_per_s": "1/s", "peak_rss_mb": "MB"}
OVERHEAD = "trace_overhead_frac"


@dataclass
class Round:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    items: int = 0
    bytes_out: int = 0
    ok: list = field(default_factory=list)         # per call
    digests: list = field(default_factory=list)    # per call, of its outdir

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def _digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(outdir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_round(calls, outdir: Path, cli, traced: bool) -> Round:
    """Invoke each call once; time only the CLI calls themselves."""
    r = Round(traced=traced)
    for i, call in enumerate(calls):
        out = outdir / f"call{i}"
        argv = [*call.argv, "--outdir", str(out)]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as e:          # argparse rejects bad flags this way
            code = e.code
        except Exception:
            traceback.print_exc()
            code = None
        r.wall += time.perf_counter() - t0
        r.cpu += time.process_time() - c0
        r.items += call.items
        if code in call.ok_exits:
            try:
                problems = call.check(out)
            except (OSError, ValueError, KeyError) as e:
                problems = [f"unreadable output: {e!r}"]
        else:
            problems = [f"exit code {code}"]
        if out.is_dir():
            r.digests.append(_digest(out))
            r.bytes_out += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        else:
            r.digests.append(None)
        r.ok.append(not problems)
        if problems:
            print(f"# FAIL {call.argv[0]}: " + "; ".join(problems[:5]), file=sys.stderr)
    shutil.rmtree(outdir, ignore_errors=True)
    return r


def _commit() -> str:
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
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"commit": _commit(), "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def setup_times(name: str, size: str) -> list:
    """Import plus model set-up, each in a fresh interpreter.

    Returns (seconds, seconds scaled to nominal speed) per probe.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(PROBE), name, size],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(tuple(float(x) for x in proc.stdout.split()[-2:]))
    return times


def run_rounds(calls, seconds: float, trace: bool, workdir: Path):
    """Rounds until the next median-length round would overrun `seconds`.

    With tracing, rounds run untraced, traced, traced, untraced and so
    on (so slow drift and first-round warm-up cancel out of the tracing
    overhead), and there is at least one of each.
    """
    from bosetraj import cli
    tr = tracer.Tracer()
    ref = Reference()
    rounds, traces = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 4 in (1, 2)
        if traced:
            traces.append(tr.install())
        try:
            r = run_round(calls, workdir / f"round{len(rounds)}", cli, traced)
        finally:
            if traced:
                tr.uninstall()
        if traced:
            traces[-1].bytes_out = r.bytes_out
        rounds.append(r)
        ref.time()
        elapsed = time.perf_counter() - start
        typical = statistics.median(x.wall for x in rounds)
        if len(rounds) >= (2 if trace else 1) and elapsed + typical > seconds:
            return rounds, traces, ref


def _differing_calls(rounds) -> int:
    """Calls whose output bytes differ from the first round's.

    Every round of a run uses one seed, so a nonzero count means the
    program is not byte-reproducible in-process; it is reported, not
    failed, because the CLI only promises byte-identical reruns.
    """
    reference = rounds[0].digests
    return sum(a != b for r in rounds[1:] for a, b in zip(reference, r.digests))


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """One benchmark run; returns the result object the launcher prints."""
    import bosetraj
    if Path(bosetraj.__file__).resolve().parent != (SRC / "bosetraj").resolve():
        raise RuntimeError(f"bosetraj imported from {bosetraj.__file__}, not {SRC}")
    wl = WORKLOADS[name]
    calls = wl.calls(seed, wl.sizes[size])
    info = environment() | {"workload": name, "seed": seed, "size": size,
                            "load_start": os.getloadavg()}
    setups = [] if trace else setup_times(name, size)
    OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_ROOT))
    try:
        rounds, traces, ref = run_rounds(calls, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()             # only succeeds once it is empty
        except OSError:
            pass
    attempted = sum(len(r.ok) for r in rounds)
    failed = sum(r.failed for r in rounds)
    info |= {"load_end": os.getloadavg(), "rounds": len(rounds),
             "failed_frac": failed / attempted,
             "calls_differing_from_round0": _differing_calls(rounds),
             "reference_s": statistics.median(ref.samples)}
    print("# env " + json.dumps(info, sort_keys=True))

    if trace:
        plain = [r.wall for r in rounds if not r.traced]
        traced = [r.wall for r in rounds if r.traced]
        values = tracer.layer_metrics(traces)
        values[OVERHEAD] = statistics.median(traced) / statistics.median(plain) - 1.0
        units = {k: v[0] for k, v in tracer.LAYER_METRICS.items()} | {OVERHEAD: "frac"}
        for span, calls_, total, self_s in tracer.span_summary(traces):
            print(f"# span {span:40s} calls={calls_:<9d} total_s={total:.4f} "
                  f"self_s={self_s:.4f}")
    else:
        raw = {"setup_s": statistics.median(raw for raw, _ in setups),
               "solve_s": statistics.median(r.wall for r in rounds),
               "cpu_s": statistics.median(r.cpu for r in rounds),
               "traj_per_s": statistics.median(r.items / r.wall for r in rounds)}
        print("# raw " + json.dumps(raw, sort_keys=True))
        scale = ref.scale()
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "solve_s": raw["solve_s"] * scale,
            "cpu_s": raw["cpu_s"] * scale,
            "traj_per_s": raw["traj_per_s"] / scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    for k, v in values.items():
        print(f"# {k} = {v} {units[k]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}

