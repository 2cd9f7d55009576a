"""Per-layer tracing of bosetraj from outside the package.

A Tracer wraps the public functions of each module (and the names other
modules imported from it with ``from ... import``) for the duration of
one traced round, then puts the originals back. Coarse calls record
spans with parent links; hot calls (one per integrator step or Schmidt
spectrum) only add to a count and a total time. Self time is a span's
duration minus the time its wrapped children cover.

A wrapped target that the package no longer defines is *absent*: every
metric that needs it is reported as None, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "bosetraj"


class Absent(Exception):
    """A metric needs a target or a return field the package lacks."""


def _kind(jump):
    kind = jump.kind
    return getattr(kind, "value", kind)


def _on_basis(rt, args, ret):
    rt.set_max("fock.dim", ret.dim)


def _on_channels(rt, args, ret):
    rt.set_max("trajectory.decay_nnz", args[0].decay.nnz)


def _on_trajectory(rt, args, ret):
    rt.add("trajectory.steps", ret.n_steps)
    kinds = [_kind(j) for j in ret.jumps]
    rt.add("trajectory.jumps_phaselock", kinds.count("phase_lock"))
    rt.add("trajectory.jumps_dephase", kinds.count("dephase"))


def _on_ensemble(rt, args, ret):
    basis = args[0]
    # computed, not measured: M x snapshots x dim complex128 amplitudes
    rt.add("trajectory.snapshot_bytes",
           ret.M * len(ret.snapshot_times) * basis.dim * 16)


def _on_evolve(rt, args, ret):
    rt.add("gutzwiller.unconverged", int(not ret.converged))


def _on_dephasing(rt, args, ret):
    rt.add("ancilla.clicks", ret.click_count)


def _on_phaselock(rt, args, ret):
    rt.add("ancilla.clicks", len(ret.clicks))


# (module, attribute path, "span" or "hot", return hook or None)
TARGETS = [
    ("fock", "build_basis", "span", _on_basis),
    ("trajectory", "JumpChannels.__init__", "span", _on_channels),
    ("trajectory", "JumpChannels.max_total_rate", "span", None),
    ("trajectory", "run_ensemble", "span", _on_ensemble),
    ("trajectory", "run_trajectory", "span", _on_trajectory),
    ("trajectory", "step", "hot", None),
    ("entropy", "average_profile", "span", None),
    ("entropy", "schmidt_spectrum", "hot", None),
    ("cftfit", "fit_profile", "span", None),
    ("gutzwiller", "evolve", "span", _on_evolve),
    ("gutzwiller", "meanfield_rhs", "hot", None),
    ("lindblad", "LindbladGenerator.rhs", "hot", None),
    ("lindblad", "evolve_lindblad", "span", None),
    ("lindblad", "compare_with_ensemble", "span", None),
    ("ancilla", "run_dephasing_circuit", "span", _on_dephasing),
    ("ancilla", "run_phaselock_circuit", "span", _on_phaselock),
    ("cli", "main", "span", None),
    ("cli", "write_csv", "span", None),
    ("cli", "write_manifest", "span", None),
]

# return-value counters and the targets whose hooks fill each
COUNTER_SOURCES = {
    "fock.dim": ("fock.build_basis",),
    "trajectory.decay_nnz": ("trajectory.JumpChannels.__init__",),
    "trajectory.steps": ("trajectory.run_trajectory",),
    "trajectory.jumps_phaselock": ("trajectory.run_trajectory",),
    "trajectory.jumps_dephase": ("trajectory.run_trajectory",),
    "trajectory.snapshot_bytes": ("trajectory.run_ensemble",),
    "gutzwiller.unconverged": ("gutzwiller.evolve",),
    "ancilla.clicks": ("ancilla.run_dephasing_circuit",
                       "ancilla.run_phaselock_circuit"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                # index into RoundTrace.spans, -1 for a root
    self_s: float


@dataclass
class RoundTrace:
    """Everything one traced round recorded."""
    absent: frozenset
    spans: list = field(default_factory=list)
    hot: dict = field(default_factory=dict)        # target -> [calls, seconds]
    counters: dict = field(default_factory=dict)
    missing: set = field(default_factory=set)      # counters a hook could not read
    bytes_out: int = 0

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def set_max(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _need(self, target):
        if target in self.absent:
            raise Absent(target)

    def calls(self, target) -> int:
        self._need(target)
        if target in self.hot:
            return self.hot[target][0]
        return sum(1 for s in self.spans if s.name == target)

    def total(self, target) -> float:
        self._need(target)
        if target in self.hot:
            return self.hot[target][1]
        return sum(s.end - s.start for s in self.spans if s.name == target)

    def self_time(self, target) -> float:
        self._need(target)
        return sum(s.self_s for s in self.spans if s.name == target)

    def durations(self, target) -> list:
        self._need(target)
        return [s.end - s.start for s in self.spans if s.name == target]

    def per_call_us(self, target) -> float:
        n = self.calls(target)
        return 1e6 * self.total(target) / n if n else 0.0

    def counter(self, key):
        for target in COUNTER_SOURCES[key]:
            self._need(target)
        if key in self.missing:
            raise Absent(key)
        return self.counters.get(key, 0)


class Tracer:
    """Installs the wrappers for one round at a time."""

    def __init__(self):
        self._restore = []            # (owner, attribute, original)
        self._stack = []              # open spans: [index, child seconds]
        self.round = None

    def install(self) -> RoundTrace:
        absent = set()
        wrapped = []
        for mod_name, path, mode, hook in TARGETS:
            target = f"{mod_name}.{path}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = (owner.__dict__[attr] if owner_name
                            else getattr(module, attr))
            except (ImportError, AttributeError, KeyError):
                absent.add(target)
                continue
            wrapped.append((target, owner, attr, original, mode, hook))
        self.round = RoundTrace(absent=frozenset(absent))
        for target, owner, attr, original, mode, hook in wrapped:
            wrapper = (self._hot(target, original) if mode == "hot"
                       else self._span(target, original, hook))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper)
        return self.round

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._stack.clear()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace every module-level name bound to `original`, including
        names other package modules imported with `from ... import`."""
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _hot(self, target, fn):
        stat = self.round.hot.setdefault(target, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stat[0] += 1
                stat[1] += d
                if stack:
                    stack[-1][1] += d
        return wrapper

    def _span(self, target, fn, hook):
        rt = self.round
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(rt.spans)
            rt.spans.append(None)            # reserve the slot: parents precede children
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                rt.spans[index] = Span(target, t0, t1, parent, t1 - t0 - frame[1])
            if hook is not None:
                try:
                    hook(rt, args, ret)
                except (AttributeError, TypeError):
                    rt.missing.update(k for k, srcs in COUNTER_SOURCES.items()
                                      if target in srcs)
            return ret
        return wrapper


def _p(values, q):
    """q-quantile (0 < q < 1) of a sample by linear interpolation."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def _steps_per_jump(rt):
    jumps = (rt.counter("trajectory.jumps_phaselock")
             + rt.counter("trajectory.jumps_dephase"))
    return rt.counter("trajectory.steps") / jumps if jumps else 0.0


# name -> (unit, kind, value)
# kind "count": exact at a fixed seed, taken from the first traced round;
# "time": median over traced rounds; "pooled": from all traced rounds at once.
LAYER_METRICS = {
    "fock.basis_s": ("s", "time", lambda r: r.total("fock.build_basis")),
    "fock.dim": ("count", "count", lambda r: r.counter("fock.dim")),
    "trajectory.channels_s": ("s", "time", lambda r: (
        r.total("trajectory.JumpChannels.__init__")
        + r.total("trajectory.JumpChannels.max_total_rate"))),
    "trajectory.decay_nnz": ("count", "count",
                             lambda r: r.counter("trajectory.decay_nnz")),
    "trajectory.steps": ("count", "count",
                         lambda r: r.counter("trajectory.steps")),
    "trajectory.jumps_phaselock": ("count", "count",
                                   lambda r: r.counter("trajectory.jumps_phaselock")),
    "trajectory.jumps_dephase": ("count", "count",
                                 lambda r: r.counter("trajectory.jumps_dephase")),
    "trajectory.steps_per_jump": ("steps/jump", "count", _steps_per_jump),
    "trajectory.step_us": ("us", "time",
                           lambda r: r.per_call_us("trajectory.step")),
    "trajectory.traj_s_p50": ("s", "pooled",
                              lambda rs: _p(_traj_durations(rs), 0.5)),
    "trajectory.traj_s_p90": ("s", "pooled",
                              lambda rs: _p(_traj_durations(rs), 0.9)),
    "trajectory.traj_samples": ("count", "pooled",
                                lambda rs: len(_traj_durations(rs))),
    "trajectory.ensemble_s": ("s", "time",
                              lambda r: r.total("trajectory.run_ensemble")),
    "trajectory.snapshot_bytes": ("bytes", "count",
                                  lambda r: r.counter("trajectory.snapshot_bytes")),
    "entropy.profile_s": ("s", "time",
                          lambda r: r.total("entropy.average_profile")),
    "entropy.schmidt_calls": ("count", "count",
                              lambda r: r.calls("entropy.schmidt_spectrum")),
    "entropy.schmidt_us": ("us", "time",
                           lambda r: r.per_call_us("entropy.schmidt_spectrum")),
    "cftfit.fit_s": ("s", "time", lambda r: r.total("cftfit.fit_profile")),
    "cftfit.fits": ("count", "count", lambda r: r.calls("cftfit.fit_profile")),
    "gutzwiller.evolve_calls": ("count", "count",
                                lambda r: r.calls("gutzwiller.evolve")),
    "gutzwiller.rhs_calls": ("count", "count",
                             lambda r: r.calls("gutzwiller.meanfield_rhs")),
    "gutzwiller.rhs_us": ("us", "time",
                          lambda r: r.per_call_us("gutzwiller.meanfield_rhs")),
    "gutzwiller.evolve_s": ("s", "time", lambda r: r.total("gutzwiller.evolve")),
    "gutzwiller.unconverged": ("count", "count",
                               lambda r: r.counter("gutzwiller.unconverged")),
    "lindblad.rhs_calls": ("count", "count",
                           lambda r: r.calls("lindblad.LindbladGenerator.rhs")),
    "lindblad.rhs_us": ("us", "time",
                        lambda r: r.per_call_us("lindblad.LindbladGenerator.rhs")),
    "lindblad.evolve_s": ("s", "time",
                          lambda r: r.total("lindblad.evolve_lindblad")),
    "lindblad.compare_s": ("s", "time",
                           lambda r: r.total("lindblad.compare_with_ensemble")),
    "ancilla.runs": ("count", "count", lambda r: (
        r.calls("ancilla.run_dephasing_circuit")
        + r.calls("ancilla.run_phaselock_circuit"))),
    "ancilla.clicks": ("count", "count", lambda r: r.counter("ancilla.clicks")),
    "ancilla.dephasing_s": ("s", "time",
                            lambda r: r.total("ancilla.run_dephasing_circuit")),
    "ancilla.phaselock_s": ("s", "time",
                            lambda r: r.total("ancilla.run_phaselock_circuit")),
    "cli.self_s": ("s", "time", lambda r: r.self_time("cli.main")),
    "cli.write_s": ("s", "time", lambda r: (
        r.total("cli.write_csv") + r.total("cli.write_manifest"))),
    "cli.bytes_out": ("bytes", "count", lambda r: r.bytes_out),
}


def _traj_durations(rounds):
    return [d for r in rounds for d in r.durations("trajectory.run_trajectory")]


def layer_metrics(rounds) -> dict:
    """name -> value (None when absent) over the traced rounds of a run."""
    out = {}
    for name, (_, kind, fn) in LAYER_METRICS.items():
        try:
            if kind == "count":
                value = fn(rounds[0])
            elif kind == "time":
                value = statistics.median(fn(r) for r in rounds)
            else:
                value = fn(rounds)
        except Absent:
            value = None
        out[name] = value
    return out


def span_summary(rounds) -> list:
    """(name, calls, total s, self s) per span name over all traced rounds."""
    table = {}
    for r in rounds:
        for s in r.spans:
            row = table.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += s.self_s
        for name, (n, secs) in r.hot.items():
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += n
            row[1] += secs
            row[2] += secs
    return sorted(((k, *v) for k, v in table.items()), key=lambda x: -x[2])
