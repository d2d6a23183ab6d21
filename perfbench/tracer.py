"""Outside-in span tracer for the ``zsrpsim`` layers.

Nothing inside ``src/`` knows about it.  :func:`install` replaces the
names one module uses to call into the next (for example
``secrecy.sample_eve_distance`` or ``analytic.specfun.meijer_g_m0_log``)
with wrappers that record one span per call: name, start, end, parent
span and an optional amount (trials, draws, integrand points, ...).
Spans stay in memory until :meth:`Tracer.write` at the end of the
process; :func:`layer_metrics` turns them into the per-layer metrics.

Calls made from MC worker threads have no parent on their own thread;
they take the innermost open span of the thread that installed the
tracer, which is the ``run_monte_carlo`` call that started the pool.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: int       # 0 for a root span
    name: str
    start_ns: int
    end_ns: int
    amount: float     # what the call processed; 0 when not applicable
    failed: bool      # the call raised


class Tracer:
    def __init__(self, invocation: int) -> None:
        self.invocation = invocation
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str,
             amount: Optional[Callable] = None) -> None:
        """Record a span for every call of ``owner.attr`` made by name."""
        fn = getattr(owner, attr)
        ids, spans, home, clock = self._ids, self.spans, self._home, time.monotonic_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (home[-1] if home else 0)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append(Span(sid, parent, name, start, clock(), 0.0, True))
                raise
            finally:
                stack.pop()
            end = clock()
            value = float(amount(args, kwargs, result)) if amount else 0.0
            spans.append(Span(sid, parent, name, start, end, value, False))
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines, one per call."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("invocation\tid\tparent\tname\tstart_ns\tend_ns"
                     "\tamount\tfailed\n")
            for s in self.spans:
                fh.write(f"{self.invocation}\t{s.id}\t{s.parent}\t{s.name}"
                         f"\t{s.start_ns}\t{s.end_ns}\t{s.amount!r}"
                         f"\t{int(s.failed)}\n")


def _size(args, kwargs, result) -> int:
    return int(kwargs.get("size", args[2] if len(args) > 2 else 1))


def _points(args, kwargs, result) -> int:
    return getattr(args[0], "size", 1)


def install(tracer: Tracer) -> None:
    """Wrap every cross-module call on the benchmark's CLI paths.

    cli -> experiments/optimize -> secrecy/analytic
        -> scheduling/propagation/fading/specfun
    """
    from zsrpsim import analytic, cli, experiments, fading, optimize, secrecy

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "load_config", "experiments.load_config")
    w(cli, "run_experiment", "experiments.run_experiment",
      lambda a, k, rows: len(rows))
    w(cli, "format_csv", "experiments.format_csv")
    w(cli, "optimal_altitude", "optimize.optimal_altitude")
    for caller in (experiments, optimize):
        w(caller, "run_monte_carlo", "secrecy.run_monte_carlo",
          lambda a, k, est: est.trials)
        w(caller, "zsrp_for_scheme", "analytic.zsrp_for_scheme",
          lambda a, k, res: res.rel_gap or 0.0)
    w(secrecy, "sample_eve_distance", "propagation.eve_draw", _size)
    for name in ("large_scale_gain", "bs_ris_gain", "ris_user_gain"):
        w(secrecy, name, "propagation.gain")
    for name in ("select_gcsi_pfs", "select_fcsi_pfs"):
        w(secrecy, name, "scheduling.select", lambda a, k, sel: len(sel))
    w(analytic, "psi_average", "analytic.psi_average")
    for name in ("cdf_Z_quadrature", "cdf_Z_single"):
        w(analytic, name, "analytic.cdf")
    for name in ("cdf_S", "pdf_W"):
        w(analytic, name, "fading.integrand", _points)
    w(analytic.specfun, "meijer_g_m0_log", "specfun.meijer")
    w(analytic.specfun, "log_bessel_k", "specfun.bessel")
    w(analytic.specfun, "regularized_upper_gamma", "specfun.upper_gamma")
    w(fading.specfun, "regularized_upper_gamma_vec", "specfun.upper_gamma")


def _self_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0, s.start_ns
        for c in sorted(children[s.id], key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, reach), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.end_ns - s.start_ns - covered
    return out


def layer_metrics(spans: list[Span], wall_start_ns: int,
                  wall_end_ns: int) -> dict[str, float]:
    """Per-layer counts and times of one invocation (seconds, counts).

    The wall interval is the one the untraced ``wall_s`` measures: from
    the first resolved config to the end of the last command.  Every
    instant inside a ``cli.main`` span is some span's self time, so the
    unattributed share is the part of the wall outside ``cli.main``.
    """
    own = _self_ns(spans)
    wall_ns = wall_end_ns - wall_start_ns
    in_main = sum(max(0, min(s.end_ns, wall_end_ns) - max(s.start_ns, wall_start_ns))
                  for s in spans if s.name == "cli.main")
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def count(name: str) -> int:
        return len(by_name[name])

    def total(name: str) -> float:
        return sum(s.amount for s in by_name[name])

    def dur(name: str) -> float:
        return sum(s.end_ns - s.start_ns for s in by_name[name]) * 1e-9

    def self_s(name: str) -> float:
        return sum(own[s.id] for s in by_name[name]) * 1e-9

    searches = {s.id for s in by_name["optimize.optimal_altitude"]}
    mc_s = dur("secrecy.run_monte_carlo")
    meijer_s = dur("specfun.meijer")
    zsrp_s = dur("analytic.zsrp_for_scheme")
    quad_s = dur("analytic.psi_average")
    return {
        "secrecy.run_monte_carlo_s": mc_s,
        "secrecy.self_s": self_s("secrecy.run_monte_carlo"),
        "secrecy.trials": total("secrecy.run_monte_carlo"),
        "secrecy.trials_per_s": total("secrecy.run_monte_carlo") / mc_s if mc_s else 0.0,
        "propagation.eve_draw_calls": count("propagation.eve_draw"),
        "propagation.eve_draws": total("propagation.eve_draw"),
        "propagation.gain_calls": count("propagation.gain"),
        "propagation.gain_s": dur("propagation.gain"),
        "scheduling.select_calls": count("scheduling.select"),
        "scheduling.selected_rows": total("scheduling.select"),
        "scheduling.select_s": dur("scheduling.select"),
        "analytic.zsrp_for_scheme_s": zsrp_s,
        "analytic.calls": count("analytic.zsrp_for_scheme"),
        "analytic.quadrature_s": quad_s,
        "analytic.crosscheck_s": zsrp_s - quad_s,
        "analytic.cdf_calls": count("analytic.cdf"),
        "analytic.rel_gap_max": max((s.amount for s in by_name["analytic.zsrp_for_scheme"]),
                                    default=0.0),
        "fading.integrand_points": total("fading.integrand"),
        "fading.integrand_s": dur("fading.integrand"),
        "specfun.meijer_calls": count("specfun.meijer"),
        "specfun.meijer_s": meijer_s,
        "specfun.meijer_ms_per_term": (meijer_s * 1e3 / count("specfun.meijer")
                                       if count("specfun.meijer") else 0.0),
        "specfun.meijer_fallbacks": sum(s.failed for s in by_name["specfun.meijer"]),
        "specfun.bessel_calls": count("specfun.bessel"),
        "specfun.bessel_s": dur("specfun.bessel"),
        "specfun.upper_gamma_calls": count("specfun.upper_gamma"),
        "optimize.optimal_altitude_s": dur("optimize.optimal_altitude"),
        "optimize.objective_calls": sum(s.parent in searches for s in spans),
        "optimize.self_s": self_s("optimize.optimal_altitude"),
        "experiments.load_config_s": dur("experiments.load_config"),
        "experiments.run_experiment_self_s": self_s("experiments.run_experiment"),
        "experiments.format_csv_s": dur("experiments.format_csv"),
        "experiments.rows": total("experiments.run_experiment"),
        "cli.overhead_s": self_s("cli.main"),
        "trace.wall_s": wall_ns * 1e-9,
        "trace.unattributed_share": (wall_ns - in_main) / wall_ns,
    }
