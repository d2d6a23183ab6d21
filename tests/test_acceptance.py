"""Acceptance gate: the ten release criteria, one pass/fail line each.

Each test evaluates its criterion at the stated tolerance, prints a single
`criterion N: PASS/FAIL` line with the measured margin, and asserts.  The
criteria:

  1  Monte-Carlo vs quadrature at the default scenario (3 std errs, 1e6
     trials, under 60 s per point).
  2  series cascade CDF vs 2-D quadrature, 1e-8 absolute, 20-point grids.
  3  subset expansion reconstructs the CDF power, 1e-9 relative.
  4  Bessel K against integral-representation quadrature (1e-10), the
     contour oracle against 2 K_nu(2 sqrt z) (1e-6), and the package's
     Meijer-G seed against quadrature of its tail integral (1e-12 in ln G).
  5  scattering-matrix contracts on 1000 draws per element count.
  6  trend reproduction: radius, surface size (fully connected below
     single connected), and the shared U-shaped altitude optimum.
  7  power-sum selection equals full-gain selection, exactly.
  8  configured SNR never moves the estimate (bit equality).
  9  greedy selection is fair: per-user frequency 1/N at 1e6 draws.
 10  byte-identical CSV across worker counts.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
from scipy import integrate, special

from zsrpsim import analytic as an
from zsrpsim import experiments as ex
from zsrpsim import specfun
from zsrpsim.fading import FadingParams, cdf_S
from zsrpsim.optimize import AltitudeSearchSpec, optimal_altitude
from zsrpsim.propagation import AirGroundParams, ScenarioGeometry
from zsrpsim.scheduling import SchemeId, select_fcsi_pfs, select_gcsi_pfs
from zsrpsim.secrecy import ScenarioConfig, run_monte_carlo

from oracles import (PhaseDecomposition, assemble_theta, bessel_k,
                     cdf_power_sum_order_stat, cdf_Z_quadrature_recursive,
                     construct_aligning_unitary, fc_cascaded_gain,
                     meijer_g_m0, meijer_g_m0_log_quad, optimal_phases,
                     sc_cascaded_gain)

SEED = 12345
THREADS = min(8, os.cpu_count() or 1)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def default_config(scheme: SchemeId, **kw) -> ScenarioConfig:
    return ScenarioConfig(
        geometry=kw.pop("geometry", ScenarioGeometry()),
        air=AirGroundParams(),
        fading=FadingParams(),
        scheme=scheme,
        **kw,
    )


def unit_params(m1: int, m2: int, n_elements: int, n_users: int = 1) -> an.ClosedFormParams:
    return an.ClosedFormParams(m1=m1, m2=m2, n_elements=n_elements, sigma1_sq=1.0,
                               sigma2_sq=1.0, ref_gain=1.0, r_eve_m=1.0, n_users=n_users)


def test_criterion_01_simulation_matches_quadrature():
    worst_sep, worst_wall = 0.0, 0.0
    for scheme in (SchemeId.FCR_RS, SchemeId.FCR_GCSI_PFS):
        cfg = default_config(scheme)
        t0 = time.perf_counter()
        est = run_monte_carlo(cfg, trials=1_000_000, seed=SEED, threads=THREADS)
        wall = time.perf_counter() - t0
        ref = an.zsrp_for_scheme(cfg).value
        sep = abs(est.p_hat - ref) / est.std_err
        worst_sep = max(worst_sep, sep)
        worst_wall = max(worst_wall, wall)
    ok = worst_sep < 3.0 and worst_wall < 60.0
    report(1, ok, f"worst {worst_sep:.2f} std errs, worst wall {worst_wall:.1f}s "
                  f"on {THREADS} workers")
    assert ok


def test_criterion_02_series_cdf_vs_quadrature():
    worst = 0.0
    for m1, m2, n_elements in ((1, 1, 1), (2, 2, 2), (2, 2, 16)):
        p = unit_params(m1, m2, n_elements)
        grid = np.geomspace(0.05 * n_elements**2, 20.0 * n_elements**2, 20)
        quad = [cdf_Z_quadrature_recursive(z, p) for z in grid.tolist()]
        gap = np.abs(an.cdf_Z_single(grid, p, p.sigma1_sq * p.sigma2_sq) - quad)
        worst = max(worst, float(gap.max()))
    ok = worst < 1e-8
    report(2, ok, f"worst abs gap {worst:.2e}")
    assert ok


def test_criterion_03_subset_expansion_reconstruction():
    worst = 0.0
    for m1, n_elements in ((1, 2), (2, 1), (1, 4), (2, 2), (4, 1)):
        for n_users in (2, 3, 4):
            for scale in (0.5, 1.0, 2.0):
                s = scale * n_elements
                got = cdf_power_sum_order_stat(s, m1, n_elements, n_users)
                ref = cdf_S(np.array([s]), m1, n_elements)[0] ** n_users
                worst = max(worst, abs(got - ref) / max(ref, 1e-300))
    ok = worst < 1e-9
    report(3, ok, f"worst rel gap {worst:.2e}")
    assert ok


def test_criterion_04_special_function_oracles():
    def k_oracle(nu: float, x: float) -> float:
        val, _ = integrate.quad(
            lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t), 0.0, 60.0,
            limit=400, epsabs=1e-14, epsrel=1e-13,
        )
        return val

    worst_k = max(
        abs(bessel_k(nu, 1.0) - k_oracle(nu, 1.0)) / k_oracle(nu, 1.0)
        for nu in (0, 1)
    )
    worst_g = 0.0
    for z in (0.25, 1.0, 4.0):
        for nu in (0, 1, 3):
            got = meijer_g_m0([], [0.5 * nu, -0.5 * nu], z)
            ref = 2.0 * float(special.kv(nu, 2.0 * math.sqrt(z)))
            worst_g = max(worst_g, abs(got - ref) / ref)

    seeds = ((120.0, 4.0, 0.01), (28.0, 32.0, 102.4), (28.0, 32.0, 0.5),
             (30.0, 30.0, 10.0), (1.0, 3.0, 0.2))
    log_gs, reasons = specfun.meijer_g_m0_log(*(np.array(v) for v in zip(*seeds)))
    worst_seed = max(abs(log_g - meijer_g_m0_log_quad(*seed))
                     for log_g, seed in zip(log_gs.tolist(), seeds))
    ok = (worst_k < 1e-10 and worst_g < 1e-6 and worst_seed <= 1e-12
          and not any(reasons))
    report(4, ok, f"K rel {worst_k:.2e}, contour rel {worst_g:.2e}, "
                  f"seed ln G {worst_seed:.2e}")
    assert ok


def test_criterion_05_scattering_matrix_contracts():
    rng = np.random.default_rng(SEED)
    worst_u = worst_s = worst_gain = 0.0
    sc_ok = True
    for n in (2, 4, 8, 16):
        eye = np.eye(n)
        for _ in range(1000):
            h = (rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) / np.sqrt(2.0)
            h_br, h_rn = h[0], h[1]
            v = construct_aligning_unitary(h_br, h_rn)
            phi = optimal_phases(v, h_br, h_rn)
            theta = assemble_theta(PhaseDecomposition(v, phi))
            worst_u = max(worst_u, np.linalg.norm(theta.conj().T @ theta - eye))
            worst_s = max(worst_s, np.linalg.norm(theta - theta.T))
            gain = abs(np.conj(h_rn) @ theta @ h_br) ** 2
            bound = fc_cascaded_gain(h_br, h_rn)
            worst_gain = max(worst_gain, abs(gain - bound) / bound)
            sc_ok = sc_ok and sc_cascaded_gain(h_br, h_rn) <= bound * (1.0 + 1e-12)
    ok = worst_u < 1e-10 and worst_s < 1e-10 and worst_gain < 1e-9 and sc_ok
    report(5, ok, f"unitary {worst_u:.2e}, symmetry {worst_s:.2e}, "
                  f"gain rel {worst_gain:.2e}, sc<=fc {sc_ok}")
    assert ok


def _estimates(configs, trials=100_000, seed=SEED):
    return [run_monte_carlo(c, trials=trials, seed=seed, threads=THREADS) for c in configs]


def _separated_decreasing(ests) -> tuple[bool, float]:
    worst = math.inf
    for a, b in zip(ests, ests[1:]):
        sep = (a.p_hat - b.p_hat) / math.hypot(a.std_err, b.std_err)
        worst = min(worst, sep)
    return worst > 3.0, worst


def test_criterion_06_paper_trends():
    # radius sweep: every scheme's estimate falls as the sphere grows
    radius_ok, radius_margin = True, math.inf
    for scheme in SchemeId:
        cfgs = [
            default_config(scheme, geometry=ScenarioGeometry(r_eve_m=r))
            for r in (100.0, 200.0, 300.0, 400.0, 500.0)
        ]
        ok, margin = _separated_decreasing(_estimates(cfgs))
        radius_ok = radius_ok and ok
        radius_margin = min(radius_margin, margin)

    # surface-size sweep: larger surfaces help, and the fully connected
    # architecture stays below the phase-only one at every size
    size_ok, fc_below_sc_ok, size_margin = True, True, math.inf
    by_scheme: dict[SchemeId, list] = {}
    for scheme in (SchemeId.FCR_RS, SchemeId.SCR_RS,
                   SchemeId.FCR_GCSI_PFS, SchemeId.SCR_GCSI_PFS):
        cfgs = [
            ScenarioConfig(geometry=ScenarioGeometry(), air=AirGroundParams(),
                           fading=FadingParams(n_elements=n), scheme=scheme)
            for n in (4, 8, 16, 32)
        ]
        ests = _estimates(cfgs)
        by_scheme[scheme] = ests
        ok, margin = _separated_decreasing(ests)
        size_ok = size_ok and ok
        size_margin = min(size_margin, margin)
    for fc, sc in ((SchemeId.FCR_RS, SchemeId.SCR_RS),
                   (SchemeId.FCR_GCSI_PFS, SchemeId.SCR_GCSI_PFS)):
        for a, b in zip(by_scheme[fc], by_scheme[sc]):
            sep = (b.p_hat - a.p_hat) / math.hypot(a.std_err, b.std_err)
            fc_below_sc_ok = fc_below_sc_ok and sep > 3.0
            size_margin = min(size_margin, sep)

    # altitude: U shape with an interior optimum, same argmin for both
    # architectures under common random numbers
    h_lo, h_hi, tol = 40.0, 1500.0, 25.0
    argmins, values = {}, {}
    for scheme in (SchemeId.FCR_RS, SchemeId.SCR_RS):
        spec = AltitudeSearchSpec(
            config=default_config(scheme), h_lo_m=h_lo, h_hi_m=h_hi, tol_m=tol,
            evaluator="mc", trials=100_000, seed=SEED, threads=THREADS,
        )
        res = optimal_altitude(spec)
        argmins[scheme], values[scheme] = res.h_m, res.zsrp
    interior_ok = all(h_lo + tol < h < h_hi - tol for h in argmins.values())
    u_ok = True
    for scheme in (SchemeId.FCR_RS, SchemeId.SCR_RS):
        for h_end in (h_lo, h_hi):
            cfg = default_config(scheme, geometry=ScenarioGeometry(h_br_m=h_end))
            end = run_monte_carlo(cfg, trials=100_000, seed=SEED, threads=THREADS)
            u_ok = u_ok and values[scheme] < end.p_hat - 3.0 * end.std_err
    argmin_gap = abs(argmins[SchemeId.FCR_RS] - argmins[SchemeId.SCR_RS])
    argmin_ok = argmin_gap <= tol

    ok = radius_ok and size_ok and fc_below_sc_ok and interior_ok and u_ok and argmin_ok
    report(6, ok, f"min separation {min(radius_margin, size_margin):.1f} std errs, "
                  f"altitude argmin gap {argmin_gap:.1f} m (tol {tol:g})")
    assert radius_ok and size_ok
    assert fc_below_sc_ok
    assert interior_ok and u_ok and argmin_ok


def test_criterion_07_selection_rule_equivalence():
    rng = np.random.default_rng(SEED)
    m1, m2, n_elements, users, draws = 2, 2, 16, 4, 100_000
    s = rng.gamma(m1 * n_elements, 1.0 / m1, size=(draws, users))
    w = rng.gamma(m2 * n_elements, 1.0 / m2, size=draws)
    gains = 0.1379736692021992 * 0.565685424949238 * s * w[:, None]
    idx_gcsi = select_gcsi_pfs(s)
    idx_fcsi = select_fcsi_pfs(gains)
    mismatches = int(np.sum(idx_gcsi != idx_fcsi))
    ok = mismatches == 0
    report(7, ok, f"{mismatches} mismatches in {draws} shared draws")
    assert ok


def test_criterion_08_snr_invariance():
    for scheme in (SchemeId.FCR_RS, SchemeId.SCR_FCSI_PFS):
        vals = [
            run_monte_carlo(default_config(scheme, gamma_b_db=db),
                            trials=100_000, seed=SEED, threads=THREADS).p_hat
            for db in (0.0, 20.0, 40.0)
        ]
        ok = vals[0] == vals[1] == vals[2]
        if not ok:
            report(8, False, f"{scheme.value} moved: {vals}")
            assert ok
    report(8, True, "bit-identical across 0/20/40 dB")


def test_criterion_09_selection_fairness():
    rng = np.random.default_rng(SEED)
    m1, n_elements, draws = 2, 16, 1_000_000
    worst = 0.0
    for users in (2, 4, 8):
        s = rng.gamma(m1 * n_elements, 1.0 / m1, size=(draws, users))
        idx = select_gcsi_pfs(s)
        counts = np.bincount(idx, minlength=users)
        p = 1.0 / users
        sigma = math.sqrt(p * (1.0 - p) / draws)
        dev = np.max(np.abs(counts / draws - p)) / sigma
        worst = max(worst, dev)
    ok = worst < 3.0
    report(9, ok, f"worst frequency deviation {worst:.2f} std errs")
    assert ok


def test_criterion_10_worker_count_byte_determinism(tmp_path):
    import zsrpsim.cli as cli

    cfg = tmp_path / "det.ini"
    cfg.write_text(
        "[experiment]\nkind = fig3\nschemes = fcr-rs, scr-gcsi-pfs\n"
        "evaluators = mc\nl_grid = 8, 16\ntrials = 10000\nseed = 42\n"
    )
    blobs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"rows_{threads}.csv"
        rc = cli.main(["run", "--config", str(cfg), "--threads", str(threads),
                       "--out", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(10, ok, f"{len(blobs[0])} CSV bytes identical across threads 1/4/8")
    assert ok
