"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every tolerance is stated inline.
"""

import time

import mpmath as mp
import numpy as np
import pytest
from click.testing import CliRunner

from cocyclelab import avalanche, ldt, linalg, rates
from cocyclelab import random_products as rp
from cocyclelab.cli import main as cli_main
from cocyclelab.cocycle import DiagonalExpFamily, SchrodingerFamily
from tests.families import constant_family
from tests.test_avalanche import admissible_sequence, rot
from tests.test_cocycle import mp_norm_2x2, mp_schrodinger_product
from tests.test_linalg import exterior_power
from tests.test_rates import planted_series
from tests.torus_points import phasors

LN2 = np.log(2.0)
LN3 = np.log(3.0)

PIN_LAMBDA_4096 = 1.0987027857795528  # schrodinger coupling 3, E=0, grid 1024


def verdict(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}/14 {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_constant_cocycle_spectrum(golden):
    t0 = time.monotonic()
    fam = constant_family(golden, np.diag([2.0, 1.0, 0.5]))
    worst = 0.0
    for n in (1, 16, 1024):
        for m in (1, 7):
            lam = fam.finite_scale_exponents(0.0, n, m)
            worst = max(worst, float(np.max(np.abs(lam - [LN2, 0.0, -LN2]))))
    elapsed = time.monotonic() - t0
    verdict(
        1, "constant-cocycle spectrum", worst <= 1e-10 and elapsed < 1.0,
        f"max error {worst:.2e} (tol 1e-10), {elapsed:.2f}s",
    )


def test_02_avalanche_zero_cases():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst_pair = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        mats = [rng.standard_normal((d, d)) + 3 * np.eye(d) for _ in range(2)]
        worst_pair = max(worst_pair, avalanche.verify(mats).discrepancy)
    elapsed = time.monotonic() - t0
    verdict(
        2, "avalanche zero cases",
        worst_pair <= 1e-12 and elapsed < 1.0,
        f"pair max {worst_pair:.2e} (tol 1e-12), {elapsed:.2f}s",
    )


def test_03_avalanche_bound_on_certified_sequences():
    t0 = time.monotonic()
    rng = np.random.default_rng(424242)
    max_ratio = 0.0
    for _ in range(500):
        mats = admissible_sequence(rng)
        rep = avalanche.verify(mats)
        assert rep.hypotheses_hold
        max_ratio = max(max_ratio, rep.discrepancy / rep.bound)
    elapsed = time.monotonic() - t0
    verdict(
        3, "avalanche bound", max_ratio < 1.0 and elapsed < 30.0,
        f"500 certified sequences, max discrepancy/bound ratio {max_ratio:.3e}, {elapsed:.1f}s",
    )


def test_04_projection_demo():
    t0 = time.monotonic()
    eps_sweep = [10.0 ** (-k) for k in range(1, 7)]
    discs = [
        avalanche.verify(avalanche.projection_matrices(
            [np.pi / 4, np.pi / 4], eps, "rank1")).discrepancy
        for eps in eps_sweep
    ]
    rank1_ok = discs[-1] < 1e-3 and discs[-1] < discs[-2] < discs[-3]
    rank2_worst = 0.0
    for eps in eps_sweep:
        rep = avalanche.verify(avalanche.projection_matrices([0.4, 1.1, 0.2], eps, "rank2"))
        rank2_worst = max(rank2_worst, float(np.max(np.abs(rep.pair_norms - 1.0))))
    elapsed = time.monotonic() - t0
    verdict(
        4, "projection families", rank1_ok and rank2_worst <= 1e-12 and elapsed < 1.0,
        f"rank1 tail {discs[-3]:.1e}>{discs[-2]:.1e}>{discs[-1]:.1e} (<1e-3), "
        f"rank2 pair-norm defect {rank2_worst:.1e} (tol 1e-12), {elapsed:.2f}s",
    )


def test_05_exterior_power_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    cases = {}  # (d, p) -> the (a, b) pairs drawn for it
    for _ in range(200):
        d = int(rng.integers(2, 7))
        p = int(rng.integers(1, d + 1))
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, d))
        cases.setdefault((d, p), []).append((a, b))
    worst_fun = 0.0
    worst_ref = 0.0
    worst_norm = 0.0
    for (d, p), pairs in cases.items():
        # one stack per (d, p), so the compound norms are one batched call
        a_s = np.array([a for a, _ in pairs])
        b_s = np.array([b for _, b in pairs])
        wedge_a = linalg.compound_batch(a_s, p)
        wedge_b = linalg.compound_batch(b_s, p)
        lhs = linalg.compound_batch(a_s @ b_s, p)
        for a, wa, wb, wab in zip(a_s, wedge_a, wedge_b, lhs):
            scale = max(np.linalg.norm(wab, 2), 1e-300)
            worst_fun = max(worst_fun, np.linalg.norm(wab - wa @ wb, 2) / scale)
            ref = exterior_power(a, p)
            worst_ref = max(worst_ref, np.linalg.norm(wa - ref, 2) / np.linalg.norm(ref, 2))
        want = np.prod(np.linalg.svd(a_s, compute_uv=False)[:, :p], axis=1)
        got = linalg.spectral_norm_batch(wedge_a)
        worst_norm = max(worst_norm, float(np.max(np.abs(got - want) / np.maximum(want, 1e-300))))
    elapsed = time.monotonic() - t0
    verdict(
        5, "exterior-power identities",
        worst_fun <= 1e-10 and worst_ref <= 1e-10 and worst_norm <= 1e-10 and elapsed < 5.0,
        f"200 seeded matrices d<=6: multiplicativity {worst_fun:.1e}, "
        f"minor-by-minor reference {worst_ref:.1e}, "
        f"norm-product {worst_norm:.1e} (rel tol 1e-10), {elapsed:.1f}s",
    )


def test_06_almost_invariance(schrodinger3):
    t0 = time.monotonic()
    reps = [ldt.reports(schrodinger3, 0.0, (1024,), (), 1024, k=k)[1] for k in (1, 8)]
    ok = all(r.sup_gap <= r.bound + 1e-10 for r in reps)
    elapsed = time.monotonic() - t0
    verdict(
        6, "almost invariance", ok and elapsed < 120.0,
        "; ".join(f"k={r.k}: sup_gap {r.sup_gap:.3e} <= bound {r.bound:.3e}" for r in reps)
        + f", {elapsed:.1f}s",
    )


def test_07_monotone_decrease_and_sum_rule(schrodinger_ladder):
    t0 = time.monotonic()
    scales, ladder = schrodinger_ladder
    vals = [ladder[n][0] for n in scales]
    worst_violation = max(
        (b - a for a, b in zip(vals, vals[1:])), default=-np.inf
    )
    worst_sum = max(abs(float(np.sum(ladder[n]))) for n in scales)
    elapsed = time.monotonic() - t0
    verdict(
        7, "monotone decrease + sum rule",
        worst_violation <= 1e-6 and worst_sum <= 1e-9 and elapsed < 300.0,
        f"ladder 2^4..2^12: worst doubling excess {worst_violation:.2e} (tol 1e-6), "
        f"worst |sum| {worst_sum:.2e} (tol 1e-9), {elapsed:.1f}s",
    )


def test_08_herman_lower_bound(schrodinger3, schrodinger_ladder):
    t0 = time.monotonic()
    scales, ladder = schrodinger_ladder
    lam = float(ladder[4096][0])
    # extended-precision spot audit of the per-point log-norms
    mp.mp.dps = 30
    worst_audit = 0.0
    for k in range(8):
        x = k / 8 + 0.013
        eng = float(schrodinger3.orbit_lognorms(0.0, phasors(x), 4096)[0, 0])
        oracle = float(mp.log(mp_norm_2x2(mp_schrodinger_product(schrodinger3, x, 0.0, 4096))))
        worst_audit = max(worst_audit, abs(eng - oracle))
    elapsed = time.monotonic() - t0
    verdict(
        8, "positivity lower bound",
        lam >= LN3 - 0.01 and abs(lam - PIN_LAMBDA_4096) <= 1e-9
        and worst_audit <= 1e-9 and elapsed < 300.0,
        f"lambda_1 at n=4096 = {lam:.10f} >= ln3-0.01 = {LN3-0.01:.10f}, "
        f"audit defect {worst_audit:.1e}, {elapsed:.1f}s",
    )


def test_09_rate_law_on_planted_data():
    t0 = time.monotonic()
    scales = tuple(2**k for k in range(2, 12))
    s_lin = planted_series(scales, limit=1.5, coeff=-0.73, law="one_over_n")
    c_est, _ = rates.check_c_over_n(s_lin)
    c_ok = abs(c_est - 0.73) <= 1e-12
    v1 = rates.dichotomy(
        planted_series(scales, limit=1.5, coeff=1.0, law="one_over_n"),
        c1=0.05, l0=16,
    )
    v2 = rates.dichotomy(
        planted_series(scales, limit=0.7, coeff=1.0, law="exponential", rate=0.5),
        c1=0.05, l0=16,
    )
    elapsed = time.monotonic() - t0
    verdict(
        9, "planted rate laws",
        c_ok and v1.classification == "one_over_n"
        and v2.classification == "exponential" and elapsed < 1.0,
        f"C_est error {abs(c_est-0.73):.1e} (tol 1e-12), 1/n -> {v1.classification}, "
        f"exp -> {v2.classification}, {elapsed:.2f}s",
    )


def test_10_r_sequence_bounded(schrodinger_ladder):
    t0 = time.monotonic()
    scales, ladder = schrodinger_ladder
    vals = tuple(float(ladder[n][0]) for n in scales)
    series = rates.RateSeries(j=1, scales=scales, values=vals)
    rep = rates.r_sequence(series)
    elapsed = time.monotonic() - t0
    verdict(
        10, "R(n) boundedness", rep.bounded and elapsed < 300.0,
        f"tail max R {rep.tail_max:.4f} <= 10 x median {rep.median:.4f}, {elapsed:.1f}s",
    )


def test_11_deviation_measure_trend(schrodinger3):
    t0 = time.monotonic()
    prof, _, _ = ldt.reports(schrodinger3, 0.0, (16, 23, 32, 45, 64, 4096), (0.1,), 8192)
    measure = {n: meas for n, _, meas in prof}
    m64, m4096 = measure[64], measure[4096]
    fit = ldt.fit_decay(prof, 0.1)
    elapsed = time.monotonic() - t0
    verdict(
        11, "deviation-set decay",
        m4096 < m64 and not fit.degenerate and fit.c > 0.0 and elapsed < 300.0,
        f"measure(4096)={m4096:.6f} < measure(64)={m64:.6f}, fitted decay rate "
        f"c={fit.c:.4f} > 0, {elapsed:.1f}s",
    )


def test_12_holder_regressions(golden):
    t0 = time.monotonic()
    lin = DiagonalExpFamily(
        base=golden, dim=2, x_amp=np.zeros(2), e_amp=np.array([1.0, -1.0]),
        param_values=np.array([0.1, 1.1]),
    )
    est_lin = rates.holder_estimate(
        lin, 1, (0.1, 1.1), n=16, m=16, pair_budget=24, kappa=0.05, seed=3
    )
    sch = SchrodingerFamily(
        base=golden, dim=2, coupling=3.0, param_values=np.array([8.2, 9.2])
    )
    est_sch = rates.holder_estimate(
        sch, 1, (8.2, 9.2), n=1024, m=1024, pair_budget=24, kappa=2.0, seed=0
    )
    elapsed = time.monotonic() - t0
    verdict(
        12, "holder regressions",
        abs(est_lin.gamma_est - 1.0) <= 0.01 and est_sch.gamma_est > 0.0
        and est_sch.kappa_min > 2.0 and elapsed < 600.0,
        f"linear family slope {est_lin.gamma_est:.4f} (1.00 +- 0.01); spectral-edge "
        f"window slope {est_sch.gamma_est:.4f} > 0 with gap {est_sch.kappa_min:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_13_random_products():
    t0 = time.monotonic()
    # the estimate at n is the top row of a rate_report whose ladder ends at n
    isometries = rp.two_rotations(0.7, 1.3, seed=2)
    _, est_rot, _, _ = rp.rate_report(isometries, (500, 1000), 8).rows[-1]
    sor = rp.stretch_or_rotate(4.0, 1.0, seed=11)
    _, est, stderr, _ = rp.rate_report(sor, (500, 1000), 400).rows[-1]
    _, lam_ref, _, _ = rp.rate_report(sor, (200, 400), 2000).rows[-1]
    # the LD rows center on the exponent at the largest LD scale, lam_ref
    report = rp.rate_report(
        sor, tuple(2**k for k in range(3, 10)), 2000,
        deltas=(0.2 * lam_ref,), ld_scales=(50, 400),
    )
    (_, _, p50), (_, _, p400) = report.ld_rows
    verdict_rand = report.verdict
    elapsed = time.monotonic() - t0
    verdict(
        13, "random matrix products",
        abs(est_rot) <= 1e-10 and est > 5 * stderr and p400 < p50
        and verdict_rand.classification == "exponential" and elapsed < 300.0,
        f"isometry exponent {est_rot:.1e} (tol 1e-10); contracting exponent "
        f"{est:.4f} at {est/stderr:.0f} sigma; P(n=50)={p50:.4f} > P(n=400)={p400:.4f}; "
        f"verdict {verdict_rand.classification}, {elapsed:.1f}s",
    )


def test_14_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "random.dist = stretch_or_rotate\nrandom.trials = 60\n"
        "numerics.n_max = 64\nnumerics.seed = 17\n"
        "random.deltas = 0.1\nrandom.ld_scales = 16,64\n"
    )
    cfg2 = tmp_path / "sch.cfg"
    cfg2.write_text(
        "cocycle.kind = schrodinger\ncocycle.coupling = 3.0\n"
        "numerics.n_max = 64\nnumerics.grid = 64\n"
    )
    runner = CliRunner()
    identical = True
    for name, conf, sub in (("r", cfg, "random"), ("e", cfg2, "exponents")):
        blobs = []
        for run_id in (0, 1):
            out = tmp_path / f"{name}{run_id}"
            res = runner.invoke(cli_main, [sub, "--config", str(conf), "--out", str(out)])
            assert res.exit_code == 0, res.output
            blobs.append({
                f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))
            })
        identical = identical and blobs[0] == blobs[1] and len(blobs[0]) > 0
    elapsed = time.monotonic() - t0
    verdict(
        14, "byte-identical outputs", identical and elapsed < 60.0,
        f"random + exponents subcommands, two reruns each, {elapsed:.1f}s",
    )
