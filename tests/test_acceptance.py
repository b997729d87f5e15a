"""End-to-end acceptance checks at pinned tolerances.

Each criterion is one test that prints a single line,
``ACCEPTANCE <k>: PASS/FAIL - <detail>``, before asserting, so a verbose
run reads as a checklist.  Monte Carlo criteria use fixed seeds and
quadrature criteria compare against closed forms, so every check is
deterministic.
"""

import dataclasses
import json
import math

import numpy as np
from scipy.stats import norm

import lecamjd as lj
from lecamjd.cli import main
from lecamjd.experiments import DEFAULT_EPSILON, DEFAULT_L


def report(k: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {k}: {verdict} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_l1_closed_forms_match_quadrature():
    # equal-variance pairs plus the constant-drift process reduction,
    # 20 points spanning near-identical to near-disjoint laws
    worst = 0.0
    for dmu in (0.1, 0.5, 1.0, 2.0, 3.0):
        for sd in (0.25, 1.0, 2.0, 5.0):
            # the L1 distance is twice the TV
            quad = 2.0 * lj.tv_quadrature(
                lj.gaussian_density(0.0, sd * sd),
                lj.gaussian_density(dmu, sd * sd))[0]
            closed = lj.l1_gaussians_same_var(0.0, dmu, sd)
            proc = lj.l1_gaussian_processes(lj.constant(0.0),
                                            lj.constant(dmu),
                                            lj.constant(sd), 1.0)
            worst = max(worst, abs(quad - closed), abs(quad - proc))
    report(1, worst < 1e-8,
           f"worst |quadrature - closed form| = {worst:.3g} over 20 points "
           "(tolerance 1e-08)")


def test_criterion_02_gaussian_tv_bound_dominates():
    # 25 points mixing pure mean shifts with variance-ratio mismatches
    ok = True
    margin = math.inf
    for dmu in (0.0, 0.25, 1.0, 2.5, 4.0):
        for sd2 in (0.5, 0.8, 1.0, 1.5, 3.0):
            (tv,) = lj.tv_quadrature(lj.gaussian_density(0.0, 1.0),
                                     lj.gaussian_density(dmu, sd2 * sd2))
            bound = lj.tv_gaussians_bound(0.0, 1.0, dmu, sd2)
            root_kl = math.sqrt(lj.kl_gaussians(0.0, 1.0, dmu, sd2))
            ok = ok and tv <= bound + 1e-12 and tv <= root_kl + 1e-12
            margin = min(margin, bound - tv, root_kl - tv)
    report(2, ok,
           f"TV <= closed-form bound and TV <= sqrt(KL) at 25 points, "
           f"smallest margin {margin:.3g}")


def test_criterion_03_single_jump_reduction_bound():
    law = lj.DiracJump(1.0)
    ok = True
    detail = []
    for lam in (0.2, 0.1, 0.05, 0.01):
        for sig in (0.01, 0.05):
            summ = lj.IncrementSummaries(m=0.0, sigma2=sig * sig, lam=lam)
            (tv,) = lj.tv_quadrature(
                lj.increment_density_exact(summ, law),
                lj.bernoulli_density(summ, law))
            bound = 2.0 * lam * lam
            ok = ok and tv <= bound
            if lam == 0.2:
                ratio = tv / bound
                ok = ok and ratio >= 0.1
                detail.append(f"ratio {ratio:.3f} at lambda=0.2 sigma={sig}")
    report(3, ok,
           "TV(exact, single-jump) <= 2 lambda^2 at 8 points; "
           + "; ".join(detail))


def _equal_rows(a: lj.MixtureTable, b: lj.MixtureTable) -> bool:
    """Whether two tables hold the same laws, row for row: the same size,
    components (up to each row's size) and every other field."""
    if a.rows != b.rows or not np.array_equal(a.size, b.size):
        return False
    components = ("means", "sds", "weights")
    for r, k in enumerate(a.size):
        if any(not np.array_equal(getattr(a, f)[r, :k], getattr(b, f)[r, :k])
               for f in components):
            return False
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(lj.MixtureTable)
               if f.init and f.name not in components)


def test_criterion_04_rounding_filter_bound_and_decay():
    """Grid over noise level and drift, unit jumps.

    Folding both laws merges every component exactly: the folded one-jump
    table equals the folded Gaussian table row for row, so their TV is
    0.0 (the oracle reads such rows as 0.0 without quadrature).  The decay
    content lives in the folded-vs-unfolded comparison, whose TV is the
    wrapped tail mass with a two-sided normal-cdf closed form.
    """
    law = lj.DiracJump(1.0)
    sigmas = (0.15, 0.1, 0.05, 0.02, 0.01)
    ok = True
    for m in (0.0, 0.2, 1.0 / 3.0):
        prev_wrap = math.inf
        prev_term = math.inf
        for sig in sigmas:
            summ = lj.IncrementSummaries(m=m, sigma2=sig * sig, lam=0.3)
            term = float(
                lj.discrete_kernel_aggregate_bound(summ).per_increment[0])
            gauss = lj.gaussian_density(m, sig * sig)
            folded_gauss = lj.fold_density_to_lattice_cell(gauss)
            folded = lj.fold_density_to_lattice_cell(
                lj.bernoulli_density(summ, law))
            ok = ok and _equal_rows(folded.table, folded_gauss.table)
            (both_folded_tv,) = lj.tv_quadrature(folded, folded_gauss)
            ok = ok and both_folded_tv == 0.0 and both_folded_tv <= term
            (wrap_tv,) = lj.tv_quadrature(folded_gauss, gauss)
            closed = (norm.cdf(-(0.5 - m) / sig)
                      + norm.cdf(-(0.5 + m) / sig))
            # absolute floor 1e-15: below that the adaptive quadrature
            # stops refining, so only the order of magnitude is checkable
            ok = ok and np.isclose(wrap_tv, closed, rtol=1e-6, atol=1e-15)
            ok = ok and wrap_tv <= term
            ok = ok and wrap_tv <= prev_wrap + 1e-25 and term < prev_term
            if sig == 0.01:
                ok = ok and both_folded_tv < 1e-20 and wrap_tv < 1e-20
            prev_wrap, prev_term = wrap_tv, term
    report(4, ok,
           "folding makes the two tables equal row for row, so their TV "
           "is 0.0 <= per-increment term; wrapped "
           "tail mass matches the closed form, decays with sigma, and is "
           "< 1e-20 at sigma=0.01")


def test_criterion_05_truncate_resample_mc_lower_bound():
    # Best measurable-set discrimination on a fixed partition, estimated
    # on a held-out half so the selected set does not bias the estimate.
    law = lj.uniform_jumps(-10.0, 10.0)
    L, eps = 1.0 / 3.0, 0.5
    N = 10 ** 5
    half = N // 2
    edges = np.linspace(-0.7, 0.7, 2001)
    ok = True
    worst_slack = math.inf
    for si, sig in enumerate((0.01, 0.03, 0.05)):
        for li, lam in enumerate((0.05, 0.2, 0.5)):
            summaries = lj.IncrementSummaries(
                m=[0.0], sigma2=[sig * sig], lam=[lam])
            term = float(
                lj.continuous_kernel_aggregate_bound(summaries, L, eps, law)
                .per_increment[0])
            base = lj.RngStream(20250816, (si * 3 + li) * 8)
            gen = base.generator()
            gauss = sig * gen.standard_normal(N)
            has = gen.random(N) < summaries.alpha[0]
            jumps = np.where(has, gen.uniform(-10, 10, N), 0.0)
            params = lj.TruncateResampleParams(L=L, epsilon=eps,
                                               sigma_i=sig)
            filtered = lj.truncate_resample(gauss + jumps, params,
                                            base.child(1))
            target = sig * base.child(2).generator().standard_normal(N)
            fi = np.clip(np.searchsorted(edges, filtered, side="right") - 1,
                         0, 1999)
            ti = np.clip(np.searchsorted(edges, target, side="right") - 1,
                         0, 1999)
            pick = (np.bincount(fi[:half], minlength=2000)
                    > np.bincount(ti[:half], minlength=2000))
            p = np.bincount(fi[half:], minlength=2000)[pick].sum() / (N - half)
            q = np.bincount(ti[half:], minlength=2000)[pick].sum() / (N - half)
            est = float(p - q)
            se = math.sqrt(p * (1 - p) / (N - half)
                           + q * (1 - q) / (N - half))
            ok = ok and est <= term + 3.0 * se
            worst_slack = min(worst_slack, term + 3.0 * se - est)
    report(5, ok,
           f"MC discrimination lower bound <= filter term + 3 SE on all "
           f"9 cells, smallest slack {worst_slack:.4f}")


def test_criterion_06_aggregate_bound_rate_slopes():
    ns = [16, 32, 64, 128, 256, 512, 1024, 2048]
    spec_lat = lj.ModelSpec(drift=lj.sine(0.0, 1.0, 1.0),
                            sigma=lj.constant(1.0), epsilon_n=1.0,
                            intensity=lj.constant(0.5),
                            jump_law=lj.DiracJump(1.0), horizon=1.0)
    slope_lat = lj.fit_rate_slope(
        lj.run_convergence(spec_lat, ns, "lattice"), "aggregate_bound")
    spec_cont = lj.ModelSpec(drift=lj.sine(0.0, 1.0, 1.0),
                             sigma=lj.constant(1.0), epsilon_n=0.2,
                             intensity=lj.constant(0.5),
                             jump_law=lj.gaussian_jumps(7.5, 0.5),
                             horizon=1.0)
    slope_cont = lj.fit_rate_slope(
        lj.run_convergence(spec_cont, ns, "continuous"), "aggregate_bound")
    ok = 0.40 <= slope_lat <= 0.60 and 0.20 <= slope_cont <= 0.30
    report(6, ok,
           f"aggregate-bound slope vs interval width: lattice "
           f"{slope_lat:.4f} in [0.40, 0.60], continuous {slope_cont:.4f} "
           "in [0.20, 0.30]")


def test_criterion_06_raw_aggregate_slopes_follow_theorem_rate():
    """Companion to criterion 6 on the unclamped series at large n.

    Criterion 6 fits the aggregate clamped at 1, where most lattice rows
    are exactly 1.  Here the closed-form one-jump plus kernel aggregate is
    fitted without the clamp over n = 2^14..2^20, dropping vacuous rows
    (raw term >= 1).  Each window is the slope of ``theorem_rate`` on the
    same grids, +-10 %, half the relative width criterion 6 allows.
    """
    ns = [1 << k for k in range(14, 21)]
    holder = lj.HolderClassParams(alpha=1.0)
    spec_lat = lj.ModelSpec(drift=lj.sine(0.0, 1.0, 1.0),
                            sigma=lj.constant(1.0), epsilon_n=1.0,
                            intensity=lj.constant(0.5),
                            jump_law=lj.DiracJump(1.0), horizon=1.0)
    spec_cont = lj.ModelSpec(drift=lj.sine(0.0, 1.0, 1.0),
                             sigma=lj.constant(1.0), epsilon_n=0.2,
                             intensity=lj.constant(0.5),
                             jump_law=lj.gaussian_jumps(7.5, 0.5),
                             horizon=1.0)
    details, ok = [], True
    for spec, case in ((spec_lat, "lattice"), (spec_cont, "continuous")):
        rows = []
        for n in ns:
            grid = lj.Grid.uniform(spec.horizon, n)
            summaries = lj.build_increment_summaries(spec, grid)
            kernel = (lj.discrete_kernel_aggregate_bound(summaries)
                      if case == "lattice" else
                      lj.continuous_kernel_aggregate_bound(
                          summaries, DEFAULT_L, DEFAULT_EPSILON,
                          spec.jump_law))
            raw = (lj.bernoulli_aggregate_bound(summaries).aggregate
                   + kernel.aggregate)
            if raw < 1.0:
                rows.append(lj.ConvergenceRow(
                    n=n, delta_n=grid.mesh, aggregate_bound=raw,
                    oracle_product_bound=math.nan,
                    rate_prediction=lj.theorem_rate(
                        grid.mesh, spec.horizon, spec.epsilon_n, holder,
                        case)))
        slope = lj.fit_rate_slope(rows, "aggregate_bound")
        predicted = lj.fit_rate_slope(rows, "rate_prediction")
        lo, hi = 0.9 * predicted, 1.1 * predicted
        ok = ok and lo <= slope <= hi
        details.append(f"{case} {slope:.4f} in [{lo:.4f}, {hi:.4f}] "
                       f"({len(rows)} rows)")
    report(6, ok, "raw aggregate slope at n = 2^14..2^20: "
           + ", ".join(details))


def test_criterion_07_risk_transfer_matches_direct():
    spec = lj.ModelSpec(drift=lj.sine(0.2, 0.1, 2 * math.pi),
                        sigma=lj.constant(1.0), epsilon_n=0.05,
                        intensity=lj.constant(1.0),
                        jump_law=lj.DiracJump(1.0), horizon=1.0)
    row = lj.run_risk_transfer(spec, lj.default_drift_estimator, [1024],
                               500, lj.RngStream(7))[0]
    rel = (abs(row.mise_transferred - row.mise_direct_gaussian)
           / row.mise_direct_gaussian)
    naive_ratio = row.mise_naive_on_jumps / row.mise_direct_gaussian
    ok = rel < 0.25 and naive_ratio > 4.0
    report(7, ok,
           f"transferred MISE within {100 * rel:.2f}% of direct "
           f"(tolerance 25%); naive on jumps {naive_ratio:.0f}x direct "
           "(required > 4x)")


def test_criterion_08_empirical_cf_matches_model_cf():
    N = 10 ** 5
    tol = 5.0 / math.sqrt(N)
    us = np.linspace(-6.0, 6.0, 13)
    configs = [
        ("no jumps", lj.IncrementSummaries(m=0.1, sigma2=0.04, lam=0.0),
         lj.DiracJump(1.0)),
        ("unit jumps", lj.IncrementSummaries(m=0.1, sigma2=0.04, lam=0.3),
         lj.DiracJump(1.0)),
        ("uniform jumps",
         lj.IncrementSummaries(m=0.0, sigma2=0.01, lam=0.2),
         lj.uniform_jumps(-1.0, 1.0)),
    ]
    worst = 0.0
    for _, summ, law in configs:
        rng = lj.RngStream(20250816, 77)
        draws = lj.sample_increment_batch(summ, law, rng, N)
        cf = lj.increment_cf(summ, law, us)
        ecf = np.exp(1j * np.outer(us, draws)).mean(axis=1)
        worst = max(worst, float(np.max(np.abs(ecf - cf))))
    report(8, worst < tol,
           f"worst |empirical cf - model cf| = {worst:.5f} over 3 configs "
           f"x 13 points (tolerance {tol:.5f})")


def test_criterion_09_discretization_error_and_envelope():
    no_jump = {"intensity": lj.constant(0.0), "jump_law": lj.DiracJump(1.0),
               "sigma": lj.constant(1.0), "epsilon_n": 1.0}
    spec_lin = lj.ModelSpec(drift=lj.constant(0.0), horizon=1.0, **no_jump)
    err = lj.drift_discretization_error(
        lambda t: np.asarray(t, dtype=float), spec_lin,
        lj.Grid.uniform(1.0, 10))
    exact_ok = abs(err - 1.0 / 300.0) < 1e-9

    # 1/2-Hoelder drift with constant 1; the shifted root keeps the
    # integrand smooth at the left endpoint
    spec_h = lj.ModelSpec(drift=lj.constant(0.0), horizon=0.99, **no_jump)
    envelope_ok = True
    for n in (10, 100, 1000):
        got = lj.drift_discretization_error(
            lambda t: np.sqrt(np.asarray(t, dtype=float) + 0.01), spec_h,
            lj.Grid.uniform(0.99, n))
        cap = 0.99 * 1.0 * (0.99 / n) ** 1.0
        envelope_ok = envelope_ok and 0.0 < got <= cap
    report(9, exact_ok and envelope_ok,
           f"linear-drift error {err:.12g} matches 1/300 within 1e-09; "
           "Hoelder envelope T M^2 Delta^(2 alpha) holds at n in "
           "{10, 100, 1000}")


def test_criterion_10_cli_byte_reproducibility(tmp_path):
    config = {
        "drift": {"kind": "sine", "offset": 0.2, "amplitude": 0.1,
                  "angular_frequency": 2 * math.pi},
        "sigma": {"kind": "constant", "value": 1.0},
        "intensity": {"kind": "constant", "value": 1.0},
        "jump_law": {"kind": "dirac", "location": 1.0},
        "epsilon_n": 0.05,
        "horizon": 1.0,
        "n": 16,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")

    def run_twice(argv_tail, tag):
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{tag}_{attempt}.csv"
            code = main(argv_tail + ["--out", str(out)])
            assert code == 0, f"{tag} exited {code}"
            outs.append(out.read_bytes())
        return outs[0] == outs[1]

    path_csv = tmp_path / "path.csv"
    assert main(["simulate", "--config", str(cfg), "--seed", "4",
                 "--out", str(path_csv)]) == 0

    stable = {
        "simulate": run_twice(
            ["simulate", "--config", str(cfg), "--seed", "4"], "sim"),
        "filter": run_twice(
            ["filter", str(path_csv), "--kernel", "truncate",
             "--config", str(cfg), "--seed", "6"], "filt"),
        "bounds": run_twice(["bounds", "--config", str(cfg)], "bounds"),
        "convergence": run_twice(
            ["convergence", "--config", str(cfg), "--n-list", "4,8,16"],
            "conv"),
        "risk-transfer": run_twice(
            ["risk-transfer", "--config", str(cfg), "--n-list", "8",
             "--reps", "3", "--seed", "2"], "risk"),
    }
    # validate emits nothing; run it twice for the exit code all the same
    stable["validate"] = (main(["validate", "--config", str(cfg)]) == 0
                          and main(["validate", "--config", str(cfg)]) == 0)

    ok = all(stable.values())
    bad = [name for name, good in stable.items() if not good]
    report(10, ok,
           "all 6 subcommands byte-identical across repeat runs" if ok else
           f"unstable: {bad}")
