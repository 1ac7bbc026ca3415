"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Monte-Carlo configurations are pinned (seeded) and were sized against the
closed-form Gaussian statistics of the linear additive model, which
`tests/oracles.py` gives, so every tolerance below is the stated one, not a
calibrated afterthought.
"""

import functools
import math

import numpy as np

from spdelab import solver, transforms
from spdelab.cli import main
from spdelab.models import Nemytskii
from spdelab.noise import burkholder_constant, example_covariance
from spdelab.probes import (
    estimate_lp_norm,
    example_series_partial_sum,
    increment_samples,
    spatial_sweep,
    temporal_probe,
)
from spdelab.solver import (
    EXACT_GAUSSIAN,
    SolverConfig,
    map_paths,
)
from spdelab.spectrum import (
    deterministic_convolution_norm,
    dirichlet_eigenvalues,
    hdot_norm,
    smoothing_constant,
    stochastic_convolution_energy,
)

from oracles import (
    GaussianLaw,
    kernel_normals,
    linear_additive_model,
    make_model,
    quad_energy,
    quad_flow_norm,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nacceptance {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"acceptance {criterion}: {detail}"


def test_criterion_01_convolution_exactness():
    """Closed-form convolution quantities agree with adaptive quadrature to 1e-8."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(64)
        rho = rng.uniform(0.0, 1.0)
        tau1 = rng.uniform(0.0, 0.5)
        tau2 = tau1 + math.exp(rng.uniform(math.log(1e-3), math.log(0.5)))
        energy_oracle = quad_energy(rho, tau1, tau2, x)
        flow_oracle = quad_flow_norm(rho, tau1, tau2, x)
        energy = stochastic_convolution_energy(rho, tau1, tau2, x)
        flow = deterministic_convolution_norm(rho, tau1, tau2, x)
        worst = max(
            worst,
            abs(energy - energy_oracle) / energy_oracle,
            abs(flow - flow_oracle) / flow_oracle,
        )
    report(
        "1 (convolution exactness)",
        worst <= 1e-8,
        f"worst relative error {worst:.3e} over 100 draws at N=64 (tolerance 1e-8)",
    )


def test_criterion_02_smoothing_bounds():
    """Semigroup smoothing estimates hold with the derived sharp constants."""
    rng = np.random.default_rng(202)
    slack = 1.0 + 1e-12
    violations = 0
    draws = 1000
    for _ in range(draws):
        lam = math.exp(rng.uniform(math.log(1e-2), math.log(1e6)))
        t = math.exp(rng.uniform(math.log(1e-6), math.log(10.0)))
        mu = rng.uniform(0.0, 2.0)
        nu = rng.uniform(0.0, 1.0)
        if lam**mu * math.exp(-lam * t) > smoothing_constant("power", mu) * t**-mu * slack:
            violations += 1
        if lam**-nu * -math.expm1(-lam * t) > smoothing_constant("difference", nu) * t**nu * slack:
            violations += 1

        x = rng.standard_normal(64)
        rho = rng.uniform(0.0, 1.0)
        tau1 = rng.uniform(0.0, 0.5)
        delta = math.exp(rng.uniform(math.log(1e-4), math.log(0.5)))
        norm = hdot_norm(0.0, x)
        energy = stochastic_convolution_energy(rho, tau1, tau1 + delta, x)
        if energy > 0.5 * smoothing_constant("integral", rho) * delta ** (1.0 - rho) * norm**2 * slack:
            violations += 1
        flow = deterministic_convolution_norm(rho, tau1, tau1 + delta, x)
        if flow > smoothing_constant("convolution", rho) * delta ** (1.0 - rho) * norm * slack:
            violations += 1
    report(
        "2 (smoothing bounds)",
        violations == 0,
        f"{violations} violations over 4 x {draws} random draws with sharp constants",
    )


def test_criterion_03_ito_isometry():
    """Second moment of the exactly sampled noise response matches its series."""
    n, t = 256, 0.1
    model = linear_additive_model(n)
    config = SolverConfig(T=t, steps=100, paths=10_000, master_seed=303, snapshot_times=(t,),
                          method=EXACT_GAUSSIAN)
    squared = map_paths(model, config, lambda rows: np.sum(rows[:, 0, :] ** 2, axis=1))
    mc = float(np.mean(squared))
    se = float(np.std(squared, ddof=1) / math.sqrt(squared.size))
    exact = stochastic_convolution_energy(
        0.0, 0.0, t, np.sqrt(model.covariance)
    )
    deviation = abs(mc - exact)
    report(
        "3 (Ito isometry)",
        deviation <= 3.0 * se,
        f"MC {mc:.6f} vs series {exact:.6f}, |dev| {deviation:.2e} <= 3 SE {3 * se:.2e} "
        f"(N=256, h=1e-3, 10^4 paths)",
    )


def test_criterion_04_integrator_oracle():
    """Exponential-Euler mode variances track the exact transition law, bias shrinking in h."""
    n, T, paths = 16, 0.2, 4000
    model = linear_additive_model(n)
    lam = model.eigenvalues
    exact = GaussianLaw.exact(model).variance(T)
    results = {}
    for h in (1e-2, 1e-3):
        config = SolverConfig(
            T=T, steps=int(round(T / h)), paths=paths, master_seed=404, snapshot_times=(T,)
        )
        rows = map_paths(model, config, lambda rows: rows)
        mc_var = rows[:, 0, :].var(axis=0)
        y = 2.0 * lam * h
        bias = 1.0 - y / np.expm1(y)  # exact relative variance deficit of the scheme
        se = exact * math.sqrt(2.0 / paths)
        allowed = np.maximum(3.0 * se, 2.0 * bias * exact)
        ok = np.all(np.abs(mc_var - exact) <= allowed + 1e-15)
        results[h] = (ok, mc_var)
    with np.errstate(invalid="ignore"):
        dev_coarse = np.abs(results[1e-2][1] / exact - 1.0)
        dev_fine = np.abs(results[1e-3][1] / exact - 1.0)
    # mode 3 has a large, well-resolved scheme bias at h=1e-2 (~64%) vs ~9% at 1e-3
    shrinks = dev_coarse[2] > dev_fine[2] and dev_coarse[1] > dev_fine[1]
    passed = results[1e-2][0] and results[1e-3][0] and shrinks
    report(
        "4 (integrator oracle)",
        passed,
        f"mode variances within max(3 SE, 2 bias) at h=1e-2 and 1e-3; "
        f"mode-3 deviation {dev_coarse[2]:.3f} -> {dev_fine[2]:.3f}",
    )


def test_criterion_05_temporal_exponents():
    """Fitted temporal exponents match min(1/2, (1+r-s)/2) within 0.1 at s in {0, 0.5}."""
    mults = [1, 2, 3, 5, 8, 13, 22, 36, 60, 100]
    # s = 0: lag window far below the slowest active mode's relaxation time
    model0 = linear_additive_model(64)
    h0 = 2e-5
    config0 = SolverConfig(T=200 * h0, steps=200, paths=10_000, master_seed=505)
    [(fit0, _)] = temporal_probe(
        model0, config0, s_values=(0.0,), anchor=100 * h0, lags=[m * h0 for m in mults]
    )
    # s = 0.5: window spanning the scaling range of the smoothness-weighted norm
    model5 = linear_additive_model(256)
    h5 = 1.2e-3
    config5 = SolverConfig(T=164 * h5, steps=164, paths=10_000, master_seed=506)
    [(fit5, _)] = temporal_probe(
        model5, config5, s_values=(0.5,), anchor=64 * h5, lags=[m * h5 for m in mults]
    )
    ok0 = abs(fit0.slope - 0.5) <= 0.1
    ok5 = abs(fit5.slope - 0.25) <= 0.1
    report(
        "5 (temporal exponents)",
        ok0 and ok5,
        f"s=0: slope {fit0.slope:.3f} (predicted {fit0.predicted}); "
        f"s=0.5: slope {fit5.slope:.3f} (predicted {fit5.predicted}); tolerance 0.1, "
        f"10 lags over 2 decades, 10^4 paths",
    )


def test_criterion_06_spatial_regularity_sweep():
    """Truncation sweep of the top-norm estimate is Cauchy for the admissible model."""
    model = linear_additive_model(512, r=0.0)
    config = SolverConfig(T=0.1, steps=100, paths=2000, master_seed=606, snapshot_times=(0.1,),
                          method=EXACT_GAUSSIAN)
    sweep = spatial_sweep(model, config, s=1.0, n_values=[64, 128, 256, 512])
    values = [v for _, v in sweep]
    gaps = [b - a for a, b in zip(values, values[1:])]
    decreasing = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    final_rel = gaps[-1] / values[-1]
    report(
        "6 (spatial regularity)",
        decreasing and final_rel < 0.02,
        f"sweep {[f'{v:.4f}' for v in values]}, gaps {[f'{g:.5f}' for g in gaps]}, "
        f"final relative gap {final_rel:.3%} (< 2% required)",
    )


def integral_test_bracket(a: int, b: int, t: float) -> tuple[float, float]:
    """Bounds on the r = 0 increment (1/2) sum_{k=a+1}^{b} 1/(k ln(k)^2).

    f(k) = 1/(k ln(k)^2) decreases and has antiderivative -1/ln(k), so the
    integral test puts the sum between the integrals of f over [a+1, b+1] and
    [a, b]. The bracket assumes the time factor 1 - e^{-2 k^2 pi^2 t} of every
    term is exactly 1.0 in double precision for k > a, which is checked here.
    """
    assert -math.expm1(-2.0 * ((a + 1) * math.pi) ** 2 * t) == 1.0, "time factor below 1"
    lower = 0.5 * (1.0 / math.log(a + 1) - 1.0 / math.log(b + 1))
    upper = 0.5 * (1.0 / math.log(a) - 1.0 / math.log(b))
    return lower, upper


def test_criterion_07_series_sharpness():
    """Divergence signature above the admissible regularity, convergence at it.

    At r = 0.25 the partial sums strictly increase with positive, growing
    decade increments. At r = 0 the decade increments decay, and each lies in
    its two-sided integral-test bracket; the tail beyond N is then certified
    to be at most 1/(2 ln N).
    """
    t = 0.1
    n_values = (10**3, 10**4, 10**5)
    sums_div = [example_series_partial_sum(0.25, t, n) for n in n_values]
    inc_div = [b - a for a, b in zip(sums_div, sums_div[1:])]
    sums_conv = [example_series_partial_sum(0.0, t, n) for n in n_values]
    inc_conv = [b - a for a, b in zip(sums_conv, sums_conv[1:])]
    decades = list(zip(n_values, n_values[1:]))
    brackets = [integral_test_bracket(a, b, t) for a, b in decades]

    strictly_increasing = sums_div[0] < sums_div[1] < sums_div[2]
    positive_floor = inc_div[1] > inc_div[0] > 0.0
    conv_decays = inc_conv[1] < inc_conv[0]
    outside = [
        f"decade {a:.0e} -> {b:.0e}: increment {inc:.8f} outside [{lo:.8f}, {hi:.8f}]"
        for (a, b), inc, (lo, hi) in zip(decades, inc_conv, brackets)
        if not lo <= inc <= hi
    ]

    passed = strictly_increasing and positive_floor and conv_decays and not outside
    tail_bound = 0.5 / math.log(n_values[-1])
    report(
        "7 (series sharpness)",
        passed,
        f"divergent increments {inc_div[0]:.4f} -> {inc_div[1]:.4f} (positive, growing); "
        f"convergent increments {inc_conv[0]:.6f} -> {inc_conv[1]:.6f} (decaying); "
        + ("; ".join(outside) if outside else "every decade increment within its integral-test bracket")
        + f"; certified tail beyond N = {n_values[-1]:.0e}: <= 1/(2 ln N) = {tail_bound:.4f}",
    )


def test_criterion_08_top_norm_continuity():
    """Top-norm modulus decreases across four dyadic lag reductions to below half."""
    n = 16
    model = linear_additive_model(n)
    config = SolverConfig(T=0.2, steps=800, paths=4000, master_seed=808)
    h = config.h
    lags = [2 * h, 4 * h, 8 * h, 16 * h, 32 * h]
    samples = increment_samples(model, config, (1.0,), 0.1, lags)[0]
    values = [estimate_lp_norm(arr, model.p)[0] for arr in samples]  # ascending lags
    decreasing = all(a < b for a, b in zip(values, values[1:]))
    below_half = values[0] < 0.5 * values[-1]
    report(
        "8 (top-norm continuity)",
        decreasing and below_half,
        f"modulus over dyadic lags {[f'{v:.4f}' for v in values]}; "
        f"smallest-lag value {values[0]:.4f} < half of largest {values[-1]:.4f}",
    )


def test_criterion_09_moment_inequality():
    """Monte-Carlo p-th moments respect the moment-inequality constant at p in {2, 4}."""
    n, t = 64, 0.1
    model = linear_additive_model(n)
    config = SolverConfig(T=t, steps=100, paths=10_000, master_seed=909, snapshot_times=(t,),
                          method=EXACT_GAUSSIAN)
    norms = map_paths(model, config, lambda rows: np.sqrt(np.sum(rows[:, 0, :] ** 2, axis=1)))
    energy = stochastic_convolution_energy(
        0.0, 0.0, t, np.sqrt(model.covariance)
    )
    details = []
    violations = 0
    for p in (2.0, 4.0):
        powered = norms**p
        moment = float(np.mean(powered))
        se = float(np.std(powered, ddof=1) / math.sqrt(powered.size))
        bound = burkholder_constant(p) * energy ** (p / 2.0)
        if moment > bound + 3.0 * se:
            violations += 1
        details.append(f"p={p:g}: moment {moment:.3e} <= C(p) bound {bound:.3e} + 3 SE")
    report("9 (moment inequality)", violations == 0, "; ".join(details))


def test_criterion_10_reproducibility(tmp_path):
    """Identical configs give byte-identical CSVs across runs and worker counts."""
    config_text = (
        "kind = probe-temporal\n"
        "model.N = 16\nmodel.covariance = example5\nmodel.drift = zero\n"
        "model.diffusion = additive\nmodel.r = 0\nmodel.p = 2\n"
        "solver.T = 0.004\nsolver.steps = 200\nsolver.paths = 400\nsolver.seed = 42\n"
        "probe.s = 0,0.5\nprobe.anchor = 0.002\n"
        "probe.lags = 2e-5,4e-5,6e-5,1e-4,1.6e-4,2.6e-4,4.4e-4,7.2e-4,1.2e-3,2e-3\n"
    )
    outputs = {}
    for label, workers in (("a", 1), ("b", 1), ("c", 4)):
        out, config_path = tmp_path / label, tmp_path / f"{label}.cfg"
        config_path.write_text(config_text + f"solver.workers = {workers}\n")
        code = main(["run", str(config_path), "--output-dir", str(out)])
        assert code == 0
        outputs[label] = {
            name: (out / name).read_bytes()
            for name in ("temporal_s0.csv", "temporal_s1.csv", "holder_fits.csv")
        }
    identical_runs = outputs["a"] == outputs["b"]
    identical_workers = outputs["a"] == outputs["c"]
    report(
        "10 (reproducibility)",
        identical_runs and identical_workers,
        f"byte-identical across repeated runs: {identical_runs}; "
        f"across worker counts {{1, 4}}: {identical_workers}",
    )


def test_criterion_11_multiplicative_temporal_exponents():
    """With multiplicative noise G(X) = cos(X) the temporal exponents stay the additive ones.

    Drift tanh and diffusion cos on N = 64 modes and a 256-point grid, driven by
    400 times the example covariance from x0 = 0, so that cos(X) moves well off 1.
    Each window of acceptance 5 is fitted and compared with the prediction
    min(1/2, (1+r-s)/2) within 0.1, and with the pathwise-coupled additive model
    (zero drift, identity diffusion, the same normals) within 0.05, which cancels
    most of the finite-window bias that both fits share.
    """
    mults = [1, 2, 3, 5, 8, 13, 22, 36, 60, 100]
    n, grid = 64, 256
    covariance = 400.0 * example_covariance(n)

    multiplicative = make_model(n, Nemytskii("tanh", grid), Nemytskii("cos", grid),
                                covariance=covariance)
    additive = linear_additive_model(n, covariance=covariance)
    passed = True
    details = []
    # (s, h, steps, anchor in steps, seed): acceptance 5's two windows
    for s, h, steps, anchor, seed in ((0.0, 2e-5, 200, 100, 505), (0.5, 1.2e-3, 164, 64, 506)):
        config = SolverConfig(T=steps * h, steps=steps, paths=2000, master_seed=seed)
        lags = [m * h for m in mults]
        [(fit, _)] = temporal_probe(multiplicative, config, (s,), anchor * h, lags)
        [(coupled, _)] = temporal_probe(additive, config, (s,), anchor * h, lags)
        passed = passed and abs(fit.slope - fit.predicted) <= 0.1
        passed = passed and abs(fit.slope - coupled.slope) <= 0.05
        details.append(
            f"s={s:g}: slope {fit.slope:.3f} (predicted {fit.predicted}, "
            f"coupled additive {coupled.slope:.3f})"
        )
    report(
        "11 (multiplicative temporal exponents)",
        passed,
        "; ".join(details) + "; tolerances 0.1 to the prediction and 0.05 to the coupled "
        "additive slope, 2000 paths",
    )


def test_criterion_12_drift_part_is_smoother():
    """The solution minus its stochastic convolution is the smoother part.

    With additive noise, X = E(t)x0 + D + O, where O is the stochastic
    convolution and D the deterministic convolution of the drift.  Here x0 = 0,
    the drift is tanh on a 256-point grid, and the noise is 400 times the
    example covariance.  O is a second `map_paths` run of the same seed with
    `drift=None`, so it reads the same normals, and D = X - O path by path.
    At N = 16, 32, 64, h = 1e-5 (lambda_64 h = 0.40, a resolved Euler step)
    and T = 0.002, the values are sqrt(E||.(T)||_2^2).  The tolerances were
    set before the test first ran: D's second gap is below half its first and
    below 1% of D at N = 64 (500 paths once read gaps 0.0036 and 0.0004 on
    values near 0.11), while O's second gap exceeds its first (O is not in
    H^2).  256 paths keep the cost to a few seconds on the current noise loop,
    one draw per (path, step).
    """
    s, steps, grid = 2.0, 200, 256
    config = SolverConfig(T=steps * 1e-5, steps=steps, paths=256, master_seed=606,
                          snapshot_times=(steps * 1e-5,))
    values = {"D": [], "O": []}
    for n in (16, 32, 64):
        lam = dirichlet_eigenvalues(n)

        def final_state(drift):
            model = make_model(n, drift, covariance=400.0 * example_covariance(n))
            return map_paths(model, config, lambda rows: rows[:, -1, :])

        x, o = final_state(Nemytskii("tanh", grid)), final_state(None)
        for name, part in (("D", x - o), ("O", o)):
            values[name].append(math.sqrt(np.mean(np.sum(lam**s * part**2, axis=1))))
    gaps = {name: [b - a for a, b in zip(v, v[1:])] for name, v in values.items()}
    d_gaps, o_gaps = gaps["D"], gaps["O"]
    report(
        "12 (the drift part is smoother)",
        abs(d_gaps[1]) < 0.5 * abs(d_gaps[0]) and abs(d_gaps[1]) < 0.01 * values["D"][-1]
        and o_gaps[1] > o_gaps[0] > 0.0,
        f"s=2: D {[f'{v:.4f}' for v in values['D']]} (gaps {[f'{g:.4f}' for g in d_gaps]}), "
        f"O {[f'{v:.1f}' for v in values['O']]} (gaps {[f'{g:.1f}' for g in o_gaps]}); "
        "D's second gap < half its first and < 1% of D, O's gaps grow; 256 paths",
    )


def split_euler(model, h, normals):
    """The Euler scheme from x0 = 0 split as X = D + S, returning (D, S) at its last step.

    D_{j+1} = E(h)(D_j - h F(X_j)) and S_{j+1} = E(h)(S_j + G(X_j) dW_j) with
    X_j = D_j + S_j, F and G evaluated by the kernel's own `_drift_rows` and
    `_diffusion_rows`, and dW_j the kernel's sqrt(q h) times `normals[j]`, an
    array (steps, paths, modes).
    """
    decay = np.exp(-model.eigenvalues * h)
    noise_sd = np.sqrt(model.covariance * h)
    d, s = np.zeros(normals.shape[1:]), np.zeros(normals.shape[1:])
    work = {}
    for z in normals:
        x = d + s
        grid = functools.partial(transforms.synthesize, x)
        g_dw = solver._diffusion_rows(model, x, z * noise_sd, work, grid)
        d = (d - h * solver._drift_rows(model, x, work, grid)) * decay
        s = (s + g_dw) * decay
    return d, s


def test_criterion_13_stochastic_part_carries_the_roughness():
    """With multiplicative noise the solution minus its stochastic part is the smoother part.

    X = E(t)x0 + D + S, where D is the deterministic convolution of the drift and
    S = int E(t-s) G(X(s)) dW(s) the stochastic one.  Here x0 = 0, the drift is
    tanh and the diffusion cos on a 256-point grid, and the noise is 400 times
    the example covariance.  `split_euler` splits the Euler step into D and S on
    the kernel's normals, and O is the additive run (drift=None, identity
    diffusion) on the same normals.  At N = 16, 32, 64, h = 1e-5
    (lambda_64 h = 0.40, a resolved Euler step) and T = 0.002, the values are
    sqrt(E||.(T)||_s^2).  The tolerances were set before the test first ran
    (500 paths had read the numbers in brackets):
    - D + S is the kernel's X to 1e-12 of max|X| (5.4e-15);
    - D's s = 2 sweep is Cauchy: its second gap is below half its first and
      below 1% of D at N = 64 (0.1078, 0.1110, 0.1114);
    - S's s = 1.5 sweep is not: its second gap is at least 3/4 of its first
      (gaps 7.1 and 6.7);
    - S/O at s = 1 stays within 5% across N (0.822, 0.816, 0.812): S has O's
      regularity.
    256 paths keep the cost to a few seconds on the current noise loop, one draw
    per (path, step), which the split loop repeats for its own normals.
    """
    steps, h, grid, seed = 200, 1e-5, 256, 606
    config = SolverConfig(T=steps * h, steps=steps, paths=256, master_seed=seed,
                          snapshot_times=(steps * h,))
    # a path's first n normals of a step are those a run on n modes draws
    normals = kernel_normals(seed, range(config.paths), steps, 64)
    d_values, s_values, ratios, mismatch = [], [], [], 0.0
    for n in (16, 32, 64):
        def final_state(model):
            return map_paths(model, config, lambda rows: rows[:, -1, :])

        def rms(s, part):
            return math.sqrt(np.mean(hdot_norm(s, part) ** 2))

        covariance = 400.0 * example_covariance(n)
        multiplicative = make_model(n, Nemytskii("tanh", grid), Nemytskii("cos", grid),
                                    covariance=covariance)
        x = final_state(multiplicative)
        o = final_state(linear_additive_model(n, covariance=covariance))
        d, s = split_euler(multiplicative, h, normals[:, :, :n])
        mismatch = max(mismatch, float(np.max(np.abs(d + s - x)) / np.max(np.abs(x))))
        d_values.append(rms(2.0, d))
        s_values.append(rms(1.5, s))
        ratios.append(rms(1.0, s) / rms(1.0, o))
    d_gaps = [b - a for a, b in zip(d_values, d_values[1:])]
    s_gaps = [b - a for a, b in zip(s_values, s_values[1:])]
    report(
        "13 (the stochastic part carries the roughness)",
        mismatch <= 1e-12
        and abs(d_gaps[1]) < 0.5 * abs(d_gaps[0]) and abs(d_gaps[1]) < 0.01 * d_values[-1]
        and s_gaps[1] >= 0.75 * s_gaps[0] > 0.0
        and max(ratios) <= 1.05 * min(ratios),
        f"D + S - X {mismatch:.1e} of max|X|; s=2: D {[f'{v:.4f}' for v in d_values]}; "
        f"s=1.5: S {[f'{v:.1f}' for v in s_values]} (gaps {[f'{g:.1f}' for g in s_gaps]}); "
        f"s=1: S/O {[f'{v:.3f}' for v in ratios]}; D's second gap < half its first and < 1% "
        "of D, S's second gap >= 3/4 of its first, S/O within 5%; 256 paths",
    )
