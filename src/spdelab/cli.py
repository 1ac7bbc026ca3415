"""Batch experiment runner: config file in, CSV tables and summary lines out.

`verify-lemmas` checks the closed-form convolution integrals against a
composite Gauss-Legendre quadrature of their integrands; every command runs on
numpy and spdelab alone.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import probes, solver
from .config import (
    COMMAND_KEYS,
    ConfigError,
    ExperimentConfig,
    build_model,
    build_solver,
    field_key,
    parse_config_file,
    warn_on_stiff_linear_drift,
)
from .models import SCALAR_FUNCTIONS, Diagonal, ModelError, ModelSpec, validate_assumptions
from .noise import burkholder_constant, example_covariance
from .solver import EXACT_GAUSSIAN, SolverConfig
from .spectrum import (
    deterministic_convolution_norm,
    dirichlet_eigenvalues,
    hdot_norm,
    smoothing_constant,
    stochastic_convolution_energy,
)


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):  # no commas, which would split a CSV cell
        return ";".join(_format_cell(item) for item in value)
    return str(value)


def write_csv(path: Path, resolved_config: str, header: list[str], rows: list[tuple]) -> None:
    lines = [f"# config: {resolved_config}", ",".join(header)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


# Largest relative gap allowed between a closed-form convolution value and its quadrature.
EXACTNESS_RTOL = 1e-8
# Floating-point headroom applied to analytic inequalities whose two sides can
# coincide to rounding at the extremizer.
RELATIVE_SLACK = 1e-12


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    draws: int
    violations: int
    worst: float
    passed: bool


@functools.cache
def _unit_gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """24-point Gauss-Legendre nodes and weights on [0, 1], built at first use."""
    from numpy.polynomial.legendre import leggauss  # lazy: keeps numpy.polynomial off start-up

    nodes, weights = leggauss(24)
    rule = (0.5 * (nodes + 1.0), 0.5 * weights)
    for arr in rule:  # shared by every caller through the cache
        arr.setflags(write=False)
    return rule


def _convolution_quad_oracles(rho, tau1, tau2, x) -> tuple[float, float]:
    """Quadrature values of the two convolution quantities, from their integrands.

    A 24-point Gauss-Legendre rule runs on the dyadic panels [0, d 2^-L], ...,
    [d/4, d/2], [d/2, d] of the window length d, halved toward 0 until
    2 lam_max times the first panel width is at most 1e-3.  On a later panel
    [a, 2a] the rule's error for an integrand e^{-c u} is at most a constant
    times (c a)^49 e^{-c a} / c, which stays below 1e-28 of the mode's whole
    integral 1/c whatever c a is.
    """
    lam = dirichlet_eigenvalues(x.shape[-1])
    edges = [tau2 - tau1]
    while 2.0 * lam[-1] * edges[-1] > 1e-3:
        edges.append(0.5 * edges[-1])
    upper = np.array(edges[::-1])
    lower = np.concatenate(([0.0], upper[:-1]))
    width = upper - lower
    nodes, weights = _unit_gauss_legendre()
    u = (lower[:, None] + width[:, None] * nodes).ravel()
    w = (width[:, None] * weights).ravel()
    flow = np.exp(-np.outer(u, lam))  # (nodes, modes): e^{-lam u}
    energy = float(w @ flow**2 @ (x**2 * lam**rho))
    vector = (w @ flow) * x
    # its own sum rather than hdot_norm: a reference stays independent of what it checks
    norm = float(np.sqrt(np.sum((lam**rho * vector) ** 2)))
    return energy, norm


def verify_lemmas(
    bound_draws: int, exactness_draws: int, mc_paths: int, seed: int
) -> tuple[LemmaCheck, ...]:
    """Exactness and sharp-constant bound suites for the semigroup estimates,
    plus the Monte-Carlo moment inequality at p in {2, 4}.

    Each bound check takes `bound_draws` random draws, the exactness check
    `exactness_draws`, and the moment check samples `mc_paths` exact paths;
    `seed` drives all of them.  A check that draws nothing passes vacuously,
    and one path has no standard error, so smaller sizes, and a negative seed,
    are a `ModelError` naming the parameter.
    """
    for name, size, least in (("bound_draws", bound_draws, 1),
                              ("exactness_draws", exactness_draws, 1),
                              ("mc_paths", mc_paths, 2), ("seed", seed, 0)):
        if size < least:
            raise ModelError(f"{name} must be >= {least}, got {size}", name)
    rng = np.random.default_rng(seed)
    slack = 1.0 + RELATIVE_SLACK
    checks: list[LemmaCheck] = []

    def log_uniform(lo, hi, size=None):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), size))

    def record(names, draws, limit, sample):
        """Run `sample` `draws` times; each call returns one ratio per check name."""
        worst, violations = [0.0] * len(names), [0] * len(names)
        for _ in range(draws):
            for i, ratio in enumerate(sample()):
                worst[i] = max(worst[i], ratio)
                violations[i] += ratio > limit
        checks.extend(
            LemmaCheck(name, draws, v, w, v == 0) for name, v, w in zip(names, violations, worst)
        )

    # (i) power smoothing: lam^mu e^{-lam t} <= (mu/e)^mu t^-mu
    def power_smoothing():
        lam, t, mu = log_uniform(1e-2, 1e6), log_uniform(1e-6, 10.0), rng.uniform(0.0, 2.0)
        lhs = lam**mu * math.exp(-lam * t)
        rhs = smoothing_constant("power", mu) * t**-mu
        return (lhs / rhs if rhs > 0 else math.inf,)

    # (ii) difference: lam^-nu (1 - e^{-lam t}) <= C(nu) t^nu
    def difference_smoothing():
        lam, t, nu = log_uniform(1e-2, 1e6), log_uniform(1e-6, 10.0), rng.uniform(0.0, 1.0)
        lhs = lam**-nu * -math.expm1(-lam * t)
        return (lhs / (smoothing_constant("difference", nu) * t**nu),)

    def random_window(shortest):
        """A random vector at N = 64, smoothness rho, start tau1 and log-uniform width."""
        x = rng.standard_normal(64)
        return x, rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5), log_uniform(shortest, 0.5)

    # (iii)/(iv) bounds with the derived constants
    def convolution_bounds():
        x, rho, tau1, delta = random_window(1e-4)
        norm_sq = float(np.sum(x**2))
        energy = stochastic_convolution_energy(rho, tau1, tau1 + delta, x)
        energy_bound = 0.5 * smoothing_constant("integral", rho) * delta ** (1.0 - rho) * norm_sq
        flow = deterministic_convolution_norm(rho, tau1, tau1 + delta, x)
        flow_bound = smoothing_constant("convolution", rho) * delta ** (1.0 - rho)
        return energy / energy_bound, flow / (flow_bound * math.sqrt(norm_sq))

    # exactness of the closed forms against composite Gauss-Legendre quadrature
    def convolution_exactness():
        x, rho, tau1, delta = random_window(1e-3)
        tau2 = tau1 + delta
        energy_q, norm_q = _convolution_quad_oracles(rho, tau1, tau2, x)
        energy = stochastic_convolution_energy(rho, tau1, tau2, x)
        flow = deterministic_convolution_norm(rho, tau1, tau2, x)
        return (max(abs(energy - energy_q) / energy_q, abs(flow - norm_q) / norm_q),)

    record(("power_smoothing",), bound_draws, slack, power_smoothing)
    record(("difference_smoothing",), bound_draws, slack, difference_smoothing)
    record(("convolution_energy_bound", "convolution_flow_bound"), bound_draws, slack,
           convolution_bounds)
    record(("convolution_exactness",), exactness_draws, EXACTNESS_RTOL, convolution_exactness)

    # moment inequality at p in {2, 4} for an exactly sampled noise response
    n = 32
    cov = example_covariance(n)
    model = ModelSpec(
        dimension=n,
        covariance=cov,
        drift=None,
        diffusion=Diagonal(np.ones(n)),
        initial=np.zeros(n),
        r=0.0,
        p=2.0,
    )
    t_final = 0.1
    config = SolverConfig(
        T=t_final, steps=100, paths=mc_paths, master_seed=seed,
        snapshot_times=(t_final,), method=EXACT_GAUSSIAN,
    )
    norms = solver.map_paths(model, config, lambda rows: hdot_norm(0.0, rows[:, 0, :]))
    energy = stochastic_convolution_energy(0.0, 0.0, t_final, np.sqrt(cov))
    for p in (2.0, 4.0):
        powered = norms**p
        moment = float(np.mean(powered))
        se = float(np.std(powered, ddof=1) / math.sqrt(powered.size))
        bound = burkholder_constant(p) * energy ** (p / 2.0)
        passed = moment <= bound + 3.0 * se
        checks.append(
            LemmaCheck(f"moment_bound_p{int(p)}", mc_paths, int(not passed), moment / bound, passed)
        )
    return tuple(checks)


def _apply_overrides(cfg: ExperimentConfig, args) -> None:
    if "solver.seed" in COMMAND_KEYS[cfg.kind]:
        if args.seed is not None:
            cfg.set("solver.seed", args.seed)
        elif "solver.seed" not in cfg:  # every command that draws warns, ahead of its run's own
            cfg.warnings.append("solver.seed not set; defaulting to 0")
    if args.output_dir is not None:
        cfg.set("output.dir", args.output_dir)


def _model_and_solver(cfg: ExperimentConfig) -> tuple[ModelSpec, SolverConfig]:
    model = build_model(cfg)
    config = build_solver(cfg)
    warn_on_stiff_linear_drift(cfg, model, config)
    workers = cfg.get_int("solver.workers", 1)  # kept for old configs, and read only to warn
    if workers > 1:
        cfg.warnings.append(f"solver.workers = {workers} is ignored; paths run on one thread")
    return model, config


def _run_simulate(cfg, out_dir: Path) -> list[str]:
    model, config = _model_and_solver(cfg)
    rows_all = solver.map_paths(model, config, lambda rows: rows)
    table = []
    summary = []
    for i, t in enumerate(config.snapshot_times):
        snap = rows_all[:, i, :]
        mean = snap.mean(axis=0)
        var = snap.var(axis=0)
        for k in range(model.dimension):
            table.append((t, k + 1, mean[k], var[k]))
        rms = float(np.sqrt(np.mean(np.sum(snap**2, axis=1))))
        summary.append(f"t={t:g}: rms H^0 norm ≈ {rms:.6g} over {config.paths} paths")
    write_csv(out_dir / "snapshots.csv", cfg.resolved(), ["time", "mode", "mean", "variance"], table)
    return summary


def _run_probe_temporal(cfg, out_dir: Path) -> list[str]:
    model, config = _model_and_solver(cfg)
    s_values = cfg.get_floats("probe.s")
    anchor = cfg.get_float("probe.anchor") if "probe.anchor" in cfg else None
    lags = cfg.get_floats("probe.lags") if "probe.lags" in cfg else None
    results = probes.temporal_probe(model, config, s_values, anchor, lags)
    summary = []
    fit_rows = []
    for idx, (s, (fit, table)) in enumerate(zip(s_values, results)):
        write_csv(
            out_dir / f"temporal_s{idx}.csv",
            cfg.resolved(),
            ["lag", "estimate", "stderr"],
            table,
        )
        fit_rows.append((s, fit.slope, fit.slope_stderr, fit.predicted))
        summary.append(f"s={s:g}: slope≈{fit.slope:.3f} predicted {fit.predicted:g}")
    write_csv(out_dir / "holder_fits.csv", cfg.resolved(), ["s", "slope", "stderr", "predicted"], fit_rows)
    return summary


def _run_probe_spatial(cfg, out_dir: Path) -> list[str]:
    model, config = _model_and_solver(cfg)
    s = cfg.get_float("probe.s", model.r + 1.0)
    n_values = cfg.get_ints("probe.sweep_N")
    sweep = probes.spatial_sweep(model, config, s, n_values)
    write_csv(out_dir / "spatial_sweep.csv", cfg.resolved(), ["N", "value"], sweep)
    summary = [f"sweep s={s:g}: values {' '.join(f'{v:.5g}' for _, v in sweep)}"]
    gaps = [abs(b[1] - a[1]) for a, b in zip(sweep, sweep[1:])]
    if len(gaps) >= 2:  # a verdict compares consecutive gaps
        cauchy = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        rel = gaps[-1] / sweep[-1][1] if sweep[-1][1] else math.inf
        summary.append(f"gaps decreasing: {cauchy}; final relative gap {rel:.3%}")
    return summary


def _run_verify_lemmas(cfg, out_dir: Path) -> list[str]:
    checks = verify_lemmas(
        bound_draws=cfg.get_int("lemmas.bound_draws", 1000),
        exactness_draws=cfg.get_int("lemmas.exactness_draws", 100),
        mc_paths=cfg.get_int("lemmas.paths", 10000),
        seed=cfg.get_int("solver.seed", 0),
    )
    write_csv(
        out_dir / "lemmas.csv",
        cfg.resolved(),
        ["check", "draws", "violations", "worst", "passed"],
        [(c.name, c.draws, c.violations, c.worst, c.passed) for c in checks],
    )
    return [
        f"{c.name}: {'PASS' if c.passed else 'FAIL'} "
        f"(violations {c.violations}/{c.draws}, worst {c.worst:.6g})"
        for c in checks
    ]


def _run_example_series(cfg, out_dir: Path) -> list[str]:
    r = cfg.get_float("series.r", 0.25)
    t = cfg.get_float("series.t", 0.1)
    n_values = cfg.get_ints("series.N", [1000, 10000, 100000])
    partial_sums = probes.example_series_report(r, t, n_values)
    write_csv(out_dir / "series.csv", cfg.resolved(), ["N", "partial_sum"], list(partial_sums))
    sums = [v for _, v in partial_sums]
    increments = [b - a for a, b in zip(sums, sums[1:])]
    summary = [f"series r={r:g} t={t:g}: partial sums {' '.join(f'{v:.6g}' for v in sums)}"]
    if len(increments) >= 2:  # a verdict compares the first increment with the last
        decay = "non-decaying" if increments[-1] >= increments[0] else "decaying"
        summary.append(f"increments {' '.join(f'{v:.6g}' for v in increments)} ({decay})")
    return summary


def _run_verify_assumptions(cfg, out_dir: Path) -> list[str]:
    model = build_model(cfg)
    checks = validate_assumptions(model, probe_seed=cfg.get_int("solver.seed", 0))
    rows = [
        (c.name, c.passed, " ".join(f"{k}={_format_cell(v)}" for k, v in sorted(c.measured.items())))
        for c in checks
    ]
    write_csv(out_dir / "assumptions.csv", cfg.resolved(), ["check", "passed", "measured"], rows)
    return [f"{name}: {'PASS' if passed else 'FAIL'} {measured}" for name, passed, measured in rows]


_RUNNERS = {
    "simulate": _run_simulate,
    "probe-temporal": _run_probe_temporal,
    "probe-spatial": _run_probe_spatial,
    "verify-lemmas": _run_verify_lemmas,
    "example-section5": _run_example_series,
    "verify-assumptions": _run_verify_assumptions,
}


def run(config_path: str, args) -> int:
    cfg = error = None
    try:
        cfg = parse_config_file(config_path)
        _apply_overrides(cfg, args)
        kind = cfg.kind
        out_dir = Path(cfg.get_str("output.dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        summary = _RUNNERS[kind](cfg, out_dir)
    except ConfigError as exc:
        error = f"config error: {exc}"
    except ModelError as exc:  # a library rejection of an argument its command read from a key
        error = f"config error: {cfg.error(str(exc), field_key(COMMAND_KEYS[kind], exc.field))}"
    except (ValueError, KeyError, OSError) as exc:
        error = f"error: {exc}"
    # warnings gathered before a failure are printed too, ahead of the error
    for warning in cfg.warnings if cfg is not None else ():
        print(f"warning: {warning}", file=sys.stderr)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    for line in summary:
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spdelab",
        description="Spectral-Galerkin stochastic heat equation laboratory",
    )
    parser.add_argument(
        "--list-registry", action="store_true",
        help="print the pointwise scalar functions of the SCALAR_FUNCTIONS table "
        "with their Lipschitz constants, and exit",
    )
    sub = parser.add_subparsers(dest="command")
    run_parser = sub.add_parser("run", help="run the experiment described by a config file")
    run_parser.add_argument("config", help="path to a key=value config file")
    run_parser.add_argument("--output-dir", default=None, help="directory for CSV output")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override solver.seed, in a command that reads it")
    args = parser.parse_args(argv)

    if args.list_registry:
        for name, entry in SCALAR_FUNCTIONS.items():
            print(f"{name}: Lipschitz constant {entry.lipschitz:g}")
        return 0
    if args.command != "run":
        parser.print_help()
        return 2
    return run(args.config, args)


if __name__ == "__main__":
    sys.exit(main())
