"""Flat key=value experiment configuration files.

The format is one `key = value` pair per line, dotted section prefixes
(`model.N = 256`), `#` comments, and no nesting.  Only the keys in
`KNOWN_KEYS` are accepted.  Values stay strings until a typed accessor pulls
them out; every parse or validation error reports the offending key and line.

Numbers are finite and number lists are non-empty.  The number accessors
(`get_float`, `get_floats`, `get_ints`) check both, so no NaN, infinity or
empty list from a file reaches a model, a solver or a probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import SCALAR_FUNCTIONS, Diagonal, ModelError, ModelSpec, Nemytskii
from .noise import example_covariance
from .solver import EXACT_GAUSSIAN, EXPONENTIAL_EULER, SolverConfig
from .spectrum import dirichlet_laplacian_1d

KINDS = (
    "simulate",
    "probe-temporal",
    "probe-spatial",
    "verify-lemmas",
    "example-section5",
    "verify-assumptions",
)

# Keys that steer execution without changing any computed number; they are
# excluded from the resolved-config line embedded in output files.
EXECUTION_KEYS = ("output.dir", "solver.workers")

# Every key a config file may set; any other key is rejected as a likely typo.
KNOWN_KEYS = frozenset({
    "kind", *EXECUTION_KEYS,
    "model.N", "model.initial", "model.r", "model.p",
    "model.covariance", "model.covariance.value", "model.covariance.values",
    "model.drift", "model.drift.multipliers", "model.drift.function", "model.drift.grid",
    "model.diffusion", "model.diffusion.multipliers", "model.diffusion.function",
    "model.diffusion.grid",
    "solver.method", "solver.T", "solver.steps", "solver.paths", "solver.seed",
    "solver.snapshots",
    "probe.s", "probe.anchor", "probe.lags", "probe.sweep_N",
    "lemmas.bound_draws", "lemmas.exactness_draws", "lemmas.paths",
    "series.r", "series.t", "series.N",
})


# The key that sets each ModelSpec and SolverConfig field, by the field's name
# in a ModelError: build_model reads the drift and diffusion through these keys,
# and a rejected field is reported against its key.  The covariance is not here:
# its key depends on the covariance kind, so build_model names the one its
# values came from.
FIELD_KEYS = {
    "initial": "model.initial",
    "r": "model.r",
    "p": "model.p",
    "drift": "model.drift",
    "drift.multipliers": "model.drift.multipliers",
    "drift.function": "model.drift.function",
    "drift.grid_size": "model.drift.grid",
    "diffusion": "model.diffusion",
    "diffusion.multipliers": "model.diffusion.multipliers",
    "diffusion.function": "model.diffusion.function",
    "diffusion.grid_size": "model.diffusion.grid",
    "T": "solver.T", "steps": "solver.steps", "paths": "solver.paths",
    "snapshot_times": "solver.snapshots", "method": "solver.method",
}


class ConfigError(ValueError):
    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        parts = []
        if key is not None:
            parts.append(f"key {key!r}")
        if line is not None:
            parts.append(f"line {line}")
        location = f" ({', '.join(parts)})" if parts else ""
        super().__init__(message + location)
        self.key = key
        self.line = line


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _finite_list(raw: str) -> list[float]:
    # float() rejects an empty entry: an empty value, or a doubled or trailing comma
    return [_finite(part) for part in raw.split(",")]


@dataclass
class ExperimentConfig:
    """Parsed key=value pairs plus the line each key came from."""

    entries: dict[str, str]
    lines: dict[str, int]
    warnings: list[str]

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def error(self, message: str, key: str | None) -> ConfigError:
        """The error naming `key`, and the line that set it if the file sets it."""
        return ConfigError(message, key=key, line=self.lines.get(key))

    def _get(self, key: str, default, convert, expected: str):
        if key not in self.entries:
            if default is None:
                raise self.error("missing required key", key)
            return default
        raw = self.entries[key]
        try:
            return convert(raw)
        except ValueError:
            raise self.error(f"expected {expected}, got {raw!r}", key) from None

    def get_str(self, key: str, default: str | None = None) -> str:
        return self._get(key, default, str, "a string")

    def get_choice(self, key: str, choices: tuple[str, ...], default: str | None = None) -> str:
        value = self.get_str(key, default)
        if value not in choices:
            raise self.error(f"value {value!r} not in {choices}", key)
        return value

    def get_int(self, key: str, default: int | None = None, minimum: int | None = None) -> int:
        value = self._get(key, default, int, "an integer")
        if minimum is not None and value < minimum:
            raise self.error(f"{key} must be >= {minimum}, got {value}", key)
        return value

    def get_float(self, key: str, default: float | None = None) -> float:
        return self._get(key, default, _finite, "a finite number")

    def get_floats(self, key: str, default: list[float] | None = None) -> list[float]:
        return self._get(key, None if default is None else list(default), _finite_list,
                         "a non-empty list of finite numbers")

    def get_ints(self, key: str, default: list[int] | None = None) -> list[int]:
        values = self.get_floats(key, default)
        for v in values:
            if v != int(v):
                raise self.error(f"expected integers, got {v}", key)
        return [int(v) for v in values]

    @property
    def kind(self) -> str:
        return self.get_choice("kind", KINDS)

    def set(self, key: str, value) -> None:
        self.entries[key] = str(value)

    def resolved(self) -> str:
        """Deterministic one-line rendering of every result-affecting key."""
        pairs = [
            f"{key}={self.entries[key]}"
            for key in sorted(self.entries)
            if key not in EXECUTION_KEYS
        ]
        return " ".join(pairs)


def parse_config_text(text: str) -> ExperimentConfig:
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key not in KNOWN_KEYS:
            raise ConfigError("unknown key", key=key, line=lineno)
        if key in entries:
            raise ConfigError("duplicate key", key=key, line=lineno)
        entries[key] = value
        lines[key] = lineno
    cfg = ExperimentConfig(entries, lines, warnings=[])
    if "kind" in cfg.entries:
        cfg.kind  # validates the choice early
    return cfg


def parse_config_file(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def build_model(cfg: ExperimentConfig) -> ModelSpec:
    n = cfg.get_int("model.N", 256, minimum=1)
    operator = dirichlet_laplacian_1d(n)

    # the key a rejected covariance is reported against: the one that set its values
    cov_kind = cfg.get_choice("model.covariance", ("example5", "constant", "custom"), "example5")
    if cov_kind == "example5":
        cov_key, covariance = "model.covariance", example_covariance(n)
    elif cov_kind == "constant":
        cov_key = "model.covariance.value"
        covariance = np.full(n, cfg.get_float(cov_key, 1.0))
    else:
        cov_key = "model.covariance.values"
        covariance = cfg.get_floats(cov_key)

    def broadcast(key: str, default: float) -> np.ndarray:
        values = cfg.get_floats(key, [default])
        if len(values) == 1:
            return np.full(n, values[0])
        if len(values) != n:
            raise cfg.error(f"need 1 or {n} values, got {len(values)}", key)
        return np.array(values)

    def term(role: str, kinds: tuple[str, ...], multiplier: float):
        """The drift or diffusion spec, of the first of `kinds` by default: None
        for "zero", a `Nemytskii` for "nemytskii", else a `Diagonal` whose
        multipliers default to `multiplier`."""
        kind = cfg.get_choice(FIELD_KEYS[role], kinds, kinds[0])
        if kind == "zero":
            return None
        if kind == "nemytskii":
            return Nemytskii(
                cfg.get_choice(FIELD_KEYS[f"{role}.function"], tuple(SCALAR_FUNCTIONS)),
                cfg.get_int(FIELD_KEYS[f"{role}.grid_size"], 4 * n),
            )
        return Diagonal(broadcast(FIELD_KEYS[f"{role}.multipliers"], multiplier))

    drift = term("drift", ("zero", "linear", "nemytskii"), 0.0)
    diffusion = term("diffusion", ("additive", "nemytskii"), 1.0)

    initial_values = cfg.get_floats("model.initial", [0.0])
    if len(initial_values) > n:
        raise cfg.error(f"initial state has {len(initial_values)} coefficients for {n} modes",
                        "model.initial")
    initial = np.zeros(n)
    initial[: len(initial_values)] = initial_values
    r, p = cfg.get_float("model.r", 0.0), cfg.get_float("model.p", 2.0)

    try:
        return ModelSpec(operator=operator, covariance=covariance, drift=drift,
                         diffusion=diffusion, initial=initial, r=r, p=p)
    except ModelError as exc:
        key = cov_key if exc.field == "covariance" else FIELD_KEYS.get(exc.field)
        raise cfg.error(f"invalid model: {exc}", key) from exc


def build_solver(cfg: ExperimentConfig) -> SolverConfig:
    if "solver.seed" not in cfg:
        cfg.warnings.append("solver.seed not set; defaulting to 0")
    snapshots = tuple(cfg.get_floats("solver.snapshots")) if "solver.snapshots" in cfg else None
    token = cfg.get_choice("solver.method", ("euler", "exact-gaussian"), "euler")
    try:
        return SolverConfig(
            T=cfg.get_float("solver.T"),
            steps=cfg.get_int("solver.steps", 1),
            paths=cfg.get_int("solver.paths", 1000),
            master_seed=cfg.get_int("solver.seed", 0),
            snapshot_times=snapshots,
            method=EXPONENTIAL_EULER if token == "euler" else EXACT_GAUSSIAN,
        )
    except ModelError as exc:
        raise cfg.error(f"invalid solver section: {exc}", FIELD_KEYS.get(exc.field)) from exc


def warn_on_stiff_linear_drift(
    cfg: ExperimentConfig, model: ModelSpec, config: SolverConfig
) -> None:
    """Warn, without failing, when a linear drift has h * max|f_k| >= 1.

    The Euler step scales mode k by 1 - h f_k before the semigroup acts.  From
    h |f_k| = 1 on, that factor no longer resembles e^{-h f_k}: it vanishes or
    changes sign for a damping f_k, and at least doubles the mode for a growing
    one, so the scheme can oscillate or blow up.
    """
    if not isinstance(model.drift, Diagonal):
        return
    k = int(np.argmax(np.abs(model.drift.multipliers)))
    worst = float(model.drift.multipliers[k])
    if config.h * abs(worst) >= 1.0:
        cfg.warnings.append(
            f"step h = {config.h:g} with linear drift multiplier f_{k + 1} = {worst:g} gives "
            f"h*max|f_k| = {config.h * abs(worst):g} >= 1; the Euler drift term may be unstable"
        )
