"""Flat key=value experiment configuration files.

The format is one `key = value` pair per line, dotted section prefixes
(`model.N = 256`), `#` comments, and no nesting.  `COMMAND_KEYS` lists the
keys each command reads: a key no command reads is unknown, and a file whose
`kind` does not read one of its keys is rejected once the whole file is read.
Values stay strings until a typed accessor pulls them out; every parse or
validation error reports the offending key and line.

Numbers are finite, number lists are non-empty, and an integer, alone or in a
list, is written as one (`1e2` and `4.0` are not).  The number accessors
(`get_float`, `get_floats`, `get_int`, `get_ints`) check this, so no NaN,
infinity, fraction or empty list from a file reaches a model, a solver or a
probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import SCALAR_FUNCTIONS, Diagonal, ModelError, ModelSpec, Nemytskii
from .noise import example_covariance
from .solver import EXACT_GAUSSIAN, EXPONENTIAL_EULER, SolverConfig

# Keys that steer execution without changing any computed number; they are
# excluded from the resolved-config line embedded in output files.
EXECUTION_KEYS = ("output.dir", "solver.workers")

# The keys each command reads, each mapped to the `ModelError` fields of the
# library arguments its value feeds; a key whose value no library check names
# maps to ().  Every command takes `kind` and `output.dir`; `solver.seed`, which
# `--seed` sets, only those that draw.  The covariance keys name no field: which
# one set the values depends on the covariance kind, and build_model reports it.
_COMMON_KEYS = {"kind": (), "output.dir": ()}
_MODEL_KEYS = {
    "model.N": ("dimension",), "model.covariance": (), "model.covariance.value": (),
    "model.covariance.values": (), "model.initial": ("initial",), "model.r": ("r",),
    "model.p": ("p",), "model.drift": (), "model.drift.multipliers": ("drift.multipliers",),
    "model.drift.function": ("drift.function",), "model.drift.grid": ("drift.grid_size",),
    "model.diffusion": (), "model.diffusion.multipliers": ("diffusion.multipliers",),
    "model.diffusion.function": ("diffusion.function",),
    "model.diffusion.grid": ("diffusion.grid_size",),
}
_SOLVER_KEYS = {
    "solver.method": ("method",), "solver.T": ("T",), "solver.steps": ("steps",),
    "solver.paths": ("paths",), "solver.seed": ("master_seed",),
    "solver.snapshots": ("snapshot_times",), "solver.workers": (),
}
COMMAND_KEYS = {
    "simulate": {**_COMMON_KEYS, **_MODEL_KEYS, **_SOLVER_KEYS},
    "probe-temporal": {**_COMMON_KEYS, **_MODEL_KEYS, **_SOLVER_KEYS, "probe.s": ("s_values",),
                       "probe.anchor": ("anchor",), "probe.lags": ("lags",)},
    "probe-spatial": {**_COMMON_KEYS, **_MODEL_KEYS, **_SOLVER_KEYS, "probe.s": ("s",),
                      "probe.sweep_N": ("n_values", "n_modes")},
    "verify-lemmas": {**_COMMON_KEYS, "solver.seed": ("seed",),
                      "lemmas.bound_draws": ("bound_draws",),
                      "lemmas.exactness_draws": ("exactness_draws",),
                      "lemmas.paths": ("mc_paths",)},
    "example-section5": {**_COMMON_KEYS, "series.r": ("r",), "series.t": ("t",),
                         "series.N": ("n_values", "n_modes")},
    "verify-assumptions": {**_COMMON_KEYS, **_MODEL_KEYS, "solver.seed": ("probe_seed",)},
}
KINDS = tuple(COMMAND_KEYS)
# a key no command reads is rejected as a likely typo
KNOWN_KEYS = frozenset().union(*COMMAND_KEYS.values())


def field_key(keys: dict[str, tuple[str, ...]], field: str | None) -> str | None:
    """The key of `keys` whose value feeds the argument `field`, or None."""
    return next((key for key, fields in keys.items() if field in fields), None)


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


def _int_list(raw: str) -> list[int]:
    # int(), as get_int reads one value: no float spelling, and no empty entry
    return [int(part) for part in raw.split(",")]


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
        return self._get(key, None if default is None else list(default), _int_list,
                         "a non-empty list of integers")

    @property
    def kind(self) -> str:
        return self.get_choice("kind", KINDS)

    def set(self, key: str, value) -> None:
        """Set `key` over the file's value, which leaves the key no line."""
        self.entries[key] = str(value)
        self.lines.pop(key, None)

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
    if "kind" in cfg.entries:  # on any line: the file's other keys are judged once it is read
        kind = cfg.kind
        for key in entries:
            if key not in COMMAND_KEYS[kind]:
                raise ConfigError(f"{kind} does not read this key", key=key, line=lines[key])
    return cfg


def parse_config_file(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def build_model(cfg: ExperimentConfig) -> ModelSpec:
    n = cfg.get_int("model.N", 256, minimum=1)

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
        kind = cfg.get_choice(f"model.{role}", kinds, kinds[0])
        if kind == "zero":
            return None
        if kind == "nemytskii":
            return Nemytskii(cfg.get_choice(f"model.{role}.function", tuple(SCALAR_FUNCTIONS)),
                             cfg.get_int(f"model.{role}.grid", 4 * n))
        return Diagonal(broadcast(f"model.{role}.multipliers", multiplier))

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
        return ModelSpec(dimension=n, covariance=covariance, drift=drift,
                         diffusion=diffusion, initial=initial, r=r, p=p)
    except ModelError as exc:
        key = cov_key if exc.field == "covariance" else field_key(_MODEL_KEYS, exc.field)
        raise cfg.error(f"invalid model: {exc}", key) from exc


def build_solver(cfg: ExperimentConfig) -> SolverConfig:
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
        key = field_key(_SOLVER_KEYS, exc.field)
        raise cfg.error(f"invalid solver section: {exc}", key) from exc


def warn_on_stiff_linear_drift(
    cfg: ExperimentConfig, model: ModelSpec, config: SolverConfig
) -> None:
    """Warn, without failing, when the Euler stepper meets a linear drift with
    h * max|f_k| >= 1.

    The Euler step scales mode k by 1 - h f_k before the semigroup acts.  From
    h |f_k| = 1 on, that factor no longer resembles e^{-h f_k}: it vanishes or
    changes sign for a damping f_k, and at least doubles the mode for a growing
    one, so the scheme can oscillate or blow up.  The exact stepper takes no
    drift at all, and `map_paths` refuses one, so it gets no warning.
    """
    if config.method != EXPONENTIAL_EULER or not isinstance(model.drift, Diagonal):
        return
    k = int(np.argmax(np.abs(model.drift.multipliers)))
    worst = float(model.drift.multipliers[k])
    if config.h * abs(worst) >= 1.0:
        cfg.warnings.append(
            f"step h = {config.h:g} with linear drift multiplier f_{k + 1} = {worst:g} gives "
            f"h*max|f_k| = {config.h * abs(worst):g} >= 1; the Euler drift term may be unstable"
        )
