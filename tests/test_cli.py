"""CLI and config-file tests: parsing, experiment kinds, and reproducibility."""

import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdelab
from spdelab import cli
from spdelab.cli import main
from spdelab.config import (
    _MODEL_KEYS,
    _SOLVER_KEYS,
    COMMAND_KEYS,
    KINDS,
    KNOWN_KEYS,
    ConfigError,
    build_model,
    build_solver,
    field_key,
    parse_config_text,
)
from spdelab.models import SCALAR_FUNCTIONS, validate_assumptions
from spdelab.solver import EXACT_GAUSSIAN, EXPONENTIAL_EULER

BASE_MODEL = """
model.N = 16
model.covariance = example5
model.drift = zero
model.diffusion = additive
model.r = 0
model.p = 2
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.fixture
def no_ensemble(monkeypatch):
    """Fails the test if any path step runs."""

    def no_run(*args):
        raise AssertionError("the ensemble ran")

    monkeypatch.setattr(cli.solver, "_simulate_block", no_run)


class TestParsing:
    def test_values_and_comments(self):
        cfg = parse_config_text("kind = simulate\n# note\nmodel.N = 8  # trailing\n")
        assert cfg.kind == "simulate"
        assert cfg.get_int("model.N") == 8

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("kind = simulate\nmodel.N 8\n")

    def test_empty_key_reports_line_number(self):
        with pytest.raises(ConfigError, match=r"empty key \(line 2\)"):
            parse_config_text("kind = simulate\n= 3\n")

    def test_every_key_the_library_reads_is_known(self):
        read = set()
        for path in Path(spdelab.__file__).parent.glob("*.py"):
            read |= keys_read(path.read_text())
        assert read and read <= KNOWN_KEYS, sorted(read - KNOWN_KEYS)

    # a key that nothing reads, like the removed lemmas.slack, must not stay known:
    # every key is a string outside the tables that declare keys, an f-string on
    # a drift or diffusion `role` included
    def test_every_known_key_is_a_literal_of_the_library(self):
        literals = set()
        for path in Path(spdelab.__file__).parent.glob("*.py"):
            for stmt in ast.parse(path.read_text()).body:
                if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]).endswith("_KEYS"):
                    continue
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Constant) and isinstance(node.value, str):
                        literals.add(node.value)
                    elif isinstance(node, ast.JoinedStr):
                        literals |= role_strings(node)
        assert KNOWN_KEYS <= literals, sorted(KNOWN_KEYS - literals)

    def test_key_reader_sees_accessors_membership_and_set(self):
        source = (
            'def f(cfg, self, key):\n'
            '    cfg.get_int("a.b", 1); self.get_choice("kind", KINDS); cfg.get_str(key)\n'
            '    if "c.d" not in cfg and "e" in cfg.entries and "=" in key:\n'
            '        cfg.set("f.g", 2)\n'
        )
        assert keys_read(source) == {"a.b", "kind", "c.d", "e", "f.g"}
        assert keys_read(source, ("get_int", "get_str")) == {"a.b", "key"}


class TestBuildModel:
    @staticmethod
    def build(text):
        return build_model(parse_config_text(text))

    def test_constant_covariance(self):
        model = self.build(
            "model.N = 4\nmodel.covariance = constant\nmodel.covariance.value = 2.5\n"
        )
        np.testing.assert_array_equal(model.covariance, np.full(4, 2.5))
        default = self.build("model.N = 3\nmodel.covariance = constant\n")
        np.testing.assert_array_equal(default.covariance, np.ones(3))

    def test_custom_covariance(self):
        model = self.build(
            "model.N = 3\nmodel.covariance = custom\nmodel.covariance.values = 0,2,0.5\n"
        )
        np.testing.assert_array_equal(model.covariance, [0.0, 2.0, 0.5])

    def test_diffusion_multipliers_broadcast_one_value_or_take_n(self):
        one = self.build("model.N = 3\nmodel.diffusion.multipliers = 0.5\n")
        np.testing.assert_array_equal(one.diffusion.multipliers, np.full(3, 0.5))
        each = self.build("model.N = 3\nmodel.diffusion.multipliers = 1,2,3\n")
        np.testing.assert_array_equal(each.diffusion.multipliers, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "line, method",
        [
            ("", EXPONENTIAL_EULER),
            ("solver.method = euler\n", EXPONENTIAL_EULER),
            ("solver.method = exact-gaussian\n", EXACT_GAUSSIAN),
        ],
    )
    def test_solver_method_is_read_into_the_solver_config(self, line, method):
        cfg = parse_config_text(f"solver.T = 0.1\nsolver.seed = 0\n{line}")
        assert build_solver(cfg).method == method

    # the covariance, the multipliers and r all enter this norm, so no one key is
    # at fault; the overflow is rejected by the check, with no numpy warning
    @pytest.mark.filterwarnings("error")
    def test_hilbert_schmidt_overflow_names_no_key(self):
        with pytest.raises(ConfigError, match="^invalid model: weighted Hilbert-Schmidt norm "
                                              "of the diffusion is not finite$"):
            self.build("model.N = 16\nmodel.diffusion.multipliers = 1e200\n")


def keys_read(source: str, accessors: tuple[str, ...] | None = None) -> set[str]:
    """Key literals read through a typed accessor, `in cfg` or `cfg.set`.

    Given `accessors`, only the keys read through one of those methods; a key
    such a call names by an expression is reported as the expression's source.
    """
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if accessors is not None:
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in accessors and node.args):
                arg = node.args[0]
                keys.add(arg.value if isinstance(arg, ast.Constant) else ast.unparse(arg))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and (node.func.attr.startswith("get_") or node.func.attr == "set")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            keys.add(node.args[0].value)
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and ast.unparse(node.comparators[0]) in ("cfg", "cfg.entries")
        ):
            keys.add(node.left.value)
    return keys


# every key read through a number accessor, found by the key reader, so a number
# key added later is covered too; build_model names four of them by a variable,
# listed here by the variable
NAMED_NUMBER_KEYS = {
    ("get_float", "cov_key"): ["model.covariance.value"],
    ("get_floats", "cov_key"): ["model.covariance.values"],
    ("get_floats", "key"): ["model.drift.multipliers", "model.diffusion.multipliers"],
}
NUMBER_READS = sorted({
    (accessor, key)
    for path in Path(spdelab.__file__).parent.glob("*.py")
    for accessor in ("get_float", "get_floats", "get_ints")
    for read in keys_read(path.read_text(), (accessor,))
    for key in NAMED_NUMBER_KEYS.get((accessor, read), [read])
})


# a read through a variable the map does not list shows up as the variable's name
def test_number_reads_are_known_keys():
    keys = {key for _, key in NUMBER_READS}
    assert keys <= KNOWN_KEYS, sorted(keys - KNOWN_KEYS)
    assert {"model.p", "solver.T", "probe.s", "probe.sweep_N", "series.t", "series.r",
            "series.N", "model.covariance.value", "model.drift.multipliers"} <= keys


# each key is parsed under the first command that reads it
@pytest.mark.parametrize("accessor, key", NUMBER_READS)
def test_number_key_rejects_non_finite_and_empty_values(accessor, key):
    kind = next(kind for kind, keys in COMMAND_KEYS.items() if key in keys)
    for value in ("nan", "inf", "-inf", "", "1,,2", "1,"):
        cfg = parse_config_text(f"kind = {kind}\n{key} = {value}\n")
        with pytest.raises(ConfigError) as info:
            getattr(cfg, accessor)(key)
        assert (info.value.key, info.value.line) == (key, 2), value


def role_strings(node: ast.JoinedStr) -> set[str]:
    """The f-string `node` with `role` set to "drift" and to "diffusion"; any
    other placeholder is kept as its source text in braces."""
    def text(part, role):
        if isinstance(part, ast.Constant):
            return part.value
        source = ast.unparse(part.value)
        return role if source == "role" else f"{{{source}}}"
    return {"".join(text(part, role) for part in node.values) for role in ("drift", "diffusion")}


def model_error_fields(source: str) -> set:
    """The field argument of every `ModelError(...)` call in `source`; an
    f-string field is expanded with `role` set to "drift" and to "diffusion",
    and a variable that a `for` over a literal tuple binds to string literals
    is expanded to those literals."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            names = node.target.elts if isinstance(node.target, ast.Tuple) else [node.target]
            items = [item.elts if isinstance(item, ast.Tuple) else [item]
                     for item in node.iter.elts]
            for i, name in enumerate(names):
                values = [item[i] for item in items]
                if isinstance(name, ast.Name) and all(isinstance(v, ast.Constant) for v in values):
                    bound[name.id] = {v.value for v in values}
    fields = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "ModelError"):
            continue
        arg = node.args[1] if len(node.args) > 1 else node.keywords[0].value
        if isinstance(arg, ast.Constant):
            fields.add(arg.value)
        elif isinstance(arg, ast.Name) and arg.id in bound:
            fields |= bound[arg.id]
        elif isinstance(arg, ast.JoinedStr):
            fields |= role_strings(arg)
        else:  # a field the guard cannot read is reported as its source text
            fields.add(ast.unparse(arg))
    return fields


def library_fields(*names):
    """The ModelError fields raised in the named modules of spdelab."""
    fields = set()
    for name in names:
        fields |= model_error_fields((Path(spdelab.__file__).parent / f"{name}.py").read_text())
    return fields


# A ModelSpec or SolverConfig rejection whose field has no key would reach the
# user without a key or line.  Every field of models.py and solver.py, apart
# from None (no one field is at fault) and the covariance, whose key
# build_model names by the covariance kind, is named in the command table; a
# command that builds a model or a solver resolves its fields to the keys
# build_model and build_solver report.
def test_every_model_and_solver_rejection_has_a_config_key(tmp_path, monkeypatch):
    fields = library_fields("models", "solver")
    assert {None, "covariance", "initial", "drift.multipliers", "method"} <= fields
    named = {field for keys in COMMAND_KEYS.values() for fed in keys.values() for field in fed}
    assert fields - {None, "covariance"} <= named
    built = {"model": set(), "solver": set()}
    for part, builder in (("model", build_model), ("solver", build_solver)):
        def record(cfg, part=part, builder=builder):
            built[part].add(cfg.kind)
            return builder(cfg)
        monkeypatch.setattr(cli, f"build_{part}", record)
    for kind, text in TestStartup.CONFIGS.items():
        assert main(["run", str(write_config(tmp_path, text)), "--output-dir",
                     str(tmp_path / kind)]) == 0
    for part, section in (("model", _MODEL_KEYS), ("solver", _SOLVER_KEYS)):
        holders = {kind for kind, keys in COMMAND_KEYS.items() if section.keys() <= keys.keys()}
        assert built[part] == holders, part
        for kind in holders:
            for key, fed in section.items():
                assert all(field_key(COMMAND_KEYS[kind], f) == key for f in fed), (kind, key)


# the same guard for the probes and the CLI's own lemma arguments, whose key
# depends on the command: a truncation list is probe.sweep_N in probe-spatial
# and series.N in example-section5.  Within a command each field resolves to
# the one key that names it, and the table names no field the library never
# raises.
def test_every_probe_rejection_has_a_config_key():
    fields = library_fields("probes", "cli")
    assert {"lags", "s", "s_values", "n_values", "n_modes", "t", "r", "mc_paths"} <= fields
    named = {field for keys in COMMAND_KEYS.values() for fed in keys.values() for field in fed}
    assert fields <= named
    assert library_fields("models", "solver", "probes", "cli") - {None, "covariance"} == named
    for kind, keys in COMMAND_KEYS.items():
        for key, fed in keys.items():
            assert all(field_key(keys, field) == key for field in fed), (kind, key)


# a rule on a value read from a key lives in the library, which raises a
# ModelError that `run` reports against the key: the CLI builds a key-naming
# error nowhere else, and puts no bound on an integer it reads
def test_cli_keeps_no_copy_of_a_library_rule():
    errors_in_run = 0
    for stmt in ast.parse(Path(cli.__file__).read_text()).body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            assert all(kw.arg != "minimum" for kw in node.keywords), ast.unparse(node)
            if isinstance(node.func, ast.Attribute) and node.func.attr == "error":
                assert getattr(stmt, "name", None) == "run", ast.unparse(node)
                errors_in_run += 1
    assert errors_in_run > 0  # the check sees the one place that builds such an error


def test_field_collector_expands_roles():
    source = (
        'def f(role, name):\n'
        '    raise ModelError("a", None)\n'
        '    raise ModelError(f"bad {role}", f"{role}.grid_size")\n'
        '    raise ModelError("b", field="p")\n'
        '    raise ValueError("c", "q")\n'
        '    raise ModelError("d", name)\n'
        '    for size, least in (("e", 1), ("f", 2)):\n'
        '        raise ModelError("g", size)\n'
    )
    assert model_error_fields(source) == {None, "drift.grid_size", "diffusion.grid_size", "p",
                                          "name", "e", "f"}


# Every config the CLI rejects before any path runs, as (config text, message,
# key, line); line is None for a key the file does not set.  Each row goes
# through `main`, and `test_rejected_config` asserts the whole error contract.
SIM = "kind = simulate\nsolver.seed = 0\n"
NOT_FINITE = "expected a finite number, got {!r}"
NOT_A_LIST = "expected a non-empty list of finite numbers, got {!r}"
NOT_INTS = "expected a non-empty list of integers, got {!r}"
# a probe-temporal run of 400 steps on 2000 paths, its probe.lags set on line 9
TEMPORAL = ("kind = probe-temporal\nsolver.seed = 1\nmodel.N = 16\nsolver.T = 0.2\n"
            "solver.steps = 400\nsolver.paths = 2000\nprobe.s = 0\nprobe.anchor = 0.1\n")
# a probe-spatial run on 32 modes, its probe.sweep_N set on line 7
SPATIAL = ("kind = probe-spatial\nsolver.seed = 1\nmodel.N = 32\nsolver.T = 0.01\n"
           "solver.steps = 10\nsolver.paths = 1000\n")
SWEEP_MODELS = {
    "nemytskii": "model.drift = nemytskii\nmodel.drift.function = tanh\nmodel.drift.grid = 128\n"
    "model.diffusion = nemytskii\nmodel.diffusion.function = cos\nmodel.diffusion.grid = 128\n",
    "additive": "model.drift = zero\nmodel.diffusion = additive\n",
}
# SolverConfig decides each of these, and a probe's times are checked against its
# grid: (kind, the faulty line 3, further lines, message, key)
TIME_FAULTS = {
    "solver.steps": ("simulate", "solver.steps = 0", "solver.T = 0.01",
                     "invalid solver section: need at least one step, got 0", "solver.steps"),
    "solver.paths": ("simulate", "solver.paths = 0", "solver.T = 0.01",
                     "invalid solver section: need at least one path, got 0", "solver.paths"),
    "solver.T": ("simulate", "solver.T = -1", "",
                 "invalid solver section: final time must be >= 0, got -1.0", "solver.T"),
    "snapshot-off-grid": ("simulate", "solver.snapshots = 0.003",
                          "solver.T = 0.01\nsolver.steps = 4",
                          "invalid solver section: time 0.003 is not a grid point (h = 0.0025)",
                          "solver.snapshots"),
    "snapshot-past-T": ("simulate", "solver.snapshots = 0.02", "solver.T = 0.01\nsolver.steps = 4",
                        "invalid solver section: time 0.02 lies outside [0, T] = [0, 0.01]",
                        "solver.snapshots"),
    "snapshots-decreasing": ("simulate", "solver.snapshots = 0.005, 0.0025",
                             "solver.T = 0.01\nsolver.steps = 4",
                             "invalid solver section: snapshot times 0.005 and 0.0025 fall on "
                             "grid steps 2 and 1, which must increase (h = 0.0025)",
                             "solver.snapshots"),
    "anchor-off-grid": ("probe-temporal", "probe.anchor = 0.01234",
                        "solver.T = 0.1\nsolver.steps = 200",
                        "time 0.01234 is not a grid point (h = 0.0005)", "probe.anchor"),
    "anchor-past-T": ("probe-temporal", "probe.anchor = 0.2", "solver.T = 0.1\nsolver.steps = 200",
                      "time 0.2 lies outside [0, T] = [0, 0.1]", "probe.anchor"),
    "lag-off-grid": ("probe-temporal", "probe.lags = 0.0003",
                     "solver.T = 0.1\nsolver.steps = 200\nprobe.anchor = 0.01",
                     f"time {0.01 + 0.0003} is not a grid point (h = 0.0005)", "probe.lags"),
    "lag-past-T": ("probe-temporal", "probe.lags = 0.095",
                   "solver.T = 0.1\nsolver.steps = 200\nprobe.anchor = 0.01",
                   f"time {0.01 + 0.095} lies outside [0, T] = [0, 0.1]", "probe.lags"),
}
LEMMA_SIZES = {"lemmas.bound_draws": 5, "lemmas.exactness_draws": 2, "lemmas.paths": 50}
# a config each command accepts, so a line added to it is the only fault
VALID = {"simulate": SIM + "solver.T = 0.01\n", "probe-temporal": TEMPORAL,
         "probe-spatial": SPATIAL + "probe.sweep_N = 4, 8\n",
         "verify-lemmas": "kind = verify-lemmas\nsolver.seed = 0\n",
         "verify-assumptions": "kind = verify-assumptions\nsolver.seed = 0\n"}


def lags_line(multiples, *tail):
    return f"probe.lags = {', '.join(map(repr, [m * 5e-4 for m in multiples] + list(tail)))}\n"


def lag_clash(t1, t2, j1, j2):
    return (f"snapshot times {t1} and {t2} fall on grid steps {j1} and {j2}, "
            "which must increase (h = 0.0005)")


REJECTIONS = [
    # the parser
    pytest.param("kind = simulate\nmodel.N = 8\nmodel.N = 9\n", "duplicate key", "model.N", 3,
                 id="duplicate-key"),
    pytest.param("kind = frobnicate\n", f"value 'frobnicate' not in {KINDS}", "kind", 1,
                 id="unknown-kind"),
    pytest.param("kind = simulate\nsolver.step = 100\n", "unknown key", "solver.step", 2,
                 id="misspelled-solver.step"),
    pytest.param("kind = simulate\nsolver.T = 0.01\nsolver.methd = exact-gaussian\n",
                 "unknown key", "solver.methd", 3, id="misspelled-solver.methd"),
    # a key the file's command never reads, judged once the whole file is read
    pytest.param("kind = example-section5\nseries.N = 10, 100\nmodel.N = 0\nsolver.T = nan\n"
                 "probe.lags = 1\n", "example-section5 does not read this key", "model.N", 3,
                 id="example-section5-model.N"),
    *(pytest.param(VALID[kind] + f"{key} = {value}\n", f"{kind} does not read this key", key,
                   VALID[kind].count("\n") + 1, id=f"{kind}-{key}")
      for kind, key, value in (("verify-lemmas", "series.t", 0.1),
                               ("probe-spatial", "probe.lags", 1),
                               ("probe-temporal", "probe.sweep_N", "4, 8"),
                               ("simulate", "probe.s", 0), ("verify-assumptions", "solver.T", 0.1),
                               ("verify-lemmas", "solver.workers", 1))),
    pytest.param("series.t = 0.1\nkind = verify-lemmas\n", "verify-lemmas does not read this key",
                 "series.t", 1, id="kind-after-the-key"),
    # the series draws nothing, so it reads no seed, and a bad one is not silently recorded
    pytest.param("kind = example-section5\nseries.N = 10, 100\nsolver.seed = abc\n",
                 "example-section5 does not read this key", "solver.seed", 3,
                 id="example-section5-solver.seed"),
    # the number accessors: finite numbers, non-empty lists, whole integers
    pytest.param(SIM + "solver.T = soon\n", NOT_FINITE.format("soon"), "solver.T", 3,
                 id="solver.T-not-a-number"),
    pytest.param(SIM, "missing required key", "solver.T", None, id="solver.T-missing"),
    *(pytest.param(SIM + f"solver.T = {v}\n", NOT_FINITE.format(v), "solver.T", 3,
                   id=f"solver.T-{v}") for v in ("inf", "nan")),
    *(pytest.param(f"kind = example-section5\nseries.N = 10, {v}\n",
                   NOT_INTS.format(f"10, {v}"), "series.N", 2, id=f"series.N-{v}")
      for v in ("inf", "nan")),
    # an integer list is read entry by entry with int(), as get_int reads one value
    pytest.param("kind = example-section5\nseries.N = 1e2, 1e3\n", NOT_INTS.format("1e2, 1e3"),
                 "series.N", 2, id="series.N-exponent"),
    pytest.param(SPATIAL + "probe.sweep_N = 4.0, 8\n", NOT_INTS.format("4.0, 8"),
                 "probe.sweep_N", 7, id="probe.sweep_N-float"),
    *(pytest.param(f"kind = example-section5\n{key} = nan\n", NOT_FINITE.format("nan"), key, 2,
                   id=f"{key}-nan") for key in ("series.t", "series.r")),
    pytest.param("kind = example-section5\nseries.N =\n", NOT_INTS.format(""), "series.N", 2,
                 id="series.N-empty"),
    *(pytest.param(SIM + f"model.N = 4\nmodel.p = {v}\n", NOT_FINITE.format(v), "model.p", 4,
                   id=f"model.p-{v}") for v in ("nan", "inf")),
    pytest.param(SIM + "model.N = 2\nmodel.covariance = constant\nmodel.covariance.value = nan\n",
                 NOT_FINITE.format("nan"), "model.covariance.value", 5,
                 id="model.covariance.value-nan"),
    pytest.param(SIM + "model.N = 2\nmodel.covariance = custom\nmodel.covariance.values = 1,nan\n",
                 NOT_A_LIST.format("1,nan"), "model.covariance.values", 5,
                 id="model.covariance.values-nan"),
    pytest.param(SIM + "model.N = 2\nmodel.drift = linear\nmodel.drift.multipliers = nan\n",
                 NOT_A_LIST.format("nan"), "model.drift.multipliers", 5,
                 id="model.drift.multipliers-nan"),
    pytest.param(SIM + "model.N = 2\nmodel.diffusion.multipliers = inf\n",
                 NOT_A_LIST.format("inf"), "model.diffusion.multipliers", 4,
                 id="model.diffusion.multipliers-inf"),
    pytest.param(SIM + "solver.T = 0.01\nsolver.snapshots =\n", NOT_A_LIST.format(""),
                 "solver.snapshots", 4, id="solver.snapshots-empty"),
    pytest.param(SIM + "solver.T = 0.2\nsolver.steps = 2\nsolver.snapshots = 0.1,,0.2\n",
                 NOT_A_LIST.format("0.1,,0.2"), "solver.snapshots", 5,
                 id="solver.snapshots-empty-entry"),
    pytest.param(SIM + "model.N = 2\nmodel.diffusion.multipliers = 3,\nsolver.T = 0.01\n",
                 NOT_A_LIST.format("3,"), "model.diffusion.multipliers", 4,
                 id="model.diffusion.multipliers-trailing-comma"),
    pytest.param(TEMPORAL.replace("probe.s = 0", "probe.s = nan"), NOT_A_LIST.format("nan"),
                 "probe.s", 7, id="temporal-probe.s-nan"),
    pytest.param(TEMPORAL.replace("probe.s = 0", "probe.s ="), NOT_A_LIST.format(""),
                 "probe.s", 7, id="temporal-probe.s-empty"),
    *(pytest.param(SPATIAL + f"probe.sweep_N = 4, 8\nprobe.s = {v}\n", NOT_FINITE.format(v),
                   "probe.s", 8, id=f"spatial-probe.s-{v}") for v in ("nan", "inf")),
    pytest.param(SPATIAL + "probe.sweep_N =\n", NOT_INTS.format(""), "probe.sweep_N", 7,
                 id="probe.sweep_N-empty"),
    pytest.param(SIM + "solver.T = 0.01\nsolver.workers = two\n",
                 "expected an integer, got 'two'", "solver.workers", 4, id="solver.workers"),
    # build_model's own checks, and ModelSpec's against the key at fault
    pytest.param(SIM + "model.N = 0\n", "model.N must be >= 1, got 0", "model.N", 3,
                 id="model.N"),
    pytest.param(SIM + "model.N = 4\nmodel.covariance = custom\nmodel.covariance.values = 1,2,3\n",
                 "invalid model: covariance has shape (3,), expected (4,)",
                 "model.covariance.values", 5, id="model.covariance.values-length"),
    pytest.param(SIM + "model.N = 2\nmodel.covariance = constant\nmodel.covariance.value = -1\n",
                 "invalid model: covariance variances must be finite and nonnegative",
                 "model.covariance.value", 5, id="model.covariance.value-negative"),
    *(pytest.param(SIM + f"model.N = 4\nmodel.drift = linear\n{key} = 1,2\n",
                   "need 1 or 4 values, got 2", key, 5, id=f"{key}-length")
      for key in ("model.drift.multipliers", "model.diffusion.multipliers")),
    pytest.param(SIM + "model.N = 4\nmodel.initial = 1,2,3,4,5\n",
                 "initial state has 5 coefficients for 4 modes", "model.initial", 4,
                 id="model.initial-length"),
    *(pytest.param(SIM + f"model.N = 4\nmodel.{role} = nemytskii\nmodel.{role}.function = nope\n",
                   f"value 'nope' not in {tuple(SCALAR_FUNCTIONS)}", f"model.{role}.function", 5,
                   id=f"model.{role}.function") for role in ("drift", "diffusion")),
    pytest.param(SIM + "model.N = 16\nmodel.r = 1.5\n",
                 "invalid model: additive models allow r in [0, 1], got 1.5", "model.r", 4,
                 id="model.r"),
    pytest.param(SIM + "model.N = 16\nmodel.p = 1\n",
                 "invalid model: moment order must be >= 2, got 1.0", "model.p", 4, id="model.p"),
    *(pytest.param(SIM + f"model.N = 16\nmodel.{role} = nemytskii\nmodel.{role}.function = "
                   f"{function}\nmodel.{role}.grid = 20\n",
                   "invalid model: Nemytskii grid size 20 must be >= 2 * 16", f"model.{role}.grid",
                   6, id=f"model.{role}.grid") for role, function in (("drift", "tanh"),
                                                                       ("diffusion", "cos"))),
    pytest.param(SIM + "model.N = 16\nmodel.initial = 1e300\n",
                 "invalid model: initial state must have a finite smoothness norm at r + 1",
                 "model.initial", 4, id="model.initial-norm"),
    # the solver section, and the probe times checked against its grid
    pytest.param(SIM + "solver.T = 0.1\nsolver.method = rk4\n",
                 "value 'rk4' not in ('euler', 'exact-gaussian')", "solver.method", 4,
                 id="solver.method"),
    pytest.param(SIM + "solver.T = 1\nsolver.steps = 10\nsolver.snapshots = 0.3, 0.3000000000001\n",
                 "invalid solver section: snapshot times 0.3 and 0.3000000000001 fall on grid "
                 "steps 3 and 3, which must increase (h = 0.1)", "solver.snapshots", 5,
                 id="snapshots-on-one-step"),
    *(pytest.param(f"kind = {kind}\nsolver.seed = 0\n{fault}\n{rest}\nmodel.N = 4\n"
                   + ("probe.s = 0\n" if kind == "probe-temporal" else ""), message, key, 3,
                   id=name)
      for name, (kind, fault, rest, message, key) in TIME_FAULTS.items()),
    # a negative seed, rejected by the library before any path runs or any draw
    *(pytest.param(re.sub(r"solver.seed = \d", "solver.seed = -1", VALID[kind]) + rest,
                   ("" if kind.startswith("verify") else "invalid solver section: ")
                   + "seed must be >= 0, got -1", "solver.seed", 2, id=f"negative-seed-{kind}{tag}")
      for kind, tag, rest in (*((kind, "", "") for kind in VALID), ("verify-assumptions",
                              "-nemytskii", "model.N = 16\n" + SWEEP_MODELS["nemytskii"]))),
    # the exact stepper samples only F = 0 with a diagonal G
    *(pytest.param(SIM + "solver.method = exact-gaussian\nsolver.T = 0.01\nsolver.steps = 4\n"
                   f"model.N = 4\n{lines}", f"exact transition sampling {message}",
                   "solver.method", 3, id=name)
      for name, lines, message in (
          ("nemytskii-drift", "model.drift = nemytskii\nmodel.drift.function = tanh\n",
           "requires zero drift"),
          ("linear-drift", "model.drift = linear\nmodel.drift.multipliers = 0\n",
           "requires zero drift"),
          ("nemytskii-diffusion", "model.diffusion = nemytskii\nmodel.diffusion.function = tanh\n",
           "requires additive diagonal diffusion"))),
    # map_paths refuses it on a probe command too, before the probe's first block
    *(pytest.param(head + "solver.method = exact-gaussian\nmodel.drift = nemytskii\n"
                   "model.drift.function = tanh\n", "exact transition sampling requires zero drift",
                   "solver.method", line, id=f"nemytskii-drift-{kind}")
      for kind, head, line in (("probe-temporal", TEMPORAL, 9),
                               ("probe-spatial", SPATIAL + "probe.sweep_N = 4, 8\n", 8))),
    # h * |f| = 20 would warn of the Euler step, but this run has none: only the refusal shows
    pytest.param("kind = probe-spatial\nsolver.seed = 1\nmodel.N = 8\nsolver.T = 0.1\n"
                 "solver.steps = 10\nsolver.method = exact-gaussian\nmodel.drift = linear\n"
                 "model.drift.multipliers = -2000\nprobe.sweep_N = 4, 8\n",
                 "exact transition sampling requires zero drift", "solver.method", 6,
                 id="stiff-linear-drift-exact-gaussian"),
    # the probes' own checks, each before any path runs
    pytest.param(TEMPORAL + lags_line((1, 2, 3, 5, 8, 13, 22, 36, 60), 0.05, 0.0500000000001),
                 lag_clash(0.1 + 0.05, 0.1 + 0.0500000000001, 300, 300), "probe.lags", 9,
                 id="lags-on-one-step"),
    pytest.param(TEMPORAL + lags_line((1, 2, 3, 5, 8, 13, 22, 36), 0.05, 0.05),
                 lag_clash(0.1 + 0.05, 0.1 + 0.05, 300, 300), "probe.lags", 9,
                 id="lags-repeated"),
    pytest.param(TEMPORAL + lags_line((1, 2, 3, 5, 8, 13, 22, 36), 0.03, 0.02),
                 lag_clash(0.1 + 0.03, 0.1 + 0.02, 260, 240), "probe.lags", 9,
                 id="lags-decreasing"),
    pytest.param(TEMPORAL + lags_line((1, 2, 3, 5, 8)), "need at least 8 lags, got 5",
                 "probe.lags", 9, id="five-lags"),
    pytest.param(TEMPORAL + lags_line((1, 2, 3, 4, 5, 6, 7, 8)),
                 "lags must span at least a factor of 100", "probe.lags", 9, id="one-decade"),
    # the last lag reaches 7 steps past the anchor at step 5, beyond T = 10 steps
    pytest.param("kind = probe-temporal\nsolver.seed = 1\nmodel.N = 16\nsolver.T = 0.01\n"
                 "solver.steps = 10\nprobe.s = 0\n"
                 "probe.lags = 0.001,0.002,0.003,0.004,0.005,0.007\n",
                 f"time {0.005 + 0.007} lies outside [0, T] = [0, 0.01]", "probe.lags", 7,
                 id="lag-past-T-default-anchor"),
    pytest.param("kind = probe-temporal\nsolver.seed = 1\nmodel.N = 16\nsolver.T = 0.01\n"
                 "solver.steps = 150\nprobe.s = 0\n",
                 "only 75 steps follow the anchor; the fit needs lags spanning two decades",
                 "probe.lags", None, id="too-few-steps-for-default-lags"),
    # a moment estimate needs two paths, and a probe refuses one before it runs
    pytest.param(TEMPORAL.replace("solver.paths = 2000", "solver.paths = 1"),
                 "need at least two paths, got 1", "solver.paths", 6, id="temporal-one-path"),
    pytest.param(SPATIAL.replace("solver.paths = 1000", "solver.paths = 1")
                 + "probe.sweep_N = 4, 8\n", "need at least two paths, got 1", "solver.paths", 6,
                 id="spatial-one-path"),
    *(pytest.param(SPATIAL + f"probe.sweep_N = {sweep}\n" + model, message, "probe.sweep_N", 7,
                   id=f"sweep-{name}-{model_name}")
      for name, sweep, message in (
          ("too-many-modes", "8, 16, 64", "cannot truncate a 32-mode model to 64 modes"),
          ("decreasing", "16, 8", "truncation dimensions must be strictly increasing"),
          ("zero", "0, 8", "truncation dimensions must be >= 1, got 0"))
      for model_name, model in SWEEP_MODELS.items()),
    # an s or r for which lam_N^s overflows would turn the output into NaN or inf
    pytest.param(SPATIAL.replace("model.N = 32", "model.N = 64")
                 + "probe.s = 400\nprobe.sweep_N = 16, 32, 64\n",
                 "lam_N^s overflows at N = 64 for s = 400", "probe.s", 7, id="spatial-s-overflow"),
    pytest.param(TEMPORAL.replace("probe.s = 0", "probe.s = 0, 400"),
                 "lam_N^s overflows at N = 16 for s = 400", "probe.s", 7,
                 id="temporal-s-overflow"),
    pytest.param("kind = example-section5\nseries.r = 200\nseries.t = 0.1\n"
                 "series.N = 1000, 10000, 100000\n",
                 "lam_N^r overflows at N = 100000 for r = 200", "series.r", 2,
                 id="series.r-overflow"),
    pytest.param("kind = example-section5\nseries.t = 0\nseries.N = 1000\n",
                 "time must be positive, got 0.0", "series.t", 2, id="series.t"),
    pytest.param("kind = example-section5\nseries.t = 0.1\nseries.N = 1, 1000\n",
                 "need at least two modes, got 1", "series.N", 3, id="series.N-one-mode"),
    pytest.param("kind = example-section5\nseries.t = 0.1\nseries.N = 1000, 100\n",
                 "truncation dimensions must be strictly increasing", "series.N", 3,
                 id="series.N-decreasing"),
    # a lemma check that draws nothing passes vacuously, and one path has no standard
    # error; verify_lemmas names its own parameter
    *(pytest.param("kind = verify-lemmas\nsolver.seed = 0\n"
                   + "".join(f"{k} = {value if k == key else v}\n" for k, v in LEMMA_SIZES.items()),
                   f"{name} must be >= {least}, got {value}", key, 3 + list(LEMMA_SIZES).index(key),
                   id=key)
      for key, name, value, least in (("lemmas.bound_draws", "bound_draws", 0, 1),
                                      ("lemmas.exactness_draws", "exactness_draws", -3, 1),
                                      ("lemmas.paths", "mc_paths", 1, 2))),
]


# warnings are errors here, so a numpy warning on the way to a rejection fails the row
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, message, key, line", REJECTIONS)
def test_rejected_config(tmp_path, capsys, no_ensemble, text, message, key, line):
    config, out = write_config(tmp_path, text), tmp_path / "out"
    assert main(["run", str(config), "--output-dir", str(out)]) == 2
    where = f"key '{key}'" if line is None else f"key '{key}', line {line}"
    assert capsys.readouterr() == ("", f"config error: {message} ({where})\n")
    assert list(out.glob("*")) == []
    try:  # a file the parser rejects leaves no output directory behind
        parse_config_text(text)
    except ConfigError:
        assert not out.exists()


class TestRunSeries:
    def test_divergent_series_table(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = example-section5\n"
            "series.r = 0.25\nseries.t = 0.1\nseries.N = 1000,10000,100000\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "N,partial_sum"
        sums = [float(row.split(",")[1]) for row in lines[2:]]
        assert sums[0] < sums[1] < sums[2]
        assert "non-decaying" in capsys.readouterr().out

    # the verdict compares the first increment with the last: one increment always
    # reads "non-decaying" against itself, and no increment has no verdict at all
    @pytest.mark.parametrize("n_values", ["1000", "1000,10000"])
    def test_verdict_needs_two_increments(self, tmp_path, capsys, n_values):
        config = write_config(
            tmp_path,
            f"kind = example-section5\nseries.r = 0\nseries.N = {n_values}\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[0].startswith("series r=0 t=0.1: partial sums ")
        assert "increments" not in captured.out and "decaying" not in captured.out
        rows = (tmp_path / "out" / "series.csv").read_text().splitlines()[2:]
        assert [int(r.split(",")[0]) for r in rows] == [int(v) for v in n_values.split(",")]

    def test_seed_warning_when_missing(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            BASE_MODEL + "kind = simulate\nsolver.T = 0.01\nsolver.steps = 2\nsolver.paths = 3\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert "defaulting to 0" in capsys.readouterr().err

    # a command that draws from solver.seed without building a solver warns as well
    @pytest.mark.parametrize("text", [
        "kind = verify-lemmas\n" + "".join(f"{k} = {v}\n" for k, v in LEMMA_SIZES.items()),
        "kind = verify-assumptions\nmodel.N = 16\n" + SWEEP_MODELS["nemytskii"],
    ], ids=["verify-lemmas", "verify-assumptions-nemytskii"])
    def test_seed_warning_without_a_solver(self, tmp_path, capsys, text):
        assert main(["run", str(write_config(tmp_path, text)), "--output-dir",
                     str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == "warning: solver.seed not set; defaulting to 0\n"


class TestRunSimulate:
    def test_degenerate_time_writes_initial_snapshot_only(self, tmp_path):
        config = write_config(
            tmp_path,
            BASE_MODEL
            + "kind = simulate\nmodel.initial = 1,2\nsolver.T = 0\nsolver.steps = 1\n"
            + "solver.paths = 5\nsolver.seed = 1\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "snapshots.csv").read_text().splitlines()[2:]
        assert len(rows) == 16  # one row per mode, single snapshot
        assert all(row.split(",")[0] == "0.0" for row in rows)
        assert rows[0].split(",")[2] == "1.0"  # the initial coefficient
        assert all(row.split(",")[3] == "0.0" for row in rows)  # deterministic start

    # F(x) = -2000 x makes the modes with lam_k < 2000 grow like e^{(2000 - lam_k) t},
    # which overflows long before T = 4
    STIFF = (
        "kind = simulate\nmodel.N = 8\nmodel.drift = linear\n"
        "model.drift.multipliers = -2000\nsolver.T = 4\nsolver.steps = 400\n"
        "solver.paths = 4\n"
    )
    NON_FINITE = r"error: non-finite state on path \d+ at step \d+ of 400 \(t = [\d.]+\)"
    STIFF_WARNING = (
        "warning: step h = 0.01 with linear drift multiplier f_1 = -2000 gives "
        "h*max|f_k| = 20 >= 1; the Euler drift term may be unstable"
    )

    # an overflow warning escaping the solver would raise here instead of reaching stderr
    @pytest.mark.filterwarnings("error")
    def test_non_finite_state_stops_the_run(self, tmp_path, capsys):
        config = write_config(tmp_path, self.STIFF + "solver.seed = 1\n")
        code = main(["run", str(config), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == self.STIFF_WARNING
        assert re.fullmatch(self.NON_FINITE, err[1]), err
        assert len(err) == 2
        assert not (tmp_path / "out" / "snapshots.csv").exists()

    def test_warnings_are_printed_when_the_run_fails(self, tmp_path, capsys):
        config = write_config(tmp_path, self.STIFF)
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "warning: solver.seed not set; defaulting to 0"
        assert err[1] == self.STIFF_WARNING
        assert re.fullmatch(self.NON_FINITE, err[2])
        assert len(err) == 3

    LINEAR = (
        "kind = simulate\nmodel.N = 4\nmodel.drift = linear\nsolver.T = 0.01\n"
        "solver.steps = 2\nsolver.paths = 3\nsolver.seed = 1\n"
    )

    # h = 0.005: f_2 = -250 gives h |f_2| = 1.25, so the run warns and still completes
    def test_stiff_linear_drift_warns_without_failing(self, tmp_path, capsys):
        config = write_config(tmp_path, self.LINEAR + "model.drift.multipliers = 1, -250, 30, 2\n")
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == (
            "warning: step h = 0.005 with linear drift multiplier f_2 = -250 gives "
            "h*max|f_k| = 1.25 >= 1; the Euler drift term may be unstable\n"
        )
        assert (tmp_path / "out" / "snapshots.csv").exists()

    def test_moderate_linear_drift_is_silent(self, tmp_path, capsys):
        config = write_config(tmp_path, self.LINEAR + "model.drift.multipliers = 1, -150, 30, 2\n")
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""


class TestRunProbes:
    def test_temporal_probe_emits_tables_and_summary(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            BASE_MODEL
            + "kind = probe-temporal\nsolver.T = 0.004\nsolver.steps = 200\n"
            + "solver.paths = 300\nsolver.seed = 7\n"
            + "probe.s = 0\nprobe.anchor = 0.002\n"
            + "probe.lags = 2e-5,4e-5,6e-5,1e-4,1.6e-4,2.6e-4,4.4e-4,7.2e-4,1.2e-3,2e-3\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "slope≈" in out and "predicted 0.5" in out
        table = (tmp_path / "out" / "temporal_s0.csv").read_text().splitlines()
        assert table[1] == "lag,estimate,stderr"
        assert len(table) == 12
        fits = (tmp_path / "out" / "holder_fits.csv").read_text().splitlines()
        assert fits[1] == "s,slope,stderr,predicted"

    def test_spatial_probe_summary(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = probe-spatial\nmodel.N = 32\nsolver.T = 0.1\nsolver.steps = 20\n"
            "solver.paths = 200\nsolver.seed = 3\nsolver.method = exact-gaussian\n"
            "probe.s = 1\nprobe.sweep_N = 4,8,16,32\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert "gaps decreasing" in capsys.readouterr().out
        rows = (tmp_path / "out" / "spatial_sweep.csv").read_text().splitlines()[2:]
        assert [int(r.split(",")[0]) for r in rows] == [4, 8, 16, 32]

    # the verdict compares consecutive gaps: one gap would read "decreasing" against
    # no other, and no gap has no verdict at all
    @pytest.mark.parametrize("sweep", ["16", "8, 16"])
    def test_single_value_sweep_has_no_gap_line(self, tmp_path, capsys, sweep):
        config = write_config(
            tmp_path,
            "kind = probe-spatial\nmodel.N = 16\nsolver.T = 0.1\nsolver.steps = 10\n"
            f"solver.paths = 50\nsolver.seed = 3\nprobe.sweep_N = {sweep}\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 1 and "gaps" not in captured.out
        rows = (tmp_path / "out" / "spatial_sweep.csv").read_text().splitlines()[2:]
        assert [int(r.split(",")[0]) for r in rows] == [int(v) for v in sweep.split(",")]

    @pytest.mark.parametrize(
        "probe",
        [
            "kind = probe-temporal\nsolver.T = 0.004\nsolver.steps = 200\n"
            "probe.s = 0, 0.5, 1\nprobe.anchor = 0.002\n"
            "probe.lags = 2e-5,4e-5,6e-5,1e-4,1.6e-4,2.6e-4,4.4e-4,7.2e-4,1.2e-3,2e-3\n",
            "kind = probe-spatial\nsolver.T = 0.1\nsolver.steps = 10\n"
            "probe.sweep_N = 2, 4, 8, 16\n",
        ],
        ids=["temporal", "spatial"],
    )
    def test_probe_simulates_the_ensemble_once(self, probe, tmp_path, capsys, map_paths_calls):
        config = write_config(
            tmp_path, BASE_MODEL + probe + "solver.paths = 40\nsolver.seed = 2\nsolver.workers = 2\n"
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert len(map_paths_calls) == 1


class TestRunVerifiers:
    def test_lemma_suite_passes(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = verify-lemmas\nsolver.seed = 0\n"
            "lemmas.bound_draws = 150\nlemmas.exactness_draws = 20\nlemmas.paths = 1500\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    # small enough to be fast; at seed 3 the 200 bound draws include ratios
    # within 10% of the sharp difference bound, and every exactness draw counts
    SMALL_SUITE = {"bound_draws": 200, "exactness_draws": 5, "mc_paths": 200, "seed": 3}

    @staticmethod
    def outcomes(checks):
        return {c.name: c.passed for c in checks}

    def test_small_suite_passes_unpatched(self):
        assert all(self.outcomes(cli.verify_lemmas(**self.SMALL_SUITE)).values())

    # called directly, a size that tests nothing is rejected before any draw
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "size, value, message",
        [("bound_draws", 0, "bound_draws must be >= 1, got 0"),
         ("exactness_draws", 0, "exactness_draws must be >= 1, got 0"),
         ("mc_paths", 1, "mc_paths must be >= 2, got 1")],
    )
    def test_suite_that_tests_nothing_is_rejected(self, size, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cli.verify_lemmas(**{**self.SMALL_SUITE, size: value})

    def test_negative_seed_is_rejected_before_any_draw(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$") as info:
            cli.verify_lemmas(**{**self.SMALL_SUITE, "seed": -1})
        assert info.value.field == "seed"

    def test_inexact_energy_fails_exactness(self, monkeypatch):
        exact = cli.stochastic_convolution_energy
        monkeypatch.setattr(cli, "stochastic_convolution_energy",
                            lambda *args: exact(*args) * (1.0 + 1e-7))
        assert not self.outcomes(cli.verify_lemmas(**self.SMALL_SUITE))["convolution_exactness"]

    def test_undersized_difference_constant_fails_its_bound(self, monkeypatch):
        sharp = cli.smoothing_constant

        def shrunk(kind, exponent):
            return sharp(kind, exponent) * (0.9 if kind == "difference" else 1.0)

        monkeypatch.setattr(cli, "smoothing_constant", shrunk)
        outcomes = self.outcomes(cli.verify_lemmas(**self.SMALL_SUITE))
        assert not outcomes["difference_smoothing"]
        assert outcomes["power_smoothing"] and outcomes["convolution_flow_bound"]

    def test_assumption_report(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = verify-assumptions\nmodel.N = 256\nmodel.r = 0\nsolver.seed = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "drift_lipschitz: PASS" in out
        assert "diffusion_growth: PASS" in out

    def test_assumption_report_on_a_linear_drift(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = verify-assumptions\nmodel.N = 4\nmodel.drift = linear\n"
            "model.drift.multipliers = 1,-3,2,0.5\nsolver.seed = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        # the Lipschitz constant of a diagonal drift is sup |f_k|
        assert "drift_lipschitz: PASS constant=3.0" in capsys.readouterr().out.splitlines()

    # a diagonal diffusion measures its partial sums as a tuple, whose cell
    # must not add commas to the row
    @pytest.mark.parametrize("model", SWEEP_MODELS)
    def test_assumption_rows_have_the_header_width(self, tmp_path, model):
        text = f"kind = verify-assumptions\nmodel.N = 16\nsolver.seed = 0\n{SWEEP_MODELS[model]}"
        assert main(["run", str(write_config(tmp_path, text)), "--output-dir",
                     str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "assumptions.csv").read_text().splitlines()
        header, *rows = csv.reader(lines[1:])
        assert rows and all(len(row) == len(header) for row in rows)
        measured = [dict(item.split("=") for item in row[2].split()) for row in rows]
        read = [[float(v) for v in m["partial_sums"].split(";")]
                for m in measured if "partial_sums" in m]
        checks = validate_assumptions(build_model(parse_config_text(text)), probe_seed=0)
        assert read == [list(c.measured["partial_sums"]) for c in checks
                        if "partial_sums" in c.measured]

    def test_assumption_report_flags_divergent_weighting(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = verify-assumptions\nmodel.N = 256\nmodel.r = 0.5\nsolver.seed = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert "diffusion_growth: FAIL" in capsys.readouterr().out


class TestReproducibility:
    CONFIG = (
        BASE_MODEL
        + "kind = probe-temporal\nsolver.T = 0.004\nsolver.steps = 200\n"
        + "solver.paths = 150\nsolver.seed = 11\n"
        + "probe.s = 0,0.5\nprobe.anchor = 0.002\n"
        + "probe.lags = 2e-5,4e-5,6e-5,1e-4,1.6e-4,2.6e-4,4.4e-4,7.2e-4,1.2e-3,2e-3\n"
    )

    def test_identical_runs_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        for run in ("a", "b"):
            assert main(["run", str(config), "--output-dir", str(tmp_path / run)]) == 0
        for name in ("temporal_s0.csv", "temporal_s1.csv", "holder_fits.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # paths run on one thread: a worker count above 1 is ignored, with one warning
    @pytest.mark.parametrize("workers, err", [
        (1, ""), (2, "warning: solver.workers = 2 is ignored; paths run on one thread\n"),
    ])
    def test_workers_key_warns_above_one_and_changes_nothing(self, tmp_path, capsys, workers, err):
        plain = write_config(tmp_path, self.CONFIG, "plain.cfg")
        keyed = write_config(tmp_path, self.CONFIG + f"solver.workers = {workers}\n", "keyed.cfg")
        assert main(["run", str(plain), "--output-dir", str(tmp_path / "plain")]) == 0
        capsys.readouterr()
        assert main(["run", str(keyed), "--output-dir", str(tmp_path / "keyed")]) == 0
        assert capsys.readouterr().err == err
        for name in ("temporal_s0.csv", "temporal_s1.csv", "holder_fits.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "keyed" / name).read_bytes()

    # --seed sets solver.seed over the file's line, so its rejection names the key alone
    def test_negative_seed_override_names_no_line(self, tmp_path, capsys, no_ensemble):
        path = write_config(tmp_path, VALID["simulate"])
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out"), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == ("config error: invalid solver section: seed must be "
                                           ">= 0, got -1 (key 'solver.seed')\n")

    def test_seed_override_changes_results(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        assert main(["run", str(config), "--output-dir", str(tmp_path / "s11")]) == 0
        assert main(["run", str(config), "--output-dir", str(tmp_path / "s12"), "--seed", "12"]) == 0
        a = (tmp_path / "s11" / "temporal_s0.csv").read_text()
        b = (tmp_path / "s12" / "temporal_s0.csv").read_text()
        assert a != b
        assert "solver.seed=12" in b.splitlines()[0]

    # --seed on every command, as a benchmark passes it, records no seed a command never reads
    def test_seed_override_skips_a_command_without_a_seed(self, tmp_path, capsys):
        config = write_config(tmp_path, "kind = example-section5\nseries.N = 100, 1000\n")
        for out, seed in (("plain", []), ("seeded", ["--seed", "3"])):
            assert main(["run", str(config), "--output-dir", str(tmp_path / out), *seed]) == 0
        seeded = (tmp_path / "seeded" / "series.csv").read_text()
        assert seeded.splitlines()[0] == "# config: kind=example-section5 series.N=100, 1000"
        assert seeded == (tmp_path / "plain" / "series.csv").read_text()
        assert capsys.readouterr().err == ""


class TestCommandLine:
    def test_list_registry(self, capsys):
        assert main(["--list-registry"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "cos: Lipschitz constant 1",
            "identity: Lipschitz constant 1",
            "one: Lipschitz constant 0",
            "sigmoid: Lipschitz constant 0.25",
            "sin: Lipschitz constant 1",
            "tanh: Lipschitz constant 1",
        ]

    # a kind without a runner would pass the parser and fail only at run time
    def test_every_kind_has_a_runner(self):
        assert tuple(cli._RUNNERS) == tuple(COMMAND_KEYS)

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    # the default anchor is grid step steps // 2 = 100, and the lags reach 100 steps past it
    def test_default_lags_fit_an_odd_step_count(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            BASE_MODEL + "kind = probe-temporal\nsolver.T = 0.01\nsolver.steps = 201\n"
            "solver.paths = 4\nsolver.seed = 1\nprobe.s = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "temporal_s0.csv").read_text().splitlines()[2:]
        lags = [float(row.split(",")[0]) for row in rows]
        assert len(lags) == 10
        assert lags[-1] / lags[0] == pytest.approx(100.0)

# Runs every config through `cli.main` in a fresh interpreter and lists the scipy
# modules loaded by then; it then imports scipy itself, as a positive control
# that the listing sees a scipy import.
_STARTUP_SCRIPT = """
import json, sys
from spdelab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, *configs = sys.argv[1:]
codes = [cli.main(["run", c, "--output-dir", out]) for c in configs]
loaded = scipy_modules()
import scipy
print(json.dumps({"codes": codes, "scipy": loaded, "control": scipy_modules()}))
"""


class TestStartup:
    CONFIGS = {
        "simulate": "kind = simulate\nmodel.N = 8\nmodel.drift = nemytskii\n"
        "model.drift.function = tanh\nmodel.drift.grid = 16\n"
        "solver.T = 0.01\nsolver.steps = 2\nsolver.paths = 3\nsolver.seed = 0\n",
        "probe-temporal": BASE_MODEL + "kind = probe-temporal\nsolver.T = 0.004\n"
        "solver.steps = 200\nsolver.paths = 20\nsolver.seed = 0\nprobe.s = 0\n"
        "probe.anchor = 0.002\nprobe.lags = 2e-5,4e-5,1e-4,1.6e-4,2.6e-4,7.2e-4,1.2e-3,2e-3\n",
        "probe-spatial": "kind = probe-spatial\nmodel.N = 16\nsolver.T = 0.1\n"
        "solver.steps = 4\nsolver.paths = 20\nsolver.seed = 0\n"
        "solver.method = exact-gaussian\nprobe.s = 1\nprobe.sweep_N = 4,8,16\n",
        "example-section5": "kind = example-section5\nseries.N = 100,1000\n",
        "verify-assumptions": "kind = verify-assumptions\nmodel.N = 16\n"
        "model.diffusion = nemytskii\nmodel.diffusion.function = cos\n"
        "model.diffusion.grid = 32\nsolver.seed = 0\n",
        "verify-lemmas": "kind = verify-lemmas\nsolver.seed = 0\nlemmas.bound_draws = 5\n"
        "lemmas.exactness_draws = 2\nlemmas.paths = 50\n",
    }

    def test_no_command_imports_scipy(self, tmp_path):
        paths = [str(write_config(tmp_path, text, f"{kind}.cfg"))
                 for kind, text in self.CONFIGS.items()]
        src = str(Path(spdelab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path / "out"), *paths],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["codes"] == [0] * len(paths)
        assert result["scipy"] == []
        assert "scipy" in result["control"]
