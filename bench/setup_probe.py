"""Everything an spdelab run does before its first path step, in a fresh process.

Imports the CLI, parses each config file given and builds its model and
solver. The benchmark times this process from spawn to exit as `setup_s`:

    python3 bench/setup_probe.py CONFIG [CONFIG ...]
"""

import sys

from spdelab import cli

MODEL_KINDS = ("simulate", "probe-temporal", "probe-spatial", "verify-assumptions")
SOLVER_KINDS = ("simulate", "probe-temporal", "probe-spatial")

for path in sys.argv[1:]:
    cfg = cli.parse_config_file(path)
    if cfg.kind in MODEL_KINDS:
        cli.build_model(cfg)
    if cfg.kind in SOLVER_KINDS:
        cli.build_solver(cfg)
