"""Summarise the result records `run.py` wrote into one baseline document.

    python3 bench/summarize.py > bench/baseline.json

For each workload and metric: the median, quartiles and spread (quartile
distance over median) of the run values, the seeds they came from, and the
environment of the runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parents[1] / ".bench_run" / "results"


def summarize(records: list[dict]) -> dict:
    table: dict = {}
    for record in records:
        section = table.setdefault(record["workload"], {}).setdefault(
            "per_layer" if record["trace"] else "end_to_end", {"seeds": [], "metrics": {}}
        )
        section["seeds"].append(record["environment"]["seed"])
        for name, metric in record["metrics"].items():
            row = section["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})
            row["values"].append(metric["value"])
    for sections in table.values():
        for section in sections.values():
            for row in section["metrics"].values():
                values = row.pop("values")
                row["median"] = statistics.median(values)
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    row["quartiles"] = [q1, q3]
                    row["spread"] = (q3 - q1) / row["median"] if row["median"] else None
    environment = {k: v for k, v in records[-1]["environment"].items() if k != "seed"}
    return {"environment": environment,
            "correct": all(r["correct"] for r in records),
            "workloads": table}


def main() -> int:
    records = [json.loads(path.read_text()) for path in sorted(RESULTS.glob("*.json"))]
    if not records:
        print(f"no result records under {RESULTS}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(records), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
