"""Self-test of the benchmark, on shortened versions of its workloads.

Checks that each workload emits every metric BENCHMARK.json names, with
its unit, traced and untraced, and passes its output check; and that the
output check fires when an artifact is truncated, so that the run
reports error_rate 1.

Usage (from the root of a source checkout): python3 bench/selftest.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import run
from workloads import REDUCED

# The artifact each workload's check must notice when it is cut short.
TRUNCATE = {
    "steep_front": "points.jsonl",
    "lipschitz_descent": "ratios.csv",
    "frames_8192": "state_0000.csv",
}


def expected_units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def emitted_units(record: dict) -> dict:
    return {name: m["unit"] for name, m in record["result"]["metrics"].items()}


def truncating(check, artifact: str):
    def truncate_then_check(wl, out: Path, observed):
        path = out / artifact
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        return check(wl, out, observed)

    return truncate_then_check


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    cli = run._import_cli()
    failures = []
    for name, wl in REDUCED.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run_workload(cli, wl, seed=1, seconds=0, trace=trace)
            result = record["result"]
            if emitted_units(record) != expected_units(spec, key):
                failures.append(f"{name} trace={int(trace)}: metrics differ "
                                f"from BENCHMARK.json {key}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{name} trace={int(trace)}: "
                                f"{record['problems']}")
        cut = dataclasses.replace(
            wl, check=truncating(wl.check, TRUNCATE[name]))
        record = run.run_workload(cli, cut, seed=1, seconds=0, trace=False)
        if record["error_rate"] != 1.0 or record["result"]["correct"]:
            failures.append(f"{name}: truncated {TRUNCATE[name]} passed "
                            "its output check")
        print(f"{name}: truncated {TRUNCATE[name]} -> {record['problems']}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
