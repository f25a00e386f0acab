"""The three benchmark workloads: config text, CLI command and output checks.

Each workload is a full scenario written out by the benchmark itself, so
editing a shipped config never changes what is measured.  The seed picks
a translation of the datum by less than one grid cell (the same for both
components and for the perturbation), so every seed runs the same
physics on a different node alignment.

Checks are physical, not byte digests: a deliberate change of the
numbers (say a more accurate source quadrature) still passes, while a
missing, truncated or wrong artifact fails.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

SCHEMA = "schema = novlab-config/1"


@dataclass
class Observed:
    """What the benchmark saw pass through the observed layer boundaries."""

    conserved_logs: list = field(default_factory=list)
    norm_infos: list = field(default_factory=list)
    events: int = 0

    def hooks(self) -> dict:
        """Layer name -> callback on the value the layer returned."""
        def crossings(points):
            self.events += len(points)

        return {
            "evolution.evolve":
                lambda traj: self.conserved_logs.append(traj.conserved_log),
            "metric.tangent_norm_info": self.norm_infos.append,
            "breaking.find_crossings": crossings,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    keys: dict
    # Config keys holding datum centres; the seed translation shifts each.
    centres: tuple
    # Independent trajectories the command evolves (node_steps_per_s).
    trajectories: int
    check: Callable[["Workload", Path, Observed], list]

    def steps(self) -> int:
        return round(abs(self.keys["time.t_final"]) / self.keys["time.dt"])

    def records(self) -> int:
        steps, every = self.steps(), self.keys["time.record_every"]
        return steps // every + 1 + (1 if steps % every else 0)

    def dx(self) -> float:
        k = self.keys
        return (k["grid.xi_max"] - k["grid.xi_min"]) / (k["grid.n"] - 1)

    def node_steps(self) -> int:
        return self.keys["grid.n"] * self.steps() * self.trajectories

    def config_text(self, seed: int) -> str:
        shift = random.Random(seed).random() * self.dx()
        keys = dict(self.keys)
        for key in self.centres:
            keys[key] = keys[key] + shift
        lines = [SCHEMA, f"# benchmark workload {self.name}, seed {seed}"]
        lines += [f"{k} = {_fmt(v)}" for k, v in keys.items()]
        return "\n".join(lines) + "\n"

    def reduced(self, **keys) -> "Workload":
        return replace(self, keys={**self.keys, **keys})


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def drift_max(observed: Observed) -> float:
    """Largest relative drift of (E_u, E_v, G, H) over records and runs."""
    worst = 0.0
    for log in observed.conserved_logs:
        first = log[0]
        for name in ("E_u", "E_v", "G", "H"):
            ref = getattr(first, name)
            for rec in log[1:]:
                worst = max(worst, abs(getattr(rec, name) - ref) / abs(ref))
    return worst


def _read_csv(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(rows: list, columns: tuple) -> bool:
    return all(math.isfinite(float(r[c])) for r in rows for c in columns)


def _check_common(wl: Workload, observed: Observed) -> list:
    problems = []
    if len(observed.conserved_logs) != wl.trajectories:
        problems.append(f"saw {len(observed.conserved_logs)} trajectories, "
                        f"expected {wl.trajectories}")
    for log in observed.conserved_logs:
        if len(log) != wl.records():
            problems.append(f"trajectory has {len(log)} records, "
                            f"expected {wl.records()}")
    if not math.isfinite(drift_max(observed)):
        problems.append("conserved drift is not finite")
    return problems


# First level event of the steep-front scenario; records are 0.01 apart.
EVENT_T = 1.54
EVENT_TOL = 0.02


def check_steep_front(wl: Workload, out: Path, observed: Observed) -> list:
    problems = _check_common(wl, observed)
    try:
        with open(out / "points.jsonl", encoding="utf-8") as fh:
            points = [json.loads(line) for line in fh]
        with open(out / "cancellations.jsonl", encoding="utf-8") as fh:
            reports = [json.loads(line) for line in fh]
    except (OSError, ValueError) as err:
        return problems + [f"unreadable artifact: {err}"]
    if not points:
        return problems + ["no level events found"]
    first = min(p["t"] for p in points)
    if abs(first - EVENT_T) > EVENT_TOL:
        problems.append(f"first level event at t={first!r}, expected "
                        f"{EVENT_T} +- {EVENT_TOL}")
    if any(p.get("case_label") is None for p in points):
        problems.append("a level event has a null case label")
    if len(reports) > len(points):
        problems.append(f"{len(reports)} cancellation reports for "
                        f"{len(points)} events")
    return problems


def check_lipschitz(wl: Workload, out: Path, observed: Observed) -> list:
    problems = _check_common(wl, observed)
    try:
        rows = _read_csv(out / "ratios.csv")
        finite = _finite(rows, ("t", "d_t_upper", "ratio"))
    except (OSError, KeyError, ValueError, TypeError) as err:
        return problems + [f"unreadable ratios.csv: {err}"]
    expected = 2 * (wl.records() - 1) + 1
    if len(rows) != expected:
        problems.append(f"ratios.csv has {len(rows)} rows, expected {expected}")
    if not finite:
        problems.append("ratios.csv has a non-finite value")
    at_zero = [r for r in rows if float(r["t"]) == 0.0]
    if len(at_zero) != 1 or float(at_zero[0]["ratio"]) != 1.0:
        problems.append("ratio at t=0 is not exactly 1")
    if any(r["search_mode"] != "coarse_descent" for r in rows):
        problems.append("a ratio row was not computed by coarse descent")
    if not observed.norm_infos:
        problems.append("no tangent norms were observed")
    if any(not info.value <= info.eta_zero_value
           for info in observed.norm_infos):
        problems.append("a descent value exceeds its eta = 0 value")
    return problems


def check_frames(wl: Workload, out: Path, observed: Observed) -> list:
    problems = _check_common(wl, observed)
    n, frames = wl.keys["grid.n"], wl.records()
    # The integrated map and its prefix-integral formula agree to O(dx^2);
    # the gate uses the same 5 dx^2 bound along evolved trajectories.
    y_bound = 5.0 * wl.dx() ** 2
    try:
        conserved = _read_csv(out / "conserved.csv")
        if len(conserved) != frames:
            problems.append(f"conserved.csv has {len(conserved)} rows, "
                            f"expected {frames}")
        if not _finite(conserved, ("E_u", "E_v", "G", "H", "y_consistency")):
            problems.append("conserved.csv has a non-finite value")
        gap = max(float(r["y_consistency"]) for r in conserved)
        if not gap <= y_bound:
            problems.append(f"y_consistency {gap!r} exceeds {y_bound!r}")
        for i in range(frames):
            for stem in ("state", "euler"):
                path = out / f"{stem}_{i:04d}.csv"
                with open(path, encoding="utf-8") as fh:
                    lines = sum(1 for _ in fh)
                if lines != n + 1:
                    problems.append(f"{path.name} has {lines - 1} rows, "
                                    f"expected {n}")
    except (OSError, KeyError, ValueError, TypeError) as err:
        problems.append(f"unreadable artifact: {err}")
    return problems


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="steep_front",
            subcommand="singular",
            keys={
                "grid.xi_min": -20.0, "grid.xi_max": 20.0, "grid.n": 2048,
                "datum.u.family": "gaussian_bump", "datum.u.a": 2.0,
                "datum.u.center": 0.0, "datum.u.width": 1.0,
                "datum.v.mode": "family", "datum.v.family": "gaussian_bump",
                "datum.v.a": 0.7, "datum.v.center": 0.0, "datum.v.width": 2.0,
                "time.t_final": 1.66, "time.dt": 0.0005,
                "time.record_every": 20,
                "singular.tol_pi": 0.001, "singular.tol_zero_rel": 0.001,
                "singular.side_window": 0.05, "singular.min_gap": 0.0005,
                "singular.fit": "true", "singular.cancellations": "true",
            },
            centres=("datum.u.center", "datum.v.center"),
            trajectories=1,
            check=check_steep_front,
        ),
        Workload(
            name="lipschitz_descent",
            subcommand="metric",
            keys={
                "grid.xi_min": -16.0, "grid.xi_max": 16.0, "grid.n": 512,
                "datum.u.family": "gaussian_bump", "datum.u.a": 0.5,
                "datum.u.center": 0.0, "datum.u.width": 1.5,
                "time.t_final": 1.0, "time.dt": 0.002,
                "time.record_every": 100,
                "metric.alpha": 0.5, "metric.m_theta": 9,
                "metric.search": "coarse_descent",
                "metric.perturb.family": "gaussian_bump",
                "metric.perturb.eps": 0.001, "metric.perturb.component": "u",
                "metric.perturb.a": 1.0, "metric.perturb.center": 0.0,
                "metric.perturb.width": 1.5,
            },
            centres=("datum.u.center", "metric.perturb.center"),
            trajectories=4,
            check=check_lipschitz,
        ),
        Workload(
            name="frames_8192",
            subcommand="evolve",
            keys={
                "grid.xi_min": -20.0, "grid.xi_max": 20.0, "grid.n": 8192,
                "datum.u.family": "gaussian_bump", "datum.u.a": 0.25,
                "datum.u.center": -1.0, "datum.u.width": 1.4,
                "datum.v.mode": "family", "datum.v.family": "gaussian_bump",
                "datum.v.a": 0.2, "datum.v.center": 1.0, "datum.v.width": 1.6,
                "time.t_final": 0.2, "time.dt": 0.001, "time.record_every": 5,
            },
            centres=("datum.u.center", "datum.v.center"),
            trajectories=1,
            check=check_frames,
        ),
    )
}

# Shorter variants for the benchmark's self-test: same commands and checks.
REDUCED = {
    "steep_front": WORKLOADS["steep_front"].reduced(
        **{"grid.n": 512, "time.dt": 0.001, "time.record_every": 10}),
    "lipschitz_descent": WORKLOADS["lipschitz_descent"].reduced(
        **{"time.t_final": 0.2, "time.record_every": 20, "metric.iters": 20}),
    "frames_8192": WORKLOADS["frames_8192"].reduced(
        **{"grid.n": 1024, "time.t_final": 0.02, "time.record_every": 5}),
}
