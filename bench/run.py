"""novlab benchmark: real CLI commands on three workloads, checked and timed.

Usage (from the root of a source checkout):

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times the workload's CLI command untraced, repeating it while
one more command, as long as the last, would end within S seconds (at
least once), and reports the end-to-end metrics.
--trace 1 runs the command once untraced and once with every layer
function wrapped, and reports the per-layer metrics.  Everything runs in
this one process, pinned to one CPU, with BLAS and OpenMP pinned to one
thread; only the set-up time is taken in fresh processes.  Untraced
times are quoted at a reference host speed measured by an interleaved
probe (see speed.py); the raw wall times go into the result record.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Configs,
artifacts, the CLI log, spans and a result record with the machine block
go under bench/work/<workload>/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Before numpy is imported, here and in every set-up process.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import SpeedProbe, pin_to_one_cpu  # noqa: E402
from tracing import OBSERVED, Tracer, timing_summary  # noqa: E402
from workloads import WORKLOADS, Observed, drift_max  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"

# Fresh set-up processes per run; setup_s is their median.
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

# CPUs this process may use, before it pins itself to one of them.
NPROC = len(os.sched_getaffinity(0))

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "node_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "drift_max": "ratio",
}

STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
# Layer name -> stats reported from its spans.
LAYER_STATS = {
    "sources.assemble_sources": ("calls", "s", "self_s"),
    "sources.kernel_accumulator": ("s",),
    "sources.exp_convolve": ("calls", "s"),
    "evolution.evolve": ("s",),
    "evolution.rk4_step": ("calls", "self_s"),
    "evolution.rhs": ("calls", "self_s"),
    "evolution.check_omega": ("s",),
    "evolution.conserved": ("s",),
    "metric.lipschitz_experiment": ("s",),
    "metric.distance_upper": ("calls", "s"),
    "metric.straight_line_path": ("s",),
    "metric.tangent_norm_info": ("calls", "s"),
    "cliio.write_state_csv": ("s",),
    "cliio.write_euler_csv": ("s",),
    "cliio.write_conserved_csv": ("s",),
    "reconstruct.euler_fields": ("calls", "s"),
    "breaking.find_crossings": ("calls", "s"),
    "initial.transform_with_map": ("s",),
    "config.load_config": ("s",),
}
# Share of calls that returned instead of raising (AnalysisError is not ok);
# 0 when the layer was not called.
OK_RATIOS = ("breaking.classify", "breaking.fit_exponent",
             "breaking.verify_cancellations")


def wall(run) -> float:
    return run.end - run.start


@dataclass
class Run:
    """One CLI command: its wall-clock span and what its output check found."""

    start: float
    end: float
    problems: list
    observed: Observed
    tracer: Tracer


def _import_cli():
    if not (SRC / "novlab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no novlab sources under {SRC}; run from "
                         "the root of a source checkout")
    sys.path.insert(0, str(SRC))
    from novlab import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported novlab from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def machine() -> dict:
    import numpy
    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(wl, cfg_path: Path, probe: SpeedProbe) -> tuple:
    """Wall and scaled seconds of one fresh set-up process.

    The host speed is probed right before and after the process.
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(cfg_path),
            wl.subcommand]
    probe.sample()
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    t1 = perf_counter()
    probe.sample()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return t1 - t0, probe.scaled(t0, t1)


def execute(cli, wl, cfg_path: Path, out: Path, traced: bool) -> Run:
    """Run the workload's CLI command once in this process and check it."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    observed = Observed()
    tracer = Tracer(observed.hooks(), only=None if traced else OBSERVED)
    argv = [wl.subcommand, "--config", str(cfg_path), "--out", str(out)]
    with open(out.parent / "cli.log", "a", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        print(f"$ novlab {' '.join(argv)}")
        with tracer:
            t0 = perf_counter()
            try:
                code = tracer.call("cli.main", cli.main, argv)
            except SystemExit as err:
                code = err.code
            except Exception:  # a crash is a failed run, not a failed benchmark
                traceback.print_exc()
                code = "an uncaught exception"
            t1 = perf_counter()
    if code != 0:
        problems = [f"novlab {wl.subcommand} ended with {code}"]
    else:
        try:
            problems = wl.check(wl, out, observed)
        except Exception as err:  # a malformed artifact the check did not expect
            problems = [f"output check raised {type(err).__name__}: {err}"]
    return Run(t0, t1, problems, observed, tracer)


def artifact_digest(out: Path) -> tuple[str, int, int]:
    """sha256 over (relative path, bytes) of every artifact; files; bytes."""
    digest = hashlib.sha256()
    files = nbytes = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(data)
        files += 1
        nbytes += len(data)
    return digest.hexdigest(), files, nbytes


def end_to_end(wl, run_times: list, setup_times: list, runs: list) -> dict:
    run_s = statistics.median(run_times)
    return {
        "run_s": run_s,
        "setup_s": statistics.median(setup_times),
        "node_steps_per_s": wl.node_steps() / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "drift_max": max(drift_max(r.observed) for r in runs),
    }


def per_layer(wl, base: Run, traced: Run, layers: dict,
              out: Path) -> tuple[dict, dict]:
    values, units = {}, {}

    def put(name, value, unit):
        values[name] = value
        units[name] = unit

    for layer, stats in LAYER_STATS.items():
        row = layers.get(layer, {})
        for stat in stats:
            put(f"{layer}.{stat}", row.get(stat, 0), STAT_UNITS[stat])
    conv = layers.get("sources.exp_convolve")
    put("sources.exp_convolve.us_per_node",
        1e6 * conv["s"] / (conv["calls"] * wl.keys["grid.n"]) if conv else 0.0,
        "us")
    infos = traced.observed.norm_infos
    put("metric.descent.iterations", sum(i.iterations for i in infos), "count")
    put("metric.descent.improved_ratio",
        sum(i.value < i.eta_zero_value for i in infos) / len(infos)
        if infos else 0.0, "ratio")
    _, files, nbytes = artifact_digest(out)
    put("cliio.bytes_written", nbytes, "bytes")
    put("cliio.files_written", files, "count")
    put("breaking.events", traced.observed.events, "count")
    for layer in OK_RATIOS:
        row = layers.get(layer)
        put(f"{layer}.ok_ratio",
            row["returned"] / row["calls"] if row else 0.0, "ratio")
    put("cli.self_s", layers["cli.main"]["self_s"], "s")
    put("trace.overhead_s", wall(traced) - wall(base), "s")
    return values, units


def run_workload(cli, wl, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result record."""
    wdir = WORK / wl.name
    wdir.mkdir(parents=True, exist_ok=True)
    (wdir / "cli.log").unlink(missing_ok=True)
    cfg_path = wdir / "workload.cfg"
    cfg_path.write_text(wl.config_text(seed), encoding="utf-8")
    out = wdir / "out"
    record = {"workload": wl.name, "seed": seed, "trace": int(trace),
              "machine": machine(), "loadavg_before": os.getloadavg()}
    if trace:
        base = execute(cli, wl, cfg_path, out, traced=False)
        traced = execute(cli, wl, cfg_path, out, traced=True)
        runs = [base, traced]
        layers = traced.tracer.layers()
        metrics, units = per_layer(wl, base, traced, layers, out)
        traced.tracer.write(wdir / "spans.csv")
        record["layers"] = {
            name: {"calls": row["calls"], "s": row["s"],
                   "self_s": row["self_s"],
                   "per_call": timing_summary(row["durations"])}
            for name, row in sorted(layers.items())}
        record["missing_bindings"] = traced.tracer.missing
    else:
        setup_speed = SpeedProbe()
        setups = [measure_setup(wl, cfg_path, setup_speed)
                  for _ in range(SETUP_SAMPLES)]
        runs = []
        with SpeedProbe() as probe:
            started = perf_counter()
            while not runs or (perf_counter() - started + wall(runs[-1])
                               <= seconds):
                runs.append(execute(cli, wl, cfg_path, out, traced=False))
        run_times = [probe.scaled(r.start, r.end) for r in runs]
        setup_times = [scaled for _, scaled in setups]
        metrics = end_to_end(wl, run_times, setup_times, runs)
        units = END_TO_END_UNITS
        record["run_s"] = timing_summary(run_times)
        record["setup_s"] = timing_summary(setup_times)
        record["run_wall_s"] = timing_summary([wall(r) for r in runs])
        record["setup_wall_s"] = timing_summary([w for w, _ in setups])
        record["setup_seconds"] = setups
        record["probe_s"] = timing_summary(
            probe.durations() + setup_speed.durations())
        # Raw material for judging the scaling: every probe and command span.
        record["probe_spans"] = [[s - started, e - started]
                                 for s, e in zip(probe.starts, probe.ends)]
        record["command_spans"] = [[r.start - started, r.end - started]
                                   for r in runs]
    record["loadavg_after"] = os.getloadavg()
    failed = sum(bool(r.problems) for r in runs)
    record["run_seconds"] = [wall(r) for r in runs]
    record["problems"] = [r.problems for r in runs]
    record["error_rate"] = failed / len(runs)
    record["artifact_sha256"] = artifact_digest(out)[0]
    record["result"] = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (wdir / f"result_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = _import_cli()
    pin_to_one_cpu()
    record = run_workload(cli, WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    for key in ("machine", "loadavg_before", "loadavg_after", "run_s",
                "setup_s", "run_wall_s", "setup_wall_s", "probe_s",
                "run_seconds", "error_rate", "artifact_sha256",
                "missing_bindings"):
        if key in record:
            print(f"{key}: {json.dumps(record[key])}")
    for problems in record["problems"]:
        for problem in problems:
            print(f"check failed: {problem}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
