#!/usr/bin/env python3
"""sha256 digest of every artifact of the shipped CLI runs.

Runs `novlab evolve` and `novlab singular` on the two_bump, peakon and
steep_front configs and `novlab metric` on the lipschitz config and on
lipschitz_descent (the lipschitz config with metric.search =
coarse_descent, written to a temporary file), each full and `--quick`
(only the 8 quick runs with --quick), every run into its own directory
under OUT, and keeps each run's stdout and stderr next to it as
OUT/<run>.stdout and OUT/<run>.stderr.  It also classifies and checks
the level events of the 8 synthetic breaking cases and of their
component swaps, and writes them through the JSONL writer to
OUT/synthetic/case<k>[_swapped]_{points,cancellations}.jsonl, so every
case label reaches the writer.  Prints `sha256  relative/path` for
every file, sorted, so two trees can be compared with diff:

    PYTHONPATH=src python3 scripts/artifact_digest.py OUT_A > a.txt
    PYTHONPATH=/path/to/other/src python3 scripts/artifact_digest.py OUT_B > b.txt
    diff a.txt b.txt

novlab is imported from the path Python finds first, so PYTHONPATH picks
the tree under test.

`--compare OUT_A OUT_B` runs nothing: it compares two such directories
and prints, for each artifact that differs, the largest relative change
of its numbers, and the largest change of a field over the largest
|value| of that field in either file.  A field is one position in one
line skeleton (the line with its numbers taken out), such as a CSV
column or a JSONL key, so a value that moves from 4e-16 to 0.0 reads 1
pointwise but its roundoff against the field.  Next to the
field-scaled change stand its line, its field (JSON key, CSV column,
or else the number's position in the line) and that field's largest
|value|, so a field that only ever holds roundoff reads as one.
Integers are counts, labels and indices (row, record and event counts,
case labels, frame numbers), so a changed integer is a structural
change, and so are a changed file list, line count or any text between
the numbers.  Each structural change is printed and makes the exit
status 1.  A reader that closes stdout early (`| head -1`) ends the
script quietly, with status 141, as SIGPIPE would.
"""
import argparse
import contextlib
import hashlib
import io
import os
import re
import signal
import sys
import tempfile
from pathlib import Path

from novlab import (classify, cliio, find_crossings, make_grid,
                    synthetic_case_state, verify_cancellations)
from novlab.cli import main as novlab_main

REPO = Path(__file__).resolve().parents[1]

RUNS = [(cfg, cmd) for cfg in ("two_bump", "peakon", "steep_front")
        for cmd in ("evolve", "singular")] + [("lipschitz", "metric"),
                                              ("lipschitz_descent", "metric")]


def descent_config(tmp: Path) -> Path:
    """configs/lipschitz.cfg with metric.search = coarse_descent, under tmp."""
    text, count = re.subn(r"(?m)^metric\.search = .*$",
                          "metric.search = coarse_descent",
                          (REPO / "configs" / "lipschitz.cfg").read_text())
    if count != 1:
        raise SystemExit(f"lipschitz.cfg sets metric.search {count} times")
    path = tmp / "lipschitz_descent.cfg"
    path.write_text(text)
    return path


def run_all(out: Path, quick_only: bool) -> list[str]:
    """Runs the CLI into out; returns the names of runs that exited non-zero."""
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {cfg: REPO / "configs" / f"{cfg}.cfg" for cfg, _ in RUNS}
        paths["lipschitz_descent"] = descent_config(Path(tmp))
        for quick in (True,) if quick_only else (False, True):
            for cfg, cmd in RUNS:
                name = f"{cfg}_{cmd}" + ("_quick" if quick else "")
                argv = [cmd, "--config", str(paths[cfg]), "--out", name]
                rc = run_one(out, name, argv + (["--quick"] if quick else []))
                if rc != 0:
                    failed.append(f"{name} (exit {rc})")
    return failed


def write_synthetic(out: Path) -> None:
    """Points and cancellation reports of the synthetic cases and their
    component swaps, as JSONL under out/synthetic."""
    grid = make_grid(-10.0, 10.0, 1601)
    (out / "synthetic").mkdir()
    for case in range(1, 9):
        state = synthetic_case_state(case, grid)
        swapped = state.with_fields(U=state.V, V=state.U, W=state.Z,
                                    Z=state.W)
        for name, st in ((f"case{case}", state),
                         (f"case{case}_swapped", swapped)):
            points = [classify(p, st) for p in find_crossings(st)]
            reports = [verify_cancellations(p, st) for p in points]
            path = out / "synthetic" / name
            cliio.write_jsonl(points, f"{path}_points.jsonl")
            cliio.write_jsonl(reports, f"{path}_cancellations.jsonl")


def run_one(out: Path, name: str, argv: list[str]) -> int:
    """Runs one CLI command in out, keeps its stdout and stderr; returns
    the exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    # Relative --out paths keep OUT itself out of the printed lines.
    cwd = os.getcwd()
    os.chdir(out)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = novlab_main(argv)
    finally:
        os.chdir(cwd)
    (out / f"{name}.stdout").write_text(stdout.getvalue())
    (out / f"{name}.stderr").write_text(stderr.getvalue())
    return rc


def digest_lines(out: Path) -> list[str]:
    files = sorted(p.relative_to(out).as_posix()
                   for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((out / f).read_bytes()).hexdigest()}  {f}"
            for f in files]


# A float has a point or an exponent; a bare digit string is an integer.
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def field_name(line: str, start: int, header: list[str] | None) -> str:
    """The JSON key or CSV column of the number at line[start:], else its
    position among the line's numbers."""
    key = re.findall(r'"(\w+)":', line[:start])
    if key:
        return key[-1]
    column = line.count(",", 0, start)
    if header and column < len(header):
        return header[column]
    return f"number {len(NUMBER.findall(line[:start])) + 1}"


def file_change(text_a: str, text_b: str):
    """(largest relative change of the numbers, largest field-scaled
    change, where that change is, first structural change or None)
    between two versions of one text artifact.  Where is None if no
    number changed, else (line, field name, largest |value| of that
    field)."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return 0.0, 0.0, None, f"{len(lines_a)} lines -> {len(lines_b)}"
    worst, problem = 0.0, None
    # A CSV file names its columns in its first line.
    header = (lines_a[0].split(",") if lines_a and "," in lines_a[0]
              and not NUMBER.search(lines_a[0]) else None)
    # (skeleton, position) -> [largest change, largest |value|, its line,
    # field name]
    fields = {}
    for row, (a, b) in enumerate(zip(lines_a, lines_b), 1):
        skeleton = NUMBER.sub("#", a)
        if skeleton != NUMBER.sub("#", b):
            problem = f"line {row}: text between the numbers differs"
            break
        for pos, (x, y) in enumerate(zip(NUMBER.finditer(a),
                                         NUMBER.findall(b))):
            start, x = x.start(), x.group()
            if x != y and not any(c in x + y for c in ".eE"):
                problem = f"line {row}: integer {x} -> {y}"
                break
            fx, fy = float(x), float(y)
            field = fields.setdefault((skeleton, pos), [0.0, 0.0, 0, None])
            field[1] = max(field[1], abs(fx), abs(fy))
            if fx != fy:
                worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
                if abs(fx - fy) > field[0]:
                    field[0], field[2] = abs(fx - fy), row
                    field[3] = field[3] or field_name(a, start, header)
        if problem:
            break
    changed = [f for f in fields.values() if f[0]]
    if not changed:
        return worst, 0.0, None, problem
    change, top, row, name = max(changed, key=lambda f: f[0] / f[1])
    return worst, change / top, (row, name, top), problem


def compare(out_a: Path, out_b: Path) -> int:
    """Prints the change of every differing artifact; 1 on a structural one."""
    files = [{p.relative_to(out).as_posix() for p in out.rglob("*")
              if p.is_file()} for out in (out_a, out_b)]
    structural = [f"only in {out}: {f}" for out, only in
                  ((out_a, files[0] - files[1]), (out_b, files[1] - files[0]))
                  for f in sorted(only)]
    same = 0
    for f in sorted(files[0] & files[1]):
        a, b = ((out / f).read_text() for out in (out_a, out_b))
        if a == b:
            same += 1
            continue
        worst, scaled, where, problem = file_change(a, b)
        source = (f" (line {where[0]}, {where[1]}, max |value| "
                  f"{where[2]:.3g})" if where else "")
        print(f"{worst:.3g}  {f}  field-scaled {scaled:.3g}{source}")
        if problem:
            structural.append(f"{f}: {problem}")
    print(f"{same} of {len(files[0] & files[1])} common files identical")
    for line in structural:
        print(f"structural change: {line}")
    return 1 if structural else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", nargs="?", help="directory for the run outputs")
    ap.add_argument("--quick", action="store_true",
                    help="only the 8 --quick runs")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OUT_A", "OUT_B"),
                    help="compare two output directories instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        if args.out or args.quick:
            ap.error("--compare takes no OUT and no --quick")
        return compare(*args.compare)
    if args.out is None:
        ap.error("OUT is required")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        ap.error(f"{out} is not empty")
    failed = run_all(out, args.quick)
    write_synthetic(out)
    print("\n".join(digest_lines(out)))
    if failed:
        print("runs that failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`): stop quietly, by the recipe
        # of the Python signal docs, with the status a shell gives a
        # process that SIGPIPE ended, so that 1 keeps its meaning.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 128 + signal.SIGPIPE
    sys.exit(status)
