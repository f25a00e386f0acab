"""The scripts under scripts/, run on quick variants of the shipped configs,
and the bench tracer's bindings into novlab."""
import hashlib
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import novlab.cli
from novlab import EvolveAbort, builtin_datum, make_grid

REPO = Path(__file__).resolve().parents[1]


def load_script(name, folder="scripts"):
    spec = importlib.util.spec_from_file_location(
        name, REPO / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_bindings_resolve_and_see_every_metric_call(monkeypatch):
    # bench/tracing.py rebinds module attributes to count and time the
    # calls, and an untraced run observes evolve and tangent_norm_info
    # through them: each binding must resolve, and the metric must call
    # through them.  The one stale binding is known and pinned.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only
    tracing = load_script("tracing", folder="bench")
    grid = make_grid(-12.0, 12.0, 64)
    base = builtin_datum("gaussian_bump", {"a": 0.5, "width": 1.5})
    pert = builtin_datum("gaussian_bump", {"a": 0.502, "width": 1.5})
    with tracing.Tracer() as tracer:
        rows = novlab.cli.lipschitz_experiment(base, pert, grid, 0.02, 0.01,
                                               m_theta=3, record_every=1,
                                               iters=2)
    assert tracer.missing == ["novlab.cli.export_points_jsonl"]
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["metric.lipschitz_experiment"] == 1
    assert calls["evolution.evolve"] == 4
    assert (calls["metric.distance_upper"]
            == calls["metric.straight_line_path"] == len(rows) == 5)
    assert calls["metric.tangent_norm_info"] == 3 * len(rows)


def backward_cfg(tmp_path, shipped):
    # The shipped config with time.t_final = -0.1: the run goes backward.
    text = (REPO / "configs" / shipped).read_text()
    text, count = re.subn(r"(?m)^time\.t_final = .*$", "time.t_final = -0.1",
                          text)
    assert count == 1
    path = tmp_path / shipped
    path.write_text(text)
    return str(path)


def test_steep_front_breaking_runs_backward(tmp_path, capsys):
    main = load_script("steep_front_breaking").main
    out = tmp_path / "out"
    rc = main(["--config", backward_cfg(tmp_path, "steep_front.cfg"),
               "--out", str(out), "--quick"])
    assert rc == 0
    assert (out / "points.jsonl").exists()
    assert (out / "slice_fits.csv").exists()


def test_two_bump_conservation_runs_backward(tmp_path, capsys):
    main = load_script("two_bump_conservation").main
    out = tmp_path / "out"
    rc = main(["--config", backward_cfg(tmp_path, "two_bump.cfg"),
               "--out", str(out), "--quick"])
    assert rc == 0
    for level in (0, 1):
        rows = (out / f"conserved_level{level}.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[0]) == pytest.approx(-0.1)


def test_two_bump_conservation_grid_ladder(tmp_path, capsys):
    # Doubling n at a fixed dt: one log and one drift line per level,
    # then the ratio between the levels.
    main = load_script("two_bump_conservation").main
    out = tmp_path / "out"
    rc = main(["--out", str(out), "--quick", "--ladder", "grid",
               "--n", "65"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["n=65", "n=130"]
    assert lines[2].startswith("drift ratio n=65 / n=130: E_u ")
    for level in (0, 1):
        rows = (out / f"conserved_level{level}.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[0]) == pytest.approx(2.0)


def test_lipschitz_ratios_runs_backward(tmp_path, capsys):
    # Both time directions run, so the sign of t_final does not matter.
    main = load_script("lipschitz_ratios").main
    out = tmp_path / "out"
    rc = main(["--config", backward_cfg(tmp_path, "lipschitz.cfg"),
               "--out", str(out), "--quick"])
    assert rc == 0
    rows = (out / "ratios_eps0.csv").read_text().splitlines()[1:]
    ts = [float(row.split(",")[0]) for row in rows]
    assert min(ts) == pytest.approx(-0.1)
    assert max(ts) == pytest.approx(0.1)


def tight_omega_cfg(tmp_path, shipped):
    # The shipped config with datum.u.a = 1.2 in a q-box so tight that
    # the first step leaves it, as in the CLI abort test.
    text = (REPO / "configs" / shipped).read_text()
    text, count = re.subn(r"(?m)^datum\.u\.a = .*$", "datum.u.a = 1.2", text)
    assert count == 1
    path = tmp_path / shipped
    path.write_text(text + "omega.q_lo = 0.999\nomega.q_hi = 1.001\n"
                    "omega.slack = 1.0\n")
    return str(path)


@pytest.mark.parametrize("script,shipped", [
    ("two_bump_conservation", "two_bump.cfg"),
    ("steep_front_breaking", "steep_front.cfg"),
    ("lipschitz_ratios", "lipschitz.cfg"),
])
def test_scripts_honour_omega_bounds(tmp_path, capsys, script, shipped):
    # The scripts evolve under the config's omega box, as novlab does.
    main = load_script(script).main
    with pytest.raises(EvolveAbort):
        main(["--config", tight_omega_cfg(tmp_path, shipped),
              "--out", str(tmp_path / "out"), "--quick"])


def test_artifact_digest_quick_lists_every_file(tmp_path, capsys):
    main = load_script("artifact_digest").main
    out = tmp_path / "digest"
    assert main([str(out), "--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    files = sorted(p.relative_to(out).as_posix()
                   for p in out.rglob("*") if p.is_file())
    assert [line.split("  ", 1)[1] for line in lines] == files
    runs = {f.split("/")[0] for f in files if "/" in f} - {"synthetic"}
    assert len(runs) == 8 and all(r.endswith("_quick") for r in runs)
    # Each synthetic case and its component swap, points and reports.
    synthetic = {f for f in files if f.startswith("synthetic/")}
    assert synthetic == {f"synthetic/case{k}{swap}_{kind}.jsonl"
                         for k in range(1, 9) for swap in ("", "_swapped")
                         for kind in ("points", "cancellations")}
    assert "lipschitz_descent_metric_quick" in runs
    for ext in ("stdout", "stderr"):
        kept = {f[:-len(ext) - 1] for f in files if f.endswith("." + ext)}
        assert kept == runs, ext
    for line in lines:
        digest, rel = line.split("  ", 1)
        assert digest == hashlib.sha256((out / rel).read_bytes()).hexdigest()


def write_tree(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


def test_artifact_digest_compare_reports_numbers_and_structure(tmp_path,
                                                               capsys):
    main = load_script("artifact_digest").main
    base = {"run/conserved.csv": "t,E\n0.0,2.0\n0.5,-0.0\n",
            "run/points.jsonl": '{"case_label": 1, "t": 1.5}\n',
            "run.stdout": "found 3 level events over 2 records\n"}
    a = write_tree(tmp_path / "a", base)
    moved = dict(base, **{"run/conserved.csv": "t,E\n0.0,2.000000000000001\n"
                                               "0.5,0.0\n"})
    b = write_tree(tmp_path / "b", moved)
    assert main(["--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "4.44e-16  run/conserved.csv" in out
    assert "2 of 3 common files identical" in out
    assert "structural" not in out
    # The field-scaled change names its line, its CSV column and the
    # column's largest |value|.
    assert ("4.44e-16  run/conserved.csv  field-scaled 4.44e-16 "
            "(line 2, E, max |value| 2)") in out
    # Near zero the pointwise change reads 1; against the largest |value|
    # of its column it reads the roundoff it is.
    near = write_tree(tmp_path / "near", dict(base, **{
        "run/conserved.csv": "t,E\n0.0,2.0\n0.5,4.4e-16\n"}))
    zero = write_tree(tmp_path / "zero", dict(base, **{
        "run/conserved.csv": "t,E\n0.0,2.0\n0.5,0.0\n"}))
    assert main(["--compare", str(near), str(zero)]) == 0
    assert ("1  run/conserved.csv  field-scaled 2.2e-16 "
            "(line 3, E, max |value| 2)" in capsys.readouterr().out)
    # A field that only ever holds roundoff reads as one by its largest
    # |value|: a JSON key, and a number of a line with neither keys nor
    # columns by its position.
    floor = write_tree(tmp_path / "floor", dict(base, **{
        "run/points.jsonl": '{"case_label": 1, "measured": 4e-20}\n',
        "run.stdout": "gap 3.0 of 2.5\n"}))
    moved = write_tree(tmp_path / "floor_moved", dict(base, **{
        "run/points.jsonl": '{"case_label": 1, "measured": 5e-20}\n',
        "run.stdout": "gap 3.0 of 2.6\n"}))
    assert main(["--compare", str(floor), str(moved)]) == 0
    out = capsys.readouterr().out
    assert ("0.2  run/points.jsonl  field-scaled 0.2 "
            "(line 1, measured, max |value| 5e-20)") in out
    assert ("0.0385  run.stdout  field-scaled 0.0385 "
            "(line 1, number 2, max |value| 2.6)") in out
    # A case label, an event count, a row count, a null and a file list.
    changes = [("run/points.jsonl", '{"case_label": 2, "t": 1.5}\n'),
               ("run.stdout", "found 4 level events over 2 records\n"),
               ("run/conserved.csv", "t,E\n0.0,2.0\n"),
               ("run/points.jsonl", '{"case_label": 1, "t": null}\n'),
               ("run/extra.csv", "t\n")]
    for k, (rel, text) in enumerate(changes):
        c = write_tree(tmp_path / f"c{k}", dict(base, **{rel: text}))
        assert main(["--compare", str(a), str(c)]) == 1
        out = capsys.readouterr().out
        assert "structural change: " in out and rel in out
