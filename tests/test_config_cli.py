"""Config grammar, artifact writers, and the CLI front end."""
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import novlab.cli
import novlab.validation
from novlab import (AnalysisError, ConfigError, load_config, parse_config,
                    quick_override)
from novlab.cli import main
from novlab.cliio import datum_from_config, perturbed_datum
from novlab.config import (_BOOL_KEYS, _FLOAT_KEYS, _INT_KEYS, _STR_KEYS,
                           ScenarioConfig, validate_config)
from novlab.errors import ContractError
from novlab.grid import MAX_NODES

from conftest import traced_peak

REPO = Path(__file__).resolve().parents[1]

MINIMAL = """\
schema = novlab-config/1
grid.xi_min = -16
grid.xi_max = 16
grid.n = 257
datum.u.family = gaussian_bump
datum.u.a = 0.5
datum.u.width = 1.5
time.t_final = 0.1
time.dt = 0.01
time.record_every = 5
"""


def minimal_with(*lines: str) -> str:
    """MINIMAL with each `key = value` line set: a key MINIMAL has keeps
    its line with the new value, a new key is appended."""
    keys = dict(line.split(" = ", 1)
                for line in MINIMAL.splitlines() + list(lines))
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.n == 257
    assert cfg.datum_u_params == {"a": 0.5, "width": 1.5}
    assert cfg.datum_v_mode == "same"
    assert cfg.t_final == pytest.approx(0.1)


def test_parse_comments_and_blank_lines():
    cfg = parse_config(MINIMAL + "\n# trailing comment\n\nseed = 7  # inline\n")
    assert cfg.seed == 7


@pytest.mark.parametrize("mutation,fragment", [
    ("", "schema"),                                   # missing schema line
    ("schema = wrong/9\n", "schema"),                 # wrong tag
    (MINIMAL + "schema = novlab-config/1\n", "duplicate"),
    (MINIMAL + "no_such = 1\n", "unknown key"),
    (minimal_with("grid.n = 2.5"), "integer"),
    (minimal_with("time.dt = abc"), "number"),
    (MINIMAL + "singular.fit = yes\n", "true or false"),
    (minimal_with("time.t_final = nan"), "finite"),
    (minimal_with("time.dt = nan"), "finite"),
    (minimal_with("time.dt = inf"), "finite"),
    (minimal_with("time.record_every = nan"), "finite"),
    (MINIMAL + "seed = nan\n", "finite"),
    (minimal_with("grid.n = inf"), "finite"),
])
def test_parse_rejects_malformed(mutation, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(mutation)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("extra,fragment", [
    ("time.dt = 0.03\n", "integer multiple"),
    ("metric.alpha = 1.0\n", "alpha"),
    ("datum.v.mode = family\n", "datum.v.family"),
    ("metric.search = newton\n", "search"),
    ("validate.inject = everything\n", "inject"),  # a removed key
    ("grid.n = 2\n", "at least 3"),
    # Past the cap numpy could not even allocate the nodes.
    ("grid.n = 1e20\n", f"need at most {MAX_NODES} nodes"),
    (f"grid.n = {MAX_NODES + 1}\n", f"need at most {MAX_NODES} nodes"),
    ("omega.slack = 0\n", "omega.slack"),
    ("omega.q_lo = 2\nomega.q_hi = 2\n", "omega.q_lo"),
    ("metric.iters = -3\n", "metric.iters"),
    # More coarse cells than grid nodes would leave a cell empty.
    ("metric.eta_nodes = 258\n", "metric.eta_nodes must be <= grid.n"),
    ("seed = -200000\n", "seed"),
    # What parses must build: the grid and every named datum.
    ("grid.xi_min = -1e308\ngrid.xi_max = 1e308\n", "grid spacing"),
    ("grid.xi_min = -1e200\ngrid.xi_max = 1e200\n", "grid spacing"),
    ("singular.tol_pi = -1\n", "singular.tol_pi must be >= 0"),
    ("singular.tol_zero_rel = -1e-3\n", "singular.tol_zero_rel must be >= 0"),
    ("singular.side_window = -0.4\n", "singular.side_window must be >= 0"),
    ("singular.min_gap = -0.02\n", "singular.min_gap must be >= 0"),
    ("singular.side_window = 0.02\n", "side_window must exceed"),
    ("datum.u.family = nope\n", "unknown datum family 'nope'"),
    # Mirroring is datum.v.mode = mirrored, not a datum family.
    ("datum.u.family = mirrored_of\n", "unknown datum family 'mirrored_of'"),
    ("datum.v.mode = family\ndatum.v.family = sech_bump\n"
     "datum.v.width = 0\n", "width must be > 0"),
    ("metric.perturb.family = gaussian_bump\nmetric.perturb.bogus = 1\n",
     "unknown parameters ['bogus']"),
    # Keys of a profile that is never built.
    ("datum.v.bogus = 0\n", "datum.v.bogus is not read with datum.v.mode = same"),
    ("datum.v.mode = mirrored\ndatum.v.a = 0.3\n",
     "datum.v.a is not read with datum.v.mode = mirrored"),
    ("datum.v.family = sech_bump\n", "datum.v.family is not read"),
    ("metric.perturb.width = 0\n",
     "metric.perturb.width is not read without metric.perturb.family"),
    ("metric.perturb.eps = 0.001\n", "metric.perturb.eps is not read"),
])
def test_validation_rules(tmp_path, capsys, extra, fragment):
    text = minimal_with(*extra.splitlines())
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert fragment in str(exc.value)
    # Each subcommand stops on it before it writes anything: exit 2 and
    # the message.
    for command in ("evolve", "singular", "metric", "validate"):
        assert main([command, "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"config error: {exc.value}\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines,iters", [
    ([], 0), (["metric.iters = 7"], 0),
    (["metric.search = eta_zero", "metric.iters = 7"], 0),
    (["metric.search = coarse_descent"], 200),
    (["metric.search = coarse_descent", "metric.iters = 7"], 7),
    (["metric.search = coarse_descent", "metric.iters = 0"], 0)])
def test_search_mode_maps_to_the_pass_cap(lines, iters):
    # eta_zero, the default, ignores metric.iters; coarse_descent reads
    # it, 200 when absent.
    assert parse_config(minimal_with(*lines)).descent_iters == iters


@pytest.mark.parametrize("extra,message", [
    ("grid.n = 64", "line 11: duplicate key 'grid.n', first set on line 4"),
    ("datum.u.a = 0.5", "line 11: duplicate key 'datum.u.a', first set on "
     "line 6"),
    ("schema = novlab-config/1", "line 11: duplicate key 'schema', first "
     "set on line 1"),
    ("# a comment\n\n  datum.u.width=2  # spaced", "line 13: duplicate key "
     "'datum.u.width', first set on line 7"),
])
def test_parse_rejects_a_repeated_key(extra, message):
    # A repeated key is an error even when both values are valid: the
    # file would otherwise read as its last value.
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL.replace("grid.n = 257", "grid.n = 512")
                     + extra + "\n")
    assert str(exc.value) == message


FIXED_KEYS = sorted({**_FLOAT_KEYS, **_INT_KEYS, **_BOOL_KEYS, **_STR_KEYS})
# Family parameters, real and bogus, of each profile group.
PROFILE_KEYS = [f"{group}.{param}"
                for group in ("datum.u", "datum.v", "metric.perturb")
                for param in ("a", "center", "width", "bogus")]
VALUES = st.one_of(
    st.floats().map(repr),  # nan, inf and subnormals included
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["nan", "-inf", "1e308", "-1e308", "1e-320", "0",
                     "-0", "true", "false", "abc", "", "1.5", "family",
                     "mirrored", "gaussian_bump", "sech_bump"]),
    st.text(max_size=12),
)


def unread_keys(cfg, keys) -> list:
    """The given v-profile and perturbation keys no built datum reads."""
    return [k for k in keys
            if (k.startswith("datum.v.") and k != "datum.v.mode"
                and cfg.datum_v_mode != "family")
            or (k.startswith("metric.perturb.")
                and k != "metric.perturb.family" and not cfg.perturb_family)]


@given(st.lists(st.tuples(st.sampled_from(FIXED_KEYS), VALUES), max_size=4),
       st.lists(st.tuples(st.sampled_from(PROFILE_KEYS), VALUES), max_size=2))
def test_config_input_raises_only_config_error(fixed, profile):
    # Any value for any fixed or profile key parses or raises
    # ConfigError; a config that parses reads every profile key given,
    # and its quick variant is valid too.
    # A drawn key that MINIMAL sets replaces its line, so every key
    # reaches the parser as a value and not as a repeated key.
    entries = fixed + profile
    text = minimal_with(*(f"{key} = {value}" for key, value in entries))
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert unread_keys(cfg, [key for key, _ in entries]) == []
    validate_config(quick_override(cfg))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.cfg"))


def test_quick_override_caps_work():
    cfg = parse_config(MINIMAL.replace("grid.n = 257", "grid.n = 4096")
                       .replace("time.t_final = 0.1", "time.t_final = 2.0")
                       .replace("time.dt = 0.01", "time.dt = 0.001")
                       + "metric.eta_nodes = 1000\n")
    q = quick_override(cfg)
    assert q.n <= 257
    assert int(round(abs(q.t_final) / q.dt)) <= 50
    assert q.t_final == cfg.t_final
    # The shift keeps no more nodes than the reduced grid.
    assert q.eta_nodes == q.n
    validate_config(q)


def test_datum_modes():
    cfg = parse_config(MINIMAL)
    d = datum_from_config(cfg)
    assert d.u0(0.3) == d.v0(0.3)
    cfg_m = parse_config(MINIMAL + "datum.v.mode = mirrored\n"
                         + "datum.u.center = 0.7\n")
    dm = datum_from_config(cfg_m)
    assert dm.v0(0.4) == pytest.approx(float(dm.u0(-0.4)), rel=1e-12)
    cfg_f = parse_config(
        MINIMAL + "datum.v.mode = family\ndatum.v.family = sech_bump\n"
        + "datum.v.a = 0.25\n")
    df = datum_from_config(cfg_f)
    assert float(df.v0(0.0)) == pytest.approx(0.25)


def test_perturbed_datum_requires_family():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError):
        perturbed_datum(datum_from_config(cfg), cfg)
    cfg_p = parse_config(
        MINIMAL + "metric.perturb.family = gaussian_bump\n"
        + "metric.perturb.eps = 0.001\nmetric.perturb.width = 1.0\n")
    base = datum_from_config(cfg_p)
    pert = perturbed_datum(base, cfg_p)
    assert float(pert.u0(0.0)) == pytest.approx(float(base.u0(0.0)) + 0.001)
    assert float(pert.v0(0.0)) == pytest.approx(float(base.v0(0.0)))


def write_cfg(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.mark.parametrize("t_final", ["0.1", "-0.1"])
def test_cli_evolve_writes_artifacts(tmp_path, capsys, t_final):
    # A negative t_final runs the same steps backward in time.
    cfg = write_cfg(tmp_path, MINIMAL.replace("t_final = 0.1",
                                              f"t_final = {t_final}"))
    out = tmp_path / "out"
    rc = main(["evolve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    cons = (out / "conserved.csv").read_text().splitlines()
    assert cons[0] == "t,E_u,E_v,G,H,y_consistency"
    assert len(cons) == 1 + 3  # t = 0, 0.05, 0.1 in the sign of t_final
    assert float(cons[-1].split(",")[0]) == pytest.approx(float(t_final))
    states = sorted(out.glob("state_*.csv"))
    eulers = sorted(out.glob("euler_*.csv"))
    assert len(states) == 3 and len(eulers) == 3
    head = states[0].read_text().splitlines()[0]
    assert head == "xi,U,V,W,Z,q,y"
    ehead = eulers[0].read_text().splitlines()[0]
    assert ehead == "x,u,v,ux,ux_valid,vx,vx_valid"


def test_cli_evolve_reports_skipped_euler_frame(tmp_path, capsys,
                                                monkeypatch):
    # A record whose map is degenerate gets no euler file, and stderr
    # says which file was skipped and why.
    real = novlab.cli.euler_fields
    calls = []

    def degenerate_at_record_1(state):
        calls.append(state.t)
        if len(calls) == 2:
            raise ContractError("y decreases at cell 7")
        return real(state)

    monkeypatch.setattr(novlab.cli, "euler_fields", degenerate_at_record_1)
    out = tmp_path / "out"
    rc = main(["evolve", "--config", str(REPO / "configs" / "two_bump.cfg"),
               "--quick", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "skipped euler_0001.csv: y decreases at cell 7" in captured.err
    assert (out / "state_0001.csv").exists()
    assert not (out / "euler_0001.csv").exists()
    assert (out / "euler_0002.csv").exists()
    n_files = len(list(out.iterdir()))
    assert f"wrote {n_files} files in {out}" in captured.out


def test_cli_singular_reports_skipped_analysis(tmp_path, capsys,
                                              monkeypatch):
    # A failed classification still writes the point, unlabelled, and
    # stderr names the analysis, the point and the reason.
    # Both runs write to one --out, so their stdout is comparable.
    argv = ["singular", "--config", str(REPO / "configs" / "steep_front.cfg"),
            "--quick", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    ref_out = capsys.readouterr().out

    def refuse(point, state, **kw):
        raise AnalysisError("no usable margin")

    monkeypatch.setattr(novlab.cli, "classify", refuse)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == ref_out
    points = [json.loads(line) for line in
              (tmp_path / "out" / "points.jsonl").read_text().splitlines()]
    assert points and all(p["case_label"] is None for p in points)
    skips = [line for line in captured.err.splitlines()
             if line.startswith("skipped classify at ")]
    assert len(skips) == len(points)
    first = points[0]
    assert skips[0] == (f"skipped classify at t={first['t']!r}, "
                        f"xi={first['xi_star']!r}: no usable margin")


@pytest.mark.parametrize("fit,calls", [("true", 1), ("false", 0)])
def test_cli_singular_builds_euler_fields_only_for_fits(tmp_path, capsys,
                                                      monkeypatch, fit,
                                                      calls):
    # Only the exponent fits read the Euler graph, and only at a record
    # with a level event: the quick steep_front run has 6 records, and
    # both of its events are at the last one.
    real = novlab.cli.euler_fields
    seen = []

    def counted(state):
        seen.append(state.t)
        return real(state)

    monkeypatch.setattr(novlab.cli, "euler_fields", counted)
    text = (REPO / "configs" / "steep_front.cfg").read_text()
    cfg = write_cfg(tmp_path, text.replace("singular.fit = true",
                                           f"singular.fit = {fit}"))
    assert main(["singular", "--config", cfg, "--quick",
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith(
        "found 2 level events over 6 records\n")
    assert seen == [1.66] * calls


def test_cli_quick_steep_front_writes_every_euler_frame(tmp_path, capsys):
    # At t = 1.66 the quick map y dips by 6.5e-5 at cell 149, O(dx^3)
    # spatial noise on its 257 nodes, so the last frame has its graph.
    out = tmp_path / "out"
    rc = main(["evolve", "--config",
               str(REPO / "configs" / "steep_front.cfg"), "--quick",
               "--out", str(out)])
    assert rc == 0
    assert "skipped" not in capsys.readouterr().err
    assert sorted(p.name for p in out.glob("euler_*.csv")) == [
        f"euler_{i:04d}.csv" for i in range(6)]


def test_cli_singular_reports_skipped_fits(tmp_path, capsys, monkeypatch):
    # When euler_fields refuses the map y at the event record there is
    # no graph to fit on: each point is written without exponents, and
    # stderr names every fit it skipped with the euler_fields reason.
    def corrupt_map(state):
        raise ContractError("y decreases at cell 149: delta=-1.000e+00")

    monkeypatch.setattr(novlab.cli, "euler_fields", corrupt_map)
    out = tmp_path / "out"
    rc = main(["singular", "--config",
               str(REPO / "configs" / "steep_front.cfg"), "--quick",
               "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("found 2 level events over 6 records\n")
    points = [json.loads(line) for line in
              (out / "points.jsonl").read_text().splitlines()]
    assert [p["t"] for p in points] == [1.66, 1.66]
    assert all(p["fitted_exponent_u"] is None
               and p["fitted_exponent_v"] is None for p in points)
    skips = captured.err.splitlines()
    assert len(skips) == 2 * len(points)
    prefixes = [f"skipped fit_exponent ({comp}) at t={p['t']!r}, "
                f"xi={p['xi_star']!r}: y decreases at cell "
                for p in points for comp in ("u", "v")]
    for line, prefix in zip(skips, prefixes):
        assert line.startswith(prefix), line


def test_cli_quick_flag_shrinks_run(tmp_path, capsys):
    text = MINIMAL.replace("grid.n = 257", "grid.n = 1024")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "outq"
    rc = main(["evolve", "--config", cfg, "--out", str(out), "--quick"])
    assert rc == 0
    first_state = (out / "state_0000.csv").read_text().splitlines()
    assert len(first_state) - 1 <= 257


def test_cli_singular_on_quiet_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL + "singular.fit = false\n")
    out = tmp_path / "outs"
    rc = main(["singular", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "points.jsonl").read_text() == ""
    assert (out / "cancellations.jsonl").exists()


@pytest.mark.parametrize("center", ["-18.4", "18.4"])
@pytest.mark.parametrize("command", ["evolve", "singular"])
def test_cli_runs_a_kink_in_an_end_cell(tmp_path, capsys, command, center):
    # The peakon's crest label lies in the first (last) cell of the grid,
    # so the kink leaves a one-node piece at that end.
    cfg = write_cfg(tmp_path, "schema = novlab-config/1\n" + "".join(
        f"{line}\n" for line in ("grid.xi_min = -20", "grid.xi_max = 20",
                                 "grid.n = 64", "datum.u.family = peakon",
                                 f"datum.u.center = {center}",
                                 "time.t_final = 0.01", "time.dt = 0.01")))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("t_final", ["0.1", "-0.1"])
def test_cli_metric_writes_ratios(tmp_path, capsys, t_final):
    # Both time directions run, so the sign of t_final does not matter.
    text = (MINIMAL.replace("t_final = 0.1", f"t_final = {t_final}")
            + "metric.perturb.family = gaussian_bump\n"
            + "metric.perturb.eps = 0.001\n"
            + "metric.perturb.width = 1.2\n"
            + "metric.m_theta = 5\n")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "outm"
    rc = main(["metric", "--config", cfg, "--out", str(out)])
    assert rc == 0
    lines = (out / "ratios.csv").read_text().splitlines()
    assert lines[0] == "t,d_t_upper,ratio,search_mode,eta_iterations"
    ts = [float(row.split(",")[0]) for row in lines[1:]]
    assert min(ts) == pytest.approx(-0.1)
    assert max(ts) == pytest.approx(0.1)
    # The summary prints a plain float, not a numpy scalar's repr.
    assert "np.float64" not in capsys.readouterr().out


def test_cli_metric_with_zero_perturbation_is_analysis_failure(tmp_path,
                                                               capsys):
    # eps = 0 makes the two data equal, so d(0) = 0 and no ratio exists.
    text = (MINIMAL + "metric.perturb.family = gaussian_bump\n"
            + "metric.perturb.eps = 0\n" + "metric.m_theta = 5\n")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "outz"
    rc = main(["metric", "--config", cfg, "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "analysis failure:" in err and "coincide at t = 0" in err
    assert not (out / "ratios.csv").exists()


def test_cli_metric_without_perturbation_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    rc = main(["metric", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2


def test_cli_missing_config_file(tmp_path, capsys):
    rc = main(["evolve", "--config", str(tmp_path / "none.cfg")])
    assert rc == 2


def test_cli_guard_abort_writes_partial(tmp_path, capsys):
    # A q-box tighter than the profile needs trips after the first record
    # (the box around q = 1) or after the second; the bounds change no
    # state, so the partial artifacts are, byte for byte, the same
    # records of the run with default bounds.
    text = MINIMAL.replace("datum.u.a = 0.5", "datum.u.a = 1.2")
    ref = tmp_path / "ref"
    assert main(["evolve", "--config", write_cfg(tmp_path, text, "ref.cfg"),
                 "--out", str(ref)]) == 0
    conserved = (ref / "conserved.csv").read_bytes().splitlines(True)
    for q_lo, q_hi, records in (("0.999", "1.001", 1), ("0.9", "1.1", 2)):
        boxed = text + (f"omega.q_lo = {q_lo}\nomega.q_hi = {q_hi}\n"
                        "omega.slack = 1.0\n")
        out = tmp_path / f"out_{records}"
        rc = main(["evolve", "--config", write_cfg(tmp_path, boxed),
                   "--out", str(out)])
        assert rc == 3
        assert "abort" in capsys.readouterr().err
        frames = [f"{kind}_{i:04d}.csv" for kind in ("euler", "state")
                  for i in range(records)]
        assert sorted(p.name for p in out.iterdir()) == ["conserved.csv",
                                                         *frames]
        assert (out / "conserved.csv").read_bytes() == b"".join(
            conserved[:1 + records])
        for name in frames:
            assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_cli_singular_guard_abort_writes_events_so_far(tmp_path, capsys):
    # The steep front on 257 nodes crosses the level from t = 1.54 on,
    # and its q_min falls below 0.2495 at t = 1.64, the step after the
    # record at t = 1.62.  That box aborts the run after 5 records with
    # events;
    # what it writes is the conserved log and the events of the records
    # before the abort, byte for byte those of the run with default
    # bounds, and stderr repeats that run's lines up to the abort.
    text = (REPO / "configs" / "steep_front.cfg").read_text()
    for key, value in (("grid.n", "257"), ("time.dt", "0.01"),
                       ("time.t_final", "1.8"), ("time.record_every", "2")):
        text = re.sub(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}",
                      text)
    cfg = write_cfg(tmp_path, text, "ref.cfg")
    boxed = write_cfg(tmp_path, text + "omega.q_lo = 0.2495\n"
                      "omega.slack = 1.0\n")
    ref, out = tmp_path / "ref", tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(ref)]) == 0
    assert main(["singular", "--config", cfg, "--out", str(ref)]) == 0
    ref_err = capsys.readouterr().err.splitlines()
    assert main(["singular", "--config", boxed, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-2] == ("numerical abort: evolution aborted at step 164/180: "
                       "q left its validity box at t=1.64: "
                       "[2.494e-01, 4.935e+00]")
    assert err[-1] == f"partial artifacts: 3 files in {out}"
    assert err[:-2] == ref_err[:len(err) - 2]
    assert sorted(p.name for p in out.iterdir()) == [
        "cancellations.jsonl", "conserved.csv", "points.jsonl"]
    conserved = (out / "conserved.csv").read_bytes().splitlines(True)
    assert len(conserved) == 1 + 82  # t = 0, 0.02, ..., 1.62
    assert (ref / "conserved.csv").read_bytes().startswith(b"".join(conserved))
    for name in ("points.jsonl", "cancellations.jsonl"):
        lines = (out / name).read_text().splitlines()
        ref_lines = (ref / name).read_text().splitlines()
        assert len(lines) == 10 and len(ref_lines) == 28
        assert lines == ref_lines[:10]
    points = (out / "points.jsonl").read_text().splitlines()
    assert {json.loads(line)["t"] for line in points} == {
        1.54, 1.56, 1.58, 1.6, 1.62}


def test_cli_metric_guard_abort_names_the_step(tmp_path, capsys):
    # metric writes nothing on an abort, but stderr still names it.
    text = ((REPO / "configs" / "lipschitz.cfg").read_text()
            + "omega.q_lo = 0.999\nomega.q_hi = 1.001\nomega.slack = 1.0\n")
    out = tmp_path / "out"
    rc = main(["metric", "--config", write_cfg(tmp_path, text), "--quick",
               "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical abort: evolution aborted at step 1/50: "
                            "q left its validity box at t=-0.02: "
                            "[9.962e-01, 1.004e+00]\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["evolve", "singular"])
def test_cli_run_holds_one_recorded_state(tmp_path, capsys, command):
    # Each record is handed on as it is stepped, so the peak does not
    # grow with the record count.  Measured on 1024 nodes (a state is
    # 49,152 bytes), 50 records against 2: the peak grew by 29,707 bytes
    # for evolve (its file names and conserved log) and by none for
    # singular; when the run kept every state it grew by 2,396,637 and
    # 1,494,552 bytes.  The bound is one state.
    n = 1024

    def peak(records):
        cfg = write_cfg(tmp_path, minimal_with(
            f"grid.n = {n}", "time.dt = 0.002", "time.record_every = 1",
            f"time.t_final = {0.002 * (records - 1)!r}",
            "singular.fit = false"), f"r{records}.cfg")
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]

        def run():
            assert main(argv) == 0

        peak = traced_peak(run)
        assert f" {records} records\n" in capsys.readouterr().out
        return peak

    peak(2)  # imports the command's layers and caches the grid's cells
    growth = peak(50) - peak(2)
    assert growth <= 8 * 6 * n, growth


def test_cli_validate_quick_passes(tmp_path, capsys):
    # validate has one size, so --quick prints the same lines.
    cfg = write_cfg(tmp_path, MINIMAL)
    outs = []
    for flags in ([], ["--quick"]):
        assert main(["validate", "--config", cfg, *flags]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    lines = outs[1].splitlines()
    checks = [ln for ln in lines if ln.startswith("[")]
    assert len(checks) >= 12
    assert all(ln.startswith("[PASS]") for ln in checks)


def test_cli_validate_injected_fault_fails(tmp_path, capsys, monkeypatch):
    # A scan that is off by 1e-9 must turn its check red and the exit 4.
    real = novlab.validation.exp_convolve

    def broken(p, G, grid, **kw):
        fwd, bwd = real(p, G, grid, **kw)
        return fwd, bwd + 1e-9

    monkeypatch.setattr(novlab.validation, "exp_convolve", broken)
    cfg = write_cfg(tmp_path, MINIMAL)
    rc = main(["validate", "--config", cfg, "--quick"])
    assert rc == 4
    out = capsys.readouterr().out
    assert "[FAIL] scan_vs_bruteforce" in out


def test_cli_seed_override_changes_validate_draws(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    outs = []
    for seed in ("3", "3", "4"):
        assert main(["validate", "--config", cfg, "--quick",
                     "--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    # A seed repeats its draws exactly; another seed draws other random
    # states and tangents, which shows in the norm values.
    assert outs[0] == outs[1]
    lines = [{ln.split(":")[0]: ln for ln in out.splitlines()}
             for out in outs]
    assert lines[0].keys() == lines[2].keys()
    assert lines[0]["[PASS] norm_axioms"] != lines[2]["[PASS] norm_axioms"]


def test_scenario_config_defaults_are_valid():
    validate_config(ScenarioConfig())


def test_cli_seed_override_is_validated(tmp_path, capsys):
    # An override is checked like the config it replaces: exit 2.
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["validate", "--config", cfg, "--seed", "-200000"]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0\n"
