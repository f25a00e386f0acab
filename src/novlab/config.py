"""Plain-text scenario configuration.

Grammar: one `key = value` pair per line, `#` starts a comment, blank
lines ignored, and each key may appear once.  The first meaningful line
must be the schema tag `schema = novlab-config/1`.  Keys are dotted
paths; the datum.* and metric.perturb.* groups accept family
parameters, everything else is a fixed vocabulary.  Files are diffable
run records: parsing is strict, unknown fixed keys are rejected, and
validation builds the grid and every named datum, so their
constructors' checks apply at load.  A datum.v.* key needs
datum.v.mode = family and a metric.perturb.* key needs
metric.perturb.family: a key no built datum reads is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .grid import make_grid
from .initial import builtin_datum

SCHEMA_TAG = "novlab-config/1"

# Defaults of the metric.* keys.  A config is read before any metric
# code runs, and `novlab evolve` or `singular` never runs it, so these
# are declared here rather than in `metric`, whose keyword defaults
# import them: a call that names none and a config that names none
# agree, and reading a config does not load `metric`.
DEFAULT_ALPHA = 0.5
DEFAULT_ETA_NODES = 17
DEFAULT_M_THETA = 9
# The IRLS pass cap of a shift search that names none.
DEFAULT_DESCENT_ITERS = 200
# Defaults of the guard and breaking keys, likewise: evolution reads the
# first three, sources (and through it breaking and metric) the others.
DEFAULT_Q_LO = 0.01
DEFAULT_Q_HI = 100.0
DEFAULT_SLACK = 1.5
# An angle within this distance of a level touches it.
TOL_PI = 1e-3
# An angle derivative within this fraction of its local scale vanishes.
TOL_ZERO_REL = 1e-3


@dataclass(frozen=True)
class ScenarioConfig:
    xi_min: float = -20.0
    xi_max: float = 20.0
    n: int = 2048
    datum_u_family: str = "gaussian_bump"
    datum_u_params: dict = field(default_factory=dict)
    # v-profile: "same" copies u, "mirrored" reflects it, "family" reads
    # datum.v.family and its parameters.
    datum_v_mode: str = "same"
    datum_v_family: str = ""
    datum_v_params: dict = field(default_factory=dict)
    t_final: float = 1.0
    dt: float = 1e-3
    record_every: int = 100
    q_lo: float = DEFAULT_Q_LO
    q_hi: float = DEFAULT_Q_HI
    slack: float = DEFAULT_SLACK
    tol_pi: float = TOL_PI
    tol_zero_rel: float = TOL_ZERO_REL
    fit_exponents: bool = True
    side_window: float = 0.4
    min_gap: float = 0.02
    run_cancellations: bool = True
    alpha: float = DEFAULT_ALPHA
    m_theta: int = DEFAULT_M_THETA
    eta_nodes: int = DEFAULT_ETA_NODES
    # The IRLS pass cap of every tangent norm; 0 searches no shift.
    descent_iters: int = 0
    perturb_family: str = ""
    perturb_params: dict = field(default_factory=dict)
    perturb_eps: float = 0.0
    perturb_component: str = "u"
    out_dir: str = "out"
    seed: int = 0


_FLOAT_KEYS = {
    "grid.xi_min": "xi_min",
    "grid.xi_max": "xi_max",
    "time.t_final": "t_final",
    "time.dt": "dt",
    "omega.q_lo": "q_lo",
    "omega.q_hi": "q_hi",
    "omega.slack": "slack",
    "singular.tol_pi": "tol_pi",
    "singular.tol_zero_rel": "tol_zero_rel",
    "singular.side_window": "side_window",
    "singular.min_gap": "min_gap",
    "metric.alpha": "alpha",
    "metric.perturb.eps": "perturb_eps",
}

_INT_KEYS = {
    "grid.n": "n",
    "time.record_every": "record_every",
    "metric.m_theta": "m_theta",
    "metric.eta_nodes": "eta_nodes",
    "metric.iters": "descent_iters",
    "seed": "seed",
}

_BOOL_KEYS = {
    "singular.fit": "fit_exponents",
    "singular.cancellations": "run_cancellations",
}

_STR_KEYS = {
    "datum.u.family": "datum_u_family",
    "datum.v.mode": "datum_v_mode",
    "datum.v.family": "datum_v_family",
    "metric.search": "search",
    "metric.perturb.family": "perturb_family",
    "metric.perturb.component": "perturb_component",
    "output.dir": "out_dir",
}


def _coerce_number(key: str, raw: str) -> float:
    try:
        num = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}")
    if not math.isfinite(num):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return num


def parse_config(text: str) -> ScenarioConfig:
    fields: dict = {}
    u_params: dict = {}
    v_params: dict = {}
    p_params: dict = {}
    lines: dict = {}  # key -> the line that set it
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not lines and (key != "schema" or value != SCHEMA_TAG):
            raise ConfigError(
                f"line {lineno}: first entry must be 'schema = {SCHEMA_TAG}'")
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}, "
                              f"first set on line {lines[key]}")
        lines[key] = lineno
        if key == "schema":
            continue
        if key in _FLOAT_KEYS:
            fields[_FLOAT_KEYS[key]] = _coerce_number(key, value)
        elif key in _INT_KEYS:
            num = _coerce_number(key, value)
            if num != int(num):
                raise ConfigError(f"{key}: expected an integer, got {value!r}")
            fields[_INT_KEYS[key]] = int(num)
        elif key in _BOOL_KEYS:
            if value not in ("true", "false"):
                raise ConfigError(f"{key}: expected true or false, got {value!r}")
            fields[_BOOL_KEYS[key]] = value == "true"
        elif key in _STR_KEYS:
            fields[_STR_KEYS[key]] = value
        elif key.startswith("datum.u."):
            u_params[key[len("datum.u."):]] = _coerce_number(key, value)
        elif key.startswith("datum.v."):
            v_params[key[len("datum.v."):]] = _coerce_number(key, value)
        elif key.startswith("metric.perturb."):
            p_params[key[len("metric.perturb."):]] = _coerce_number(key, value)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if not lines:
        raise ConfigError(f"missing schema line 'schema = {SCHEMA_TAG}'")
    # metric.search is read here only: coarse_descent caps the IRLS
    # passes at metric.iters, and eta_zero, the default, makes none.
    search = fields.pop("search", "eta_zero")
    if search not in ("eta_zero", "coarse_descent"):
        raise ConfigError("metric.search must be eta_zero or coarse_descent")
    iters = fields.pop("descent_iters", DEFAULT_DESCENT_ITERS)
    if iters < 0:
        raise ConfigError("metric.iters must be >= 0")
    cfg = ScenarioConfig(**fields, datum_u_params=u_params,
                         datum_v_params=v_params, perturb_params=p_params,
                         descent_iters=iters if search == "coarse_descent"
                         else 0)
    validate_config(cfg)
    # A key of a profile that is never built is an error, not a no-op.
    for key, lineno in lines.items():
        if key in ("datum.v.mode", "metric.perturb.family"):
            continue
        if key.startswith("datum.v.") and cfg.datum_v_mode != "family":
            raise ConfigError(f"line {lineno}: {key} is not read with "
                              f"datum.v.mode = {cfg.datum_v_mode}")
        if key.startswith("metric.perturb.") and not cfg.perturb_family:
            raise ConfigError(f"line {lineno}: {key} is not read without "
                              "metric.perturb.family")
    return cfg


def validate_config(cfg: ScenarioConfig) -> None:
    if cfg.dt <= 0:
        raise ConfigError("time.dt must be positive")
    ratio = abs(cfg.t_final) / cfg.dt
    if (not math.isfinite(ratio)
            or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio)):
        raise ConfigError("time.t_final must be an integer multiple of time.dt")
    if cfg.record_every < 1:
        raise ConfigError("time.record_every must be >= 1")
    if not cfg.q_lo < cfg.q_hi:
        raise ConfigError("omega.q_lo must be below omega.q_hi")
    if not cfg.slack > 0:
        raise ConfigError("omega.slack must be positive")
    if not 0.0 < cfg.alpha < 1.0:
        raise ConfigError("metric.alpha must lie strictly in (0, 1)")
    if cfg.m_theta < 3:
        raise ConfigError("metric.m_theta must be >= 3")
    if cfg.eta_nodes < 2:
        raise ConfigError("metric.eta_nodes must be >= 2")
    if cfg.datum_v_mode not in ("same", "mirrored", "family"):
        raise ConfigError("datum.v.mode must be same, mirrored, or family")
    if cfg.datum_v_mode == "family" and not cfg.datum_v_family:
        raise ConfigError("datum.v.mode=family requires datum.v.family")
    if cfg.perturb_component not in ("u", "v", "both"):
        raise ConfigError("metric.perturb.component must be u, v, or both")
    for key in ("tol_pi", "tol_zero_rel", "side_window", "min_gap"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"singular.{key} must be >= 0")
    if not cfg.side_window > cfg.min_gap:
        raise ConfigError("singular.side_window must exceed singular.min_gap")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    # What parses can be built: the grid and every named datum.
    make_grid(cfg.xi_min, cfg.xi_max, cfg.n)
    # A shift with more nodes than the grid leaves a coarse cell empty.
    if cfg.eta_nodes > cfg.n:
        raise ConfigError("metric.eta_nodes must be <= grid.n")
    builtin_datum(cfg.datum_u_family, cfg.datum_u_params)
    if cfg.datum_v_mode == "family":
        builtin_datum(cfg.datum_v_family, cfg.datum_v_params)
    if cfg.perturb_family:
        builtin_datum(cfg.perturb_family, cfg.perturb_params)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}")
    return parse_config(text)


def quick_override(cfg: ScenarioConfig) -> ScenarioConfig:
    """Reduced-resolution variant used by the --quick flag."""
    n = min(cfg.n, 257)
    steps = max(int(round(abs(cfg.t_final) / cfg.dt)), 1)
    quick_steps = min(steps, 50)
    dt = abs(cfg.t_final) / quick_steps if cfg.t_final != 0 else cfg.dt
    return replace(cfg, n=n, dt=dt if dt > 0 else cfg.dt,
                   record_every=max(quick_steps // 5, 1),
                   eta_nodes=min(cfg.eta_nodes, n))
