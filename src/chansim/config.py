"""Experiment configuration: flat dotted key=value documents.

A config document is plain text, one ``key = value`` pair per line, with
``#`` comments and blank lines ignored.  Grids are comma lists
(``0,0.2,0.4``) or inclusive ranges ``start:step:stop``; non-numeric grid
entries are kept as strings so categorical parameters (precoder,
correlation kind) can be swept too.  Angles are in degrees at this
boundary and converted to radians inside the runner.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import precoding, xlmimo
from .errors import ConfigError
from .registry import METRICS, MODELS

Grid = tuple


@dataclass(frozen=True)
class SweepSpec:
    """A named parameter with its value grid."""

    param: str
    grid: Grid

    def __post_init__(self):
        if self.param not in SWEEPABLE:
            raise ConfigError(f"unknown sweep parameter '{self.param}'")
        if len(self.grid) == 0:
            raise ConfigError(f"empty grid for sweep parameter '{self.param}'")
        default = ExperimentConfig.__dataclass_fields__[SWEEPABLE[self.param]].default
        for value in self.grid:
            if isinstance(default, (int, float)) and isinstance(value, str):
                raise ConfigError(
                    f"sweep parameter '{self.param}' expects numbers, got '{value}'")
            if isinstance(default, int) and not float(value).is_integer():
                raise ConfigError(
                    f"sweep parameter '{self.param}' expects integers, got {value}")


# Range rule of a numeric field -> the test its value must pass.
_RULES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "> 0": lambda v: v > 0,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


# Spread fields that a planar model needs strictly positive.
_PLANAR_SPREADS = {
    "onering_upa": ("delta_deg", "delta_theta_deg"),
    "gaussian_upa": ("sigma_phi_deg", "sigma_theta_deg"),
}


def _key(key: str, default=dataclasses.MISSING, sweep: str | None = None,
         rule: str | None = None):
    """A config field with its document key, sweep name and range rule.

    ``sweep`` names sweepable fields, ``rule`` (a key of ``_RULES``) bounds
    numeric ones.  The value type is the default's; else it is a string.
    """
    return field(default=default, metadata={"key": key, "sweep": sweep, "rule": rule})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description.

    ``sweep`` is the primary (row) parameter; ``curves`` are up to three
    secondary parameters whose grids are crossed with the sweep, one
    output row per combination.
    """

    model: str = _key("model")
    metric: str = _key("metric")
    sweep: SweepSpec
    curves: tuple = ()
    trials: int = _key("trials", 300, rule=">= 1")
    seed: int = _key("seed", 0, rule=">= 0")
    snr_db: float = _key("snr_db", 60.0)
    workers: int = _key("workers", 1, rule=">= 1")
    # array geometry; m_h = 0 means a linear array
    m: int = _key("geometry.m", 100, sweep="m", rule=">= 1")
    m_h: int = _key("geometry.m_h", 0, rule=">= 0")
    m_v: int = _key("geometry.m_v", 0, rule=">= 0")
    d_h: float = _key("geometry.d_h", 0.5, sweep="d_h", rule=">= 0")
    d_v: float = _key("geometry.d_v", 0.5, sweep="d_v", rule=">= 0")
    # correlation-model parameters (angles in degrees)
    rho: float = _key("model.rho", 0.5, sweep="rho", rule="in [0, 1]")
    beta: float = _key("model.beta", 1.0, sweep="beta", rule=">= 0")
    sigma_shad: float = _key("model.sigma_shad", 0.0, sweep="sigma_shad", rule=">= 0")
    theta_deg: float = _key("model.theta_deg", 0.0, sweep="theta")
    phi_deg: float = _key("model.phi_deg", 30.0, sweep="phi")
    delta_deg: float = _key("model.delta_deg", 10.0, sweep="delta", rule=">= 0")
    sigma_phi_deg: float = _key("model.sigma_phi_deg", 10.0, sweep="sigma_phi", rule=">= 0")
    theta_el_deg: float = _key("model.theta_el_deg", 0.0, sweep="theta_el")
    delta_theta_deg: float = _key("model.delta_theta_deg", 15.0, sweep="delta_theta",
                                  rule=">= 0")
    sigma_theta_deg: float = _key("model.sigma_theta_deg", 15.0, sweep="sigma_theta",
                                  rule=">= 0")
    num_scatterers: int = _key("model.num_scatterers", 1, rule=">= 1")
    svd_index: int = _key("model.svd_index", 0, rule=">= 0")
    # XL-MIMO scenario parameters
    xl_scheme: str = _key("xl.scheme", "scheme1", sweep="scheme")
    num_users: int = _key("xl.users", 10, sweep="num_users", rule=">= 1")
    clusters_per_user: int = _key("xl.clusters_per_user", 2, rule=">= 1")
    d1: float = _key("xl.d1", 35.0, sweep="d1", rule="> 0")
    d2: float = _key("xl.d2", 20.0, sweep="d2", rule="> 0")
    xl_correlation: str = _key("xl.correlation", "uncorrelated", sweep="correlation")
    precoder: str = _key("xl.precoder", "cb", sweep="precoder")
    total_power: float = _key("xl.total_power", 1.0, rule=">= 0")
    power_convention: str = _key("power_convention", "amplitude")
    p0: float = _key("xl.p0", 0.05, rule="in [0, 1]")
    p1: float = _key("xl.p1", 0.95, rule="in [0, 1]")
    c: float = _key("xl.c", 0.05, rule="in [0, 1]")
    r_min: float = _key("xl.r_min", 5.0, rule="> 0")
    r_max: float = _key("xl.r_max", 10.0)
    vr_antennas: int = _key("xl.vr_antennas", 33, sweep="vr_antennas", rule=">= 1")
    # 1 = draw scenario geometry once per sweep point instead of per trial
    freeze_geometry: int = _key("xl.freeze_geometry", 0, rule="in [0, 1]")

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model '{self.model}'")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric '{self.metric}'")
        if MODELS[self.model].family != METRICS[self.metric].family:
            raise ConfigError(
                f"metric '{self.metric}' is not defined for model '{self.model}'")
        for f in dataclasses.fields(self):
            rule = f.metadata.get("rule")
            if rule and not _RULES[rule](getattr(self, f.name)):
                raise ConfigError(
                    f"{f.metadata['key']} must be {rule}, got {getattr(self, f.name)}")
        if self.r_max < self.r_min:
            raise ConfigError(f"xl.r_max must be >= xl.r_min = {self.r_min}, got {self.r_max}")
        # The planar builders integrate over a window of each spread; zero leaves none.
        for name in _PLANAR_SPREADS.get(self.model, ()):
            if getattr(self, name) <= 0:
                key = self.__dataclass_fields__[name].metadata["key"]
                raise ConfigError(f"{key} must be > 0 for model '{self.model}', "
                                  f"got {getattr(self, name)}")
        if not xlmimo.sums_to_one(self.p0, self.p1):
            raise ConfigError(f"xl.p0 + xl.p1 must equal 1, got {self.p0 + self.p1}")
        if len(self.curves) > 3:
            raise ConfigError("at most 3 curve parameters are supported")
        # A repeated name would let the later grid override the earlier one.
        names = [s.param for s in (self.sweep,) + self.curves]
        if len(set(names)) < len(names):
            raise ConfigError(f"sweep and curve parameters must differ, got {', '.join(names)}")
        if self.xl_scheme not in xlmimo.CLUSTER_SCHEMES:
            raise ConfigError(f"unknown cluster scheme '{self.xl_scheme}'")
        if self.xl_correlation not in xlmimo.CLUSTER_CORRELATIONS:
            raise ConfigError(f"unknown XL correlation '{self.xl_correlation}'")
        if self.precoder not in precoding.PRECODERS:
            raise ConfigError(f"unknown precoder '{self.precoder}'")
        if self.power_convention not in precoding.POWER_CONVENTIONS:
            raise ConfigError(f"unknown power convention '{self.power_convention}'")


# dotted document key -> ExperimentConfig field
_FIELDS = {f.metadata["key"]: f for f in dataclasses.fields(ExperimentConfig)
           if "key" in f.metadata}
# Sweepable parameter name -> ExperimentConfig field name.
SWEEPABLE = {f.metadata["sweep"]: f.name for f in _FIELDS.values()
             if f.metadata["sweep"]}
_SECTIONS = ("sweep", "curve", "curve2", "curve3")


def _parse_scalar(text: str):
    """A grid entry: int if possible, else float, else the bare string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    if not np.isfinite(value):
        raise ConfigError(f"non-finite grid value '{text}'")
    return value


def parse_grid(text: str) -> Grid:
    """Parse ``a:step:b`` (inclusive) or a comma list into a value tuple."""
    text = text.strip()
    if not text:
        raise ConfigError("empty grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range grid must be start:step:stop, got '{text}'")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric range grid '{text}'") from None
        if not np.all(np.isfinite([start, step, stop])) or step <= 0 or stop < start:
            raise ConfigError(f"invalid range grid '{text}'")
        n = int(np.floor((stop - start) / step + 1e-9)) + 1
        vals = start + step * np.arange(n)
        return tuple(float(v) for v in vals)
    return tuple(_parse_scalar(p.strip()) for p in text.split(",") if p.strip())


def parse_config(text: str) -> ExperimentConfig:
    """Parse a key=value document into a validated ExperimentConfig."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line}'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"duplicate key '{key}'")
        raw[key] = value

    kwargs = {}
    sweeps: dict[str, dict[str, object]] = {}
    for key, value in raw.items():
        head = key.split(".", 1)[0]
        if head in _SECTIONS:
            if key not in (f"{head}.param", f"{head}.grid"):
                raise ConfigError(f"unknown key '{key}'")
            slot = sweeps.setdefault(head, {})
            if key.endswith(".grid"):
                try:
                    slot["grid"] = parse_grid(value)
                except ConfigError as e:
                    raise ConfigError(f"key '{key}': {e}") from None
            else:
                slot["param"] = value
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown key '{key}'")
        fld = _FIELDS[key]
        kind = str if fld.default is dataclasses.MISSING else type(fld.default)
        try:
            kwargs[fld.name] = kind(value)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(f"key '{key}' expects {expected}, got '{value}'") from None
        if kind is float and not np.isfinite(kwargs[fld.name]):
            raise ConfigError(f"key '{key}' expects a finite number, got '{value}'")

    for name in ("model", "metric"):
        if name not in kwargs:
            raise ConfigError(f"missing required key '{name}'")
    if "sweep" not in sweeps:
        raise ConfigError("missing required keys 'sweep.param' and 'sweep.grid'")

    def build_sweep(slot: dict) -> SweepSpec:
        if "param" not in slot or "grid" not in slot:
            raise ConfigError("sweep/curve sections need both .param and .grid")
        return SweepSpec(param=slot["param"], grid=slot["grid"])

    kwargs["sweep"] = build_sweep(sweeps["sweep"])
    curves = []
    for name in _SECTIONS[1:]:
        if name in sweeps:
            curves.append(build_sweep(sweeps[name]))
    kwargs["curves"] = tuple(curves)
    return ExperimentConfig(**kwargs)


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _format_grid(grid: Grid) -> str:
    return ",".join(_format_value(v) for v in grid)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize a config so that parse_config reads back an equal object."""
    lines = []
    for key, fld in _FIELDS.items():
        value = getattr(cfg, fld.name)
        if value == fld.default:
            continue
        lines.append(f"{key} = {_format_value(value)}")
    lines.append(f"sweep.param = {cfg.sweep.param}")
    lines.append(f"sweep.grid = {_format_grid(cfg.sweep.grid)}")
    for name, spec in zip(_SECTIONS[1:], cfg.curves):
        lines.append(f"{name}.param = {spec.param}")
        lines.append(f"{name}.grid = {_format_grid(spec.grid)}")
    return "\n".join(lines) + "\n"


def apply_point(cfg: ExperimentConfig, assignment: dict) -> ExperimentConfig:
    """Return a copy of cfg with sweep/curve parameter values substituted."""
    updates = {}
    for param, value in assignment.items():
        fld = SWEEPABLE[param]
        current = getattr(cfg, fld)
        # SweepSpec admits only whole numbers for an integer field.
        if isinstance(current, int) and not isinstance(value, str):
            value = int(value)
        updates[fld] = value
    return dataclasses.replace(cfg, **updates)
