"""Flat key=value experiment configuration with dotted section prefixes.

Every key is declared once, in KEYS: its default, as the raw string, and
its Domain, which parses a raw string into the typed value or rejects
it.  `cfg[key]` is the typed value, read through that Domain; a value
outside it is a ConfigError naming the key.  `cfg.get(key)` is the raw
string.  `validate` parses every key once, so a bad value fails before
any work runs.

CLI flags of the form key=value override file keys.  The config hash
(first 12 hex of sha256 over the sorted canonical key=value lines plus
the seed) names the output directory, so identical configs land in the
same place byte for byte.
"""

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

from .lattice import POINT_CAP
from .oscillation import MAX_DEGREE
from .symbols import FAMILIES


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Domain:
    """The values `kind(raw)` on which `ok` holds; `text` names them."""
    kind: Callable
    ok: Callable
    text: str

    def __call__(self, raw: str):
        try:
            val = self.kind(raw)
            if self.ok(val):
                return val
        except ValueError:
            pass
        raise ValueError(f"expected {self.text}, got {raw!r}")


def _real(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(raw)
    return val


def _reals(raw: str) -> list:
    return [_real(tok) for tok in raw.split(",") if tok.strip()]


def _one_of(*names) -> Domain:
    return Domain(str, names.__contains__, " | ".join(names))


_ANY = Domain(_real, math.isfinite, "a number")
_POSITIVE = Domain(_real, lambda x: x > 0, "a number > 0")
_NATURAL = Domain(int, lambda k: k >= 0, "an integer >= 0")
_COUNT = Domain(int, lambda k: k >= 1, "an integer >= 1")

KEYS = {
    "weight.kind": ("gaussian", _one_of("gaussian", "perturbed-gaussian")),
    # past either end the Gram underflows or the normalisations overflow
    "weight.alpha": ("1.0", Domain(_real, lambda a: 1e-12 <= a <= 1e12,
                                   "a number in 1e-12..1e12")),
    "basis.degree": ("20", _NATURAL),
    "basis.margin": ("10", _NATURAL),
    "quad.order": ("0", Domain(int, lambda k: k == 0, "0 (retired: the "
                               "plane rule is sized by basis.degree)")),
    "lattice.base_re": ("0.0", _ANY),
    "lattice.base_im": ("0.0", _ANY),
    "lattice.r": ("1.0", _POSITIVE),
    # K^2 sublattices, each a row of sublattices.csv, within the point cap
    "lattice.K": ("1", Domain(int, lambda k: 1 <= k <= math.isqrt(POINT_CAP),
                              f"an integer in 1..{math.isqrt(POINT_CAP)}")),
    "lattice.window": ("5.0", _POSITIVE),     # half-width of the square
    "symbol.id": ("conj-linear", _one_of(*FAMILIES)),
    "symbol.radius": ("1.0", _POSITIVE),
    "symbol.beta": ("1.0", Domain(_real, lambda x: x >= 0, "a number >= 0")),
    "symbol.coeffs": ("0.0,1.0", Domain(_reals, bool, "numbers, "
                                        "comma-separated, at least one")),
    "functional.q": ("2.0", Domain(_real, lambda q: q >= 1,
                                   "a number >= 1")),
    # the balls B(z, r) need a positive, finite area pi r^2
    "functional.r": ("1.0", Domain(
        _real, lambda r: r > 0 and 0 < math.pi * r * r < math.inf,
        "a number > 0 with pi r^2 a positive finite float")),
    # the degrees whose fit the ball rule integrates exactly
    "functional.d": ("6", Domain(int, lambda d: 0 <= d <= MAX_DEGREE,
                                 f"an integer in 0..{MAX_DEGREE}")),
    "functional.s": ("inf", Domain(
        lambda raw: math.inf if raw == "inf" else _real(raw),
        lambda s: s >= 1, "inf or a number >= 1")),
    "functional.shells": ("2.0,3.0,4.0,5.0", Domain(
        _reals, lambda v: v and 0 < v[0]
        and all(a < b for a, b in zip(v, v[1:])),
        "increasing numbers > 0, comma-separated")),
    "gauge.p": ("2.0", _POSITIVE),
    "gauge.c_grid": ("0.5,1.0,2.0", Domain(
        _reals, lambda v: v and min(v) > 0,
        "numbers > 0, comma-separated")),
    "dbar.n_radial": ("60", _COUNT),
    "dbar.n_angular": ("96", _COUNT),
    "approx.t": ("2.0", _POSITIVE),
    "measure.density": ("lebesgue", _one_of("lebesgue", "gaussian")),
    "probes.half_width": ("2.0", _POSITIVE),
    "probes.count": ("25", Domain(int, lambda k: 1 <= k <= POINT_CAP,
                                  f"an integer in 1..{POINT_CAP}")),
}

DEFAULTS = {key: default for key, (default, _) in KEYS.items()}


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)
    seed: int = 0

    def get(self, key: str) -> str:
        """The raw string of `key`."""
        if key in self.values:
            return self.values[key]
        if key in DEFAULTS:
            return DEFAULTS[key]
        raise ConfigError(f"unknown config key: {key}")

    def __getitem__(self, key: str):
        """The value of `key`, parsed by its Domain in KEYS."""
        raw = self.get(key)
        try:
            return KEYS[key][1](raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None

    def canonical_lines(self) -> list:
        merged = dict(DEFAULTS)
        merged.update(self.values)
        return [f"{k}={merged[k]}" for k in sorted(merged)]

    def hash(self) -> str:
        payload = "\n".join(self.canonical_lines()) + f"\nseed={self.seed}\n"
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def validate(self) -> None:
        for key in self.values:
            if key not in KEYS:
                raise ConfigError(f"unknown config key: {key}")
        for key in KEYS:
            self[key]


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value")
        key, _, val = stripped.partition("=")
        out[key.strip()] = val.strip()
    return out


def load_config(path=None, overrides=(), seed: int = 0) -> ExperimentConfig:
    values = {}
    if path is not None:
        with open(path) as fh:
            values.update(parse_config_text(fh.read()))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, val = item.partition("=")
        values[key.strip()] = val.strip()
    cfg = ExperimentConfig(values=values, seed=seed)
    cfg.validate()
    return cfg
