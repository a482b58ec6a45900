"""Flat key=value experiment configuration with dotted section prefixes.

CLI flags of the form key=value override file keys.  The config hash
(first 12 hex of sha256 over the sorted canonical key=value lines plus
the seed) names the output directory, so identical configs land in the
same place byte for byte.
"""

import hashlib
import math
from dataclasses import dataclass, field

from .symbols import FAMILIES

DEFAULTS = {
    "weight.kind": "gaussian",
    "weight.alpha": "1.0",
    "basis.degree": "20",
    "basis.margin": "10",
    "quad.order": "0",             # 0 => derived from basis degree
    "lattice.base_re": "0.0",
    "lattice.base_im": "0.0",
    "lattice.r": "1.0",
    "lattice.K": "1",
    "lattice.window": "5.0",       # half-width of the square window
    "symbol.id": "conj-linear",
    "symbol.radius": "1.0",
    "symbol.beta": "1.0",
    "symbol.coeffs": "0.0,1.0",
    "functional.q": "2.0",
    "functional.r": "1.0",
    "functional.d": "6",
    "functional.s": "inf",
    "functional.shells": "2.0,3.0,4.0,5.0",
    "gauge.p": "2.0",
    "gauge.c_grid": "0.5,1.0,2.0",
    "dbar.n_radial": "60",
    "dbar.n_angular": "96",
    "approx.t": "2.0",
    "measure.density": "lebesgue",  # lebesgue | gaussian
    "probes.half_width": "2.0",
    "probes.count": "25",
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)
    seed: int = 0

    def get(self, key: str) -> str:
        if key in self.values:
            return self.values[key]
        if key in DEFAULTS:
            return DEFAULTS[key]
        raise ConfigError(f"unknown config key: {key}")

    def get_float(self, key: str) -> float:
        raw = self.get(key)
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}")
        if not math.isfinite(val):
            raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
        return val

    def get_int(self, key: str) -> int:
        raw = self.get(key)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}")

    def get_floats(self, key: str) -> list:
        raw = self.get(key)
        try:
            vals = [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated numbers, "
                              f"got {raw!r}")
        if not all(map(math.isfinite, vals)):
            raise ConfigError(f"{key}: expected finite numbers, got {raw!r}")
        return vals

    def canonical_lines(self) -> list:
        merged = dict(DEFAULTS)
        merged.update(self.values)
        return [f"{k}={merged[k]}" for k in sorted(merged)]

    def hash(self) -> str:
        payload = "\n".join(self.canonical_lines()) + f"\nseed={self.seed}\n"
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def validate(self) -> None:
        for key in self.values:
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key: {key}")
        if self.get("weight.kind") not in ("gaussian", "perturbed-gaussian"):
            raise ConfigError("weight.kind: must be gaussian or "
                              "perturbed-gaussian")
        if self.get_float("weight.alpha") <= 0:
            raise ConfigError("weight.alpha: must be positive")
        if self.get_int("basis.degree") < 0:
            raise ConfigError("basis.degree: must be >= 0")
        if self.get_int("basis.margin") < 0:
            raise ConfigError("basis.margin: must be >= 0")
        if self.get_int("functional.d") < 0:
            raise ConfigError("functional.d: must be >= 0")
        if self.get_int("quad.order") < 0:
            raise ConfigError("quad.order: must be >= 0")
        for key in ("dbar.n_radial", "dbar.n_angular"):
            if self.get_int(key) < 1:
                raise ConfigError(f"{key}: must be >= 1")
        for key in ("approx.t", "lattice.window", "probes.half_width"):
            if self.get_float(key) <= 0:
                raise ConfigError(f"{key}: must be positive")
        if self.get_float("functional.q") < 1:
            raise ConfigError("functional.q: must be >= 1")
        if self.get_float("functional.r") <= 0:
            raise ConfigError("functional.r: must be positive")
        if self.get_float("lattice.r") <= 0:
            raise ConfigError("lattice.r: must be positive")
        for key in ("lattice.K", "probes.count"):
            if self.get_int(key) < 1:
                raise ConfigError(f"{key}: must be >= 1")
        if self.get("functional.s") != "inf" and \
                self.get_float("functional.s") < 1:
            raise ConfigError("functional.s: must be inf or >= 1")
        if self.get_float("gauge.p") <= 0:
            raise ConfigError("gauge.p: must be positive")
        if self.get("symbol.id") not in FAMILIES:
            raise ConfigError(f"symbol.id: unknown family "
                              f"{self.get('symbol.id')!r}")
        # checked whatever symbol.id is: the reports read every family
        if self.get_float("symbol.radius") <= 0:
            raise ConfigError("symbol.radius: must be positive")
        if self.get_float("symbol.beta") < 0:
            raise ConfigError("symbol.beta: must be >= 0")
        if not self.get_floats("symbol.coeffs"):
            raise ConfigError("symbol.coeffs: must list at least one number")
        if self.get("measure.density") not in ("lebesgue", "gaussian"):
            raise ConfigError("measure.density: must be lebesgue or gaussian")
        shells = self.get_floats("functional.shells")
        if any(b <= a for a, b in zip(shells, shells[1:])):
            raise ConfigError("functional.shells: must be increasing")
        for key in ("functional.shells", "gauge.c_grid"):
            vals = self.get_floats(key)
            if not vals:
                raise ConfigError(f"{key}: must list at least one number")
            if min(vals) <= 0:
                raise ConfigError(f"{key}: entries must be positive")


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
