"""Network configuration: parameters, invariants, and flat-file ingestion."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum

from .errors import (
    BadBeamwidthError,
    BandwidthSplitError,
    ChannelSplitError,
    ConfigError,
    NonSquareBsError,
    OddInterfacesError,
)

TWO_PI = 2.0 * math.pi


class AntennaMode(Enum):
    OMNI = "omni"
    DIRECTIONAL = "directional"


@dataclass(frozen=True)
class NetworkConfig:
    """All model parameters for one network instance.

    Bandwidth is split as W = W_A + 2*W_I (uplink and downlink each get W_I);
    channels as C = C_A + C_I.  Base stations sit on a b0 x b0 grid (b = b0^2)
    and carry m interfaces each (even: half uplink, half downlink).
    """

    n: int                      # common nodes
    b: int                      # base stations, must be b0^2
    m: int                      # interfaces per base station (even)
    C: int                      # total channels
    C_A: int                    # ad hoc channels
    C_I: int                    # infrastructure channels
    W: float                    # total bandwidth, bits/sec
    W_A: float                  # ad hoc bandwidth
    W_I: float                  # uplink (= downlink) infrastructure bandwidth
    H: int                      # max hop bound for ad hoc mode
    b0: int = 0                 # derived from b when omitted
    delta: float = 1.0          # guard zone
    antenna_mode: AntennaMode = AntennaMode.OMNI
    theta: float = TWO_PI       # BS antenna beamwidth (directional mode)
    phi: float = TWO_PI         # node antenna beamwidth (directional mode)
    bs_service_constant: float = 1.0   # c: slots per packet per BS interface
    r_factor: float = 1.0       # multiplier on the default transmission range
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in sorted(_FLOAT_FIELDS):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n < 0:
            raise ConfigError(f"n must be nonnegative, got {self.n}")
        b0 = self.b0
        if b0 == 0:
            b0 = math.isqrt(max(self.b, 0))
            object.__setattr__(self, "b0", b0)
        if b0 < 1 or b0 * b0 != self.b:
            raise NonSquareBsError(f"b={self.b} is not a perfect square (b0={b0})")
        if self.m < 2 or self.m % 2 != 0:
            raise OddInterfacesError(f"m must be even and >= 2, got {self.m}")
        if self.C_A < 1 or self.C_I < 1 or self.C != self.C_A + self.C_I:
            raise ChannelSplitError(
                f"need C = C_A + C_I with both groups nonempty, got "
                f"C={self.C}, C_A={self.C_A}, C_I={self.C_I}"
            )
        if self.W_A < 0 or self.W_I < 0 or not math.isclose(
            self.W, self.W_A + 2.0 * self.W_I, rel_tol=0.0, abs_tol=1e-9
        ):
            raise BandwidthSplitError(
                f"need W = W_A + 2*W_I, got W={self.W}, W_A={self.W_A}, W_I={self.W_I}"
            )
        if self.H < 1:
            raise ConfigError(f"H must be >= 1, got {self.H}")
        if not self.delta > 0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        for name, width in (("theta", self.theta), ("phi", self.phi)):
            if not (0.0 < width <= TWO_PI):
                raise BadBeamwidthError(f"{name}={width} outside (0, 2*pi]")
        if self.r_factor < 1.0:
            raise ConfigError(f"r_factor must be >= 1, got {self.r_factor}")
        if not self.bs_service_constant > 0:
            raise ConfigError(
                f"bs_service_constant must be > 0, got {self.bs_service_constant}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")

    def with_overrides(self, **overrides) -> "NetworkConfig":
        """Return a new validated config with some fields replaced."""
        return replace(self, **overrides)


def require_network(cfg: NetworkConfig) -> None:
    """The cell-size rule, the analytic thresholds and the presets need n >= 3."""
    if cfg.n < 3:
        raise ConfigError(f"a network needs n >= 3 nodes, got n={cfg.n}")


_INT_FIELDS = {"n", "b", "b0", "m", "C", "C_A", "C_I", "H", "rng_seed"}
_FLOAT_FIELDS = {"W", "W_A", "W_I", "delta", "theta", "phi",
                 "bs_service_constant", "r_factor"}


def coerce_value(key: str, value):
    """One config value converted to its field's type; ConfigError for an
    unknown key or a value of the wrong kind, such as a float that is not a
    whole number for an integer field.  `antenna_mode` accepts the strings
    "omni" and "directional"."""
    if key not in {f.name for f in fields(NetworkConfig)}:
        raise ConfigError(f"unknown config key: {key}")
    if key == "antenna_mode":
        if isinstance(value, AntennaMode):
            return value
        try:
            return AntennaMode(str(value).strip().lower())
        except ValueError:
            raise ConfigError(
                f"antenna_mode must be omni or directional, got {value!r}") from None
    kind, noun = (int, "an integer") if key in _INT_FIELDS else (float, "a number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {key} needs {noun}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key} needs {noun}, got {value!r}") from None


def validate_config(raw: dict) -> NetworkConfig:
    """Build a NetworkConfig from a key/value mapping, enforcing every invariant.

    Unknown keys are rejected.  `b0` may be omitted (derived from b);
    `antenna_mode` accepts the strings "omni" and "directional".
    """
    values = {key: coerce_value(key, value) for key, value in raw.items()}
    missing = {"n", "b", "m", "C", "C_A", "C_I", "W", "W_A", "W_I", "H"} - values.keys()
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(sorted(missing))}")
    return NetworkConfig(**values)


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        raw[key] = value
    return raw


def load_config_file(path) -> NetworkConfig:
    """Read and validate a flat key = value config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    return validate_config(parse_config_text(text))


def dump_config(cfg: NetworkConfig) -> str:
    """Render a config as the flat key = value format (round-trips via load)."""
    lines = []
    for f in fields(NetworkConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, AntennaMode):
            value = value.value
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
