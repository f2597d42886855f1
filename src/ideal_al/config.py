"""Run configuration: defaults, validation, flat-file round trip.

The config file format is flat `key = value` text, one key per line,
`#` comments allowed. Unknown keys and a key set twice are hard errors.
Each value is parsed as the type its `LoopConfig` field is annotated with;
tuple-valued keys (weights, hidden_sizes) use comma separation. `none` is a
value only of the keys whose default is None (dataset, test_dataset,
m_cand, weights).
"""

import dataclasses
import math
import typing
from dataclasses import dataclass

from .errors import NOT_UTF8, ConfigError

STRATEGIES = ("ideal", "random", "entropy", "coreset")


@dataclass
class LoopConfig:
    dataset: str = None
    test_dataset: str = None
    k_aug: int = 2
    m_cand: int = None  # default: ceil(2.6 * budget), clamped to the pool
    budget: int = 20
    cycles: int = 5
    gamma: float = 0.4
    epsilon: float = 0.1
    xi: float = 0.1
    alpha: float = 0.75
    delta: float = 0.05
    weights: tuple[float, ...] = None  # (w_u, w_1..w_K); default all ones
    seed: int = 0
    strategy: str = "ideal"
    disable_ranker: bool = False
    disable_density: bool = False
    train_steps_per_cycle: int = 300
    lambda_u: float = 1.0
    learning_rate: float = 0.05
    batch_size: int = 32
    hidden_sizes: tuple[int, ...] = (64, 64)
    init_per_class: int = 2
    cold_start: bool = False

    def resolved_m_cand(self, pool_size=None):
        m = self.m_cand if self.m_cand is not None else math.ceil(2.6 * self.budget)
        if pool_size is not None:
            m = min(m, pool_size)
        return max(m, self.budget)

    def resolved_weights(self):
        if self.weights is None:
            return tuple([1.0] * (self.k_aug + 1))
        return tuple(float(w) for w in self.weights)

    def validate(self):
        if self.budget < 1:
            raise ConfigError("budget", "must be >= 1")
        if self.cycles < 1:
            raise ConfigError("cycles", "must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")
        if self.m_cand is not None and self.m_cand < self.budget:
            raise ConfigError("m_cand", "must be >= budget")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma", "must lie in [0, 1]")
        for key in ("epsilon", "xi", "alpha", "delta", "learning_rate", "lambda_u"):
            if not 0 < getattr(self, key) < math.inf:  # also rejects nan
                raise ConfigError(key, "must be positive and finite")
        for key in ("k_aug", "train_steps_per_cycle", "batch_size", "init_per_class"):
            if getattr(self, key) < 1:
                raise ConfigError(key, "out of range")
        if self.strategy not in STRATEGIES:
            raise ConfigError("strategy", f"must be one of {STRATEGIES}")
        if self.weights is not None:
            w = self.resolved_weights()
            if len(w) != self.k_aug + 1:
                raise ConfigError("weights", f"need k_aug+1 = {self.k_aug + 1} entries")
            if not all(0 <= x < math.inf for x in w) or sum(w) <= 0:
                raise ConfigError("weights", "must be finite, nonnegative, not all zero")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes", "must be positive widths")
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(LoopConfig)}


def _parse_value(key, raw):
    """`raw` as the type `LoopConfig` annotates `key` with."""
    raw = raw.strip()
    if raw.lower() == "none":
        if _FIELDS[key].default is not None:
            raise ConfigError(key, "has no none value")
        return None
    kind = _FIELDS[key].type
    if kind is str:
        return raw
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(key, f"not a boolean: {raw!r}")
    try:
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(item(p) for p in raw.split(",") if p.strip())
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse value {raw!r}") from exc


def parse_config(text):
    """Parse flat key = value text into a validated LoopConfig."""
    values, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(key, "unknown configuration key")
        if key in lines:
            raise ConfigError(key, f"set on line {lines[key]} and again on line {lineno}")
        lines[key] = lineno
        values[key] = _parse_value(key, raw)
    return LoopConfig(**values).validate()


def load_config(path):
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    bad = NOT_UTF8.search(text)
    if bad:
        lineno = text.count("\n", 0, bad.start()) + 1
        raise ConfigError(f"line {lineno}", f"{path} is not valid UTF-8")
    return parse_config(text)


def format_config(config):
    """Flat-text snapshot that parse_config reproduces exactly."""
    lines = []
    for f in dataclasses.fields(LoopConfig):
        value = getattr(config, f.name)
        if value is None:
            text = "none"
        elif typing.get_origin(f.type) is tuple:
            text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def save_config(config, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(config))
