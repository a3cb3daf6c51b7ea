"""Run configuration with flags > environment > config file > defaults layering."""

from __future__ import annotations

import os

from .bases import DEFAULT_TOLERANCE, KL_TERMS, _check_tolerance, check_kl_terms
from .errors import DomainError
from .words import MAX_BLOCK_EXPONENT, Immutable

# Environment variable names, documented in the README.
ENV_KEYS = {
    "GS_TOLERANCE": "tolerance",
    "GS_MAX_N": "max_block_exponent",
    "GS_KL_TERMS": "kl_terms",
    "GS_FORMAT": "output_format",
    "GS_CONFIG": None,  # path to a config file, handled separately
}


class RunConfig(Immutable):
    __slots__ = ("tolerance", "max_block_exponent", "kl_terms", "output_format")

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE,
                 max_block_exponent: int = MAX_BLOCK_EXPONENT, kl_terms: int = KL_TERMS,
                 output_format: str = "text"):
        _check_tolerance(tolerance)
        if output_format not in ("text", "json"):
            raise DomainError("output_format must be 'text' or 'json'")
        if max_block_exponent < 1:
            raise DomainError("max_block_exponent must be a positive integer")
        check_kl_terms(kl_terms)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "max_block_exponent", max_block_exponent)
        object.__setattr__(self, "kl_terms", kl_terms)
        object.__setattr__(self, "output_format", output_format)


def _replace(cfg: RunConfig, changes: dict) -> RunConfig:
    """A copy of cfg with the named fields changed, validated as a new config."""
    return RunConfig(**{**{name: getattr(cfg, name) for name in RunConfig.__slots__}, **changes})


def _coerce(name: str, raw: object, kind: type, parse: bool = True) -> object:
    """raw as kind, the type of the field's default. Environment and flag values
    are parsed; a config-file value (parse=False) must already have that type,
    where an integer may stand for a float but a bool is no number."""
    if not parse and (isinstance(raw, bool)
                      or not isinstance(raw, (int, float) if kind is float else kind)):
        raise DomainError(f"{name}: cannot read {raw!r}")
    try:
        return kind(raw)  # type: ignore[operator]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name}: cannot read {raw!r}") from exc


def load_config(
    flag_values: dict | None = None,
    env: dict | None = None,
    config_path: str | None = None,
) -> RunConfig:
    """Build a RunConfig from the documented precedence chain.

    flag_values holds already-parsed CLI values (None entries are ignored);
    env defaults to os.environ; config_path falls back to GS_CONFIG.
    """
    env = os.environ if env is None else env
    cfg = RunConfig()
    kinds = {name: type(getattr(cfg, name)) for name in RunConfig.__slots__}

    path = config_path or env.get("GS_CONFIG")
    if path:
        import json  # here, so a run without a config file never loads it
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise DomainError(f"config file {path} must hold a JSON object")
        unknown = set(data) - set(RunConfig.__slots__)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        cfg = _replace(cfg, {k: _coerce(k, v, kinds[k], parse=False) for k, v in data.items()})

    for env_key, field_name in ENV_KEYS.items():
        if field_name and env_key in env:
            cfg = _replace(cfg, {field_name: _coerce(field_name, env[env_key], kinds[field_name])})

    if flag_values:
        updates = {k: v for k, v in flag_values.items() if v is not None}
        if updates:
            cfg = _replace(cfg, {k: _coerce(k, v, kinds[k]) for k, v in updates.items()})

    return cfg
