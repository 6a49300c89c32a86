"""Config files, flat key=value INI sections, parsed into a validated `ScenarioConfig`.

The keys are the fields of the config dataclasses: `ScenarioConfig`'s plain
fields under [scenario] (or the section their metadata names), and each
nested config's fields under the section of that field's name.
"""

from __future__ import annotations

import configparser
from dataclasses import fields, is_dataclass
from pathlib import Path

from .scenario import ConfigError, ScenarioConfig

_PARSERS = {"int": int, "float": float, "str": str}


def _key_table(cfg) -> dict[str, dict[str, tuple[object, object]]]:
    """section -> key -> (config object that holds the key, parser)."""
    table: dict[str, dict[str, tuple[object, object]]] = {}
    for f in fields(cfg):
        sub = getattr(cfg, f.name)
        if is_dataclass(sub):
            table[f.name] = {g.name: (sub, _PARSERS[g.type]) for g in fields(sub)}
        else:
            section = table.setdefault(f.metadata.get("section", "scenario"), {})
            section[f.name] = (cfg, _PARSERS[f.type])
    return table


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse a config file into a validated ScenarioConfig. Unknown keys are errors."""
    # no header names the empty section, so [DEFAULT] is an ordinary section,
    # rejected as unknown, rather than defaults leaking into every section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from None

    cfg = ScenarioConfig()
    table = _key_table(cfg)
    for section in parser.sections():
        if section not in table:
            raise ConfigError(f"unknown config section [{section}]")
        keys = table[section]
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            obj, parse = keys[key]
            try:
                setattr(obj, key, parse(raw))
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key} = {raw!r}: {exc}"
                ) from None
    cfg.validate()
    return cfg
