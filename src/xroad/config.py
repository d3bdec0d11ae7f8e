"""JSON experiment configuration.

A config file mirrors the Scenario structure in nested sections.  Unknown
keys are rejected so typos in experiment definitions fail loudly instead of
silently falling back to defaults.  SIR thresholds are written in dB and
converted to linear scale on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

from .model import (CHANNEL_PRESETS, ChannelParams, DestinationGeometry,
                    LinkSpec, RoadLayout, Scenario, validate_scenario)
from .montecarlo import SimConfig
from .sweep import SweepSpec, Variant, check_spec, db_to_linear


class ConfigError(ValueError):
    """A config file failed to parse or validate; message names the field."""


def _check_keys(obj: dict, where: str, allowed: set[str],
                required: set[str] = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing key '{key}' in {where}")


def _float(value, field: str) -> float:
    """A JSON number as a float.  Booleans, non-numbers and integers beyond
    the float range raise a ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{field} is an integer too large for a "
                          "float") from None


def _floats(value, field: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{field} must be a list of numbers")
    return tuple(_float(v, f"{field}[{i}]") for i, v in enumerate(value))


def _number(obj: dict, where: str, key: str, default=None) -> float:
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing key '{key}' in {where}")
        return default
    return _float(obj[key], f"{where}.{key}")


def _integer(obj: dict, where: str, key: str, default=None) -> int:
    """An integral JSON number; 3.0 passes, 2.5, NaN and Infinity do not."""
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing key '{key}' in {where}")
        return default
    value = obj[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    return value


def parse_channel(obj: dict, where: str = "channel") -> ChannelParams:
    if "preset" in obj:
        _check_keys(obj, where, {"preset"})
        name = obj["preset"]
        if name not in CHANNEL_PRESETS:
            raise ConfigError(
                f"{where}.preset must be one of {sorted(CHANNEL_PRESETS)}")
        return CHANNEL_PRESETS[name]
    _check_keys(obj, where, {"alpha", "m", "mu"}, {"alpha", "m"})
    return ChannelParams(alpha=_number(obj, where, "alpha"),
                         m=_integer(obj, where, "m"),
                         mu=_number(obj, where, "mu", 1.0))


def _offsets(obj: dict, where: str, key: str,
             default: tuple[float, ...]) -> tuple[float, ...]:
    if key not in obj:
        return default
    return _floats(obj[key], f"{where}.{key}")


def parse_layout(obj: dict, where: str = "layout") -> RoadLayout:
    _check_keys(obj, where, {"lanes_x", "lanes_y", "lambda_x", "lambda_y"})
    return RoadLayout(
        lanes_x=_offsets(obj, where, "lanes_x", (0.0,)),
        lanes_y=_offsets(obj, where, "lanes_y", (0.0,)),
        lambda_x=_number(obj, where, "lambda_x", 0.0),
        lambda_y=_number(obj, where, "lambda_y", 0.0),
    )


_SCENARIO_KEYS = {"channel", "geometry", "link", "layout", "aloha_p",
                  "sir_threshold_db"}


def parse_scenario(obj: dict) -> Scenario:
    _check_keys(obj, "scenario", _SCENARIO_KEYS | {"sim", "sweep"},
                {"channel", "link"})
    geometry = obj.get("geometry", {})
    _check_keys(geometry, "geometry", {"d", "theta"})
    link = obj["link"]
    _check_keys(link, "link", {"r"}, {"r"})
    threshold = db_to_linear(
        _number(obj, "scenario", "sir_threshold_db", 0.0))
    if not 0.0 < threshold < math.inf:
        raise ConfigError("scenario.sir_threshold_db must give a positive, "
                          "finite linear threshold")
    scenario = Scenario(
        channel=parse_channel(obj["channel"]),
        geometry=DestinationGeometry(d=_number(geometry, "geometry", "d", 0.0),
                                     theta=_number(geometry, "geometry",
                                                   "theta", 0.0)),
        link=LinkSpec(r=_number(link, "link", "r")),
        layout=parse_layout(obj.get("layout", {})),
        p=_number(obj, "scenario", "aloha_p", 1.0),
        theta_threshold=threshold,
    )
    return validate_scenario(scenario)


def parse_sim(obj: dict, seed: int | None = None,
              trials: int | None = None) -> SimConfig:
    """The `sim` section over SimConfig's defaults; `seed` and `trials`,
    when given, replace the section's values once those have validated."""
    _check_keys(obj, "sim", {"trials", "half_length", "seed", "confidence"})
    section_trials = _integer(obj, "sim", "trials", SimConfig.trials)
    section_seed = _integer(obj, "sim", "seed", SimConfig.master_seed)
    half_length = _number(obj, "sim", "half_length", SimConfig.half_length)
    confidence = _number(obj, "sim", "confidence", SimConfig.confidence)
    try:
        sim = SimConfig(trials=section_trials, master_seed=section_seed,
                        half_length=half_length, confidence=confidence)
        return replace(sim, trials=sim.trials if trials is None else trials,
                       master_seed=sim.master_seed if seed is None else seed)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc


def sim_section(sim: SimConfig) -> dict:
    """The `sim` section that parse_sim reads back as `sim`."""
    return {"trials": sim.trials, "half_length": sim.half_length,
            "seed": sim.master_seed, "confidence": sim.confidence}


def parse_variant(obj: dict, where: str) -> Variant:
    _check_keys(obj, where, {"label", "channel", "layout"}, {"label"})
    if not isinstance(obj["label"], str) or not obj["label"]:
        raise ConfigError(f"{where}.label must be a nonempty string")
    channel = (parse_channel(obj["channel"], f"{where}.channel")
               if "channel" in obj else None)
    layout = (parse_layout(obj["layout"], f"{where}.layout")
              if "layout" in obj else None)
    return Variant(label=obj["label"], channel=channel, layout=layout)


def parse_sweep(obj: dict, base: Scenario) -> SweepSpec:
    """The sweep section over `base`, its axis, values and variants checked;
    run_sweep validates its points before any engine runs."""
    _check_keys(obj, "sweep",
                {"axis", "values", "variants", "lane_spacing"},
                {"axis", "values"})
    values = _floats(obj["values"], "sweep.values")
    raw_variants = obj.get("variants", [{"label": "base"}])
    if not isinstance(raw_variants, list) or not raw_variants:
        raise ConfigError("sweep.variants must be a nonempty list")
    variants = tuple(parse_variant(v, f"sweep.variants[{i}]")
                     for i, v in enumerate(raw_variants))
    spec = SweepSpec(
        base=base,
        axis=obj["axis"],
        values=values,
        variants=variants,
        lane_spacing=_number(obj, "sweep", "lane_spacing", 3.5),
    )
    try:
        check_spec(spec)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    return spec


def load_config(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # A JSON integer of more than 4300 digits, which int() refuses, or
        # arrays or objects nested too deep for the parser.
        raise ConfigError(f"config cannot be parsed: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    return obj

