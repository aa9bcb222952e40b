"""Experiment configuration: a flat INI file with one section per
component, defaults applied for anything unspecified, unknown sections or
keys rejected.

Grammar (configparser INI): ``[section]`` headers, ``key = value`` lines,
``#`` comments.  List values are comma-separated; the semantic plan's
groups use ``;`` between stages, e.g. ``groups = 0,1,2; 3,4,5``.

``write_config(resolve(read_config(path)))`` is the round-trip used to
freeze a run's resolved configuration into its output directory.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass

from .continual import (
    TrainingConfig,
    plan_general_specific,
    plan_most_to_least,
    plan_semantic,
)
from .data import Method, StagePlan
from .errors import FormatError, ValidationError
from .losses import ContrastiveConfig
from .simworld import ConfidenceModel, NoiseConfig, WorldConfig
from .tracker import TrackerConfig


@dataclass(frozen=True)
class PlanConfig:
    strategy: str = "general_specific"  # most_to_least | general_specific | semantic
    method: Method = Method.TRACK_PL
    groups: tuple[tuple[int, ...], ...] = ()  # only for the semantic strategy

    def build(self, world: WorldConfig) -> StagePlan:
        if self.strategy == "most_to_least":
            return plan_most_to_least(world, self.method)
        if self.strategy == "general_specific":
            return plan_general_specific(world, self.method)
        if self.strategy == "semantic":
            if not self.groups:
                raise ValidationError("semantic strategy requires groups")
            return plan_semantic(self.groups, self.method)
        raise ValidationError(f"unknown split strategy {self.strategy!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig = WorldConfig()
    noise: NoiseConfig = NoiseConfig()
    tracker: TrackerConfig = TrackerConfig()
    contrastive: ContrastiveConfig = ContrastiveConfig()
    training: TrainingConfig = TrainingConfig()
    plan: PlanConfig = PlanConfig()


# Flattened (section, key) -> how to parse / where it lives.  The noise
# section folds the confidence model in as conf_* keys.
_SECTIONS = {
    "world": WorldConfig,
    "noise": NoiseConfig,
    "tracker": TrackerConfig,
    "contrastive": ContrastiveConfig,
    "training": TrainingConfig,
    "plan": PlanConfig,
}

_CONF_KEYS = ("conf_true_mean", "conf_true_std", "conf_clutter_mean", "conf_clutter_std")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _coerce(field: dataclasses.Field, raw: str):
    t = field.type
    if t in ("int", int):
        return int(raw)
    if t in ("float", float):
        return float(raw)
    if field.name == "class_frequencies":
        return _parse_float_list(raw)
    raise FormatError(f"cannot parse key {field.name!r}")


def _section_kwargs(cls, section: configparser.SectionProxy, section_name: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, raw in section.items():
        if section_name == "noise" and key in _CONF_KEYS:
            continue
        if section_name == "plan":
            continue
        if key not in fields:
            raise FormatError(f"unknown key {key!r} in section [{section_name}]")
        kwargs[key] = _coerce(fields[key], raw)
    return kwargs


def _parse_plan(section: configparser.SectionProxy) -> PlanConfig:
    allowed = {"strategy", "method", "groups"}
    kwargs = {}
    for key, raw in section.items():
        if key not in allowed:
            raise FormatError(f"unknown key {key!r} in section [plan]")
        if key == "strategy":
            kwargs["strategy"] = raw.strip()
        elif key == "method":
            try:
                kwargs["method"] = Method(raw.strip())
            except ValueError as err:
                raise FormatError(f"unknown method {raw.strip()!r}") from err
        else:
            kwargs["groups"] = tuple(
                _parse_int_list(group) for group in raw.split(";") if group.strip()
            )
    return PlanConfig(**kwargs)


def read_config(path: str) -> ExperimentConfig:
    """Parse an INI experiment config; missing sections/keys fall back to
    defaults, unknown ones raise FormatError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as f:
        try:
            parser.read_file(f)
        except configparser.Error as err:
            raise FormatError(f"malformed config: {err}") from err

    for name in parser.sections():
        if name not in _SECTIONS:
            raise FormatError(f"unknown section [{name}]")

    built = {}
    for name, cls in _SECTIONS.items():
        if not parser.has_section(name):
            built[name] = cls()
            continue
        section = parser[name]
        if name == "plan":
            built[name] = _parse_plan(section)
            continue
        kwargs = _section_kwargs(cls, section, name)
        if name == "noise":
            cm_kwargs = {
                key[len("conf_") :]: float(section[key])
                for key in _CONF_KEYS
                if key in section
            }
            if cm_kwargs:
                kwargs["conf_model"] = ConfidenceModel(**cm_kwargs)
        built[name] = cls(**kwargs)
    return ExperimentConfig(**built)


def _fmt_value(v) -> str:
    if isinstance(v, tuple):
        return ", ".join(str(x) for x in v)
    if isinstance(v, Method):
        return v.value
    return str(v)


def write_config(cfg: ExperimentConfig, path: str) -> None:
    """Write the fully resolved config; reading it back reproduces cfg."""
    parser = configparser.ConfigParser()
    for name, obj in (
        ("world", cfg.world),
        ("noise", cfg.noise),
        ("tracker", cfg.tracker),
        ("contrastive", cfg.contrastive),
        ("training", cfg.training),
    ):
        parser[name] = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if name == "noise" and f.name == "conf_model":
                parser[name]["conf_true_mean"] = str(value.true_mean)
                parser[name]["conf_true_std"] = str(value.true_std)
                parser[name]["conf_clutter_mean"] = str(value.clutter_mean)
                parser[name]["conf_clutter_std"] = str(value.clutter_std)
                continue
            parser[name][f.name] = _fmt_value(value)
    parser["plan"] = {
        "strategy": cfg.plan.strategy,
        "method": cfg.plan.method.value,
    }
    if cfg.plan.groups:
        parser["plan"]["groups"] = "; ".join(
            ", ".join(str(c) for c in g) for g in cfg.plan.groups
        )
    with open(path, "w") as f:
        parser.write(f)
