"""Key-value config files, presets, and flag-override resolution.

Config files are plain text: one ``key = value`` per line, ``#`` comments,
dotted keys for nested sections (``model.d_model``, ``bt.num_bt``,
``optimizer.lr``, ``rec.num_rec``). Lists are comma-separated; excluded
pairs look like ``eng-fra``. Flag overrides always win over file values,
which win over the preset.

Presets:
  desk            from-scratch defaults for desk-scale runs
  paper-baseline  lr 5e-4, batch 32 accumulated to 256 sentences,
                  patience 100, num_bt 500, ratio 500:50, BT from epoch 2
  paper-final     lr 3e-6, batch 64 accumulated to 4096 sentences,
                  num_bt decay 100,50,10, ratio 100:50, BT from epoch 4
"""

from __future__ import annotations

from dataclasses import fields

from . import model as M
from . import optim
from .errors import ConfigError
from .harness import ExperimentConfig
from .objectives import BTConfig, FinetuneSetting, RECConfig

PRESETS: dict[str, dict[str, str]] = {
    "desk": {
        "optimizer.lr": "3e-4",
        "warmup_steps": "200",
        "batch_size_sentences": "16",
        "accumulation_factor": "1",
        "epochs": "3",
        "bt.num_bt": "100",
        "bt.num_sample": "2",
        "bt.start_epoch": "2",
        "rec.num_rec": "50",
        "patience_evals": "100",
    },
    "paper-baseline": {
        "optimizer.lr": "5e-4",
        "batch_size_sentences": "32",
        "accumulation_factor": "8",  # 32 * 8 = 256-sentence batches
        "epochs": "3",
        "bt.num_bt": "500",
        "bt.num_sample": "2",
        "bt.start_epoch": "2",  # one epoch plain, the remaining two with BT
        "rec.num_rec": "50",
        "patience_evals": "100",
    },
    "paper-final": {
        "optimizer.lr": "3e-6",
        "batch_size_sentences": "64",
        "accumulation_factor": "64",  # 64 * 64 = 4096-sentence batches
        "epochs": "6",
        "bt.num_bt": "100",
        "bt.num_bt_decay": "100,50,10",
        "bt.num_sample": "2",
        "bt.start_epoch": "4",  # three plain epochs before backtranslation
        "rec.num_rec": "50",
        "patience_evals": "100",
    },
}


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce(key: str, raw, ann: str):
    """The value of a config field annotated ``ann`` (postponed, so a string)."""
    text = raw.strip()
    try:
        if ann == "int":
            return int(text)
        if ann == "float":
            return float(text)
        if "FinetuneSetting" in ann:
            return FinetuneSetting.parse(text)
        if "tuple[int" in ann:
            return tuple(int(p) for p in text.split(",") if p.strip()) if text else ()
        if "tuple[tuple[str, str]" in ann:
            if not text:
                return ()
            pairs = []
            for part in text.split(","):
                a, _, b = part.strip().partition("-")
                if not a or not b:
                    raise ValueError(f"bad pair {part!r}, expected like eng-fra")
                pairs.append((a, b))
            return tuple(pairs)
        if "tuple[str" in ann:
            return tuple(p.strip() for p in text.split(",") if p.strip())
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


_SECTION_TYPES = {
    "model": M.ModelConfig,
    "bt": BTConfig,
    "rec": RECConfig,
    "optimizer": optim.AdamWConfig,
}


def build_experiment_config(
    values: dict[str, str], preset: str | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Resolve preset < file values < overrides into an ExperimentConfig."""
    merged: dict[str, str] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        merged.update(PRESETS[preset])
    merged.update(values)
    merged.update(overrides or {})

    sections: dict[str, dict] = {name: {} for name in _SECTION_TYPES}
    top: dict[str, object] = {}
    top_fields = {f.name: f for f in fields(ExperimentConfig)}
    for key, raw in merged.items():
        if "." in key:
            section, _, name = key.partition(".")
            if section not in _SECTION_TYPES:
                raise ConfigError(f"unknown config section {section!r} in key {key!r}")
            section_fields = {f.name: f for f in fields(_SECTION_TYPES[section])}
            if name not in section_fields:
                raise ConfigError(f"unknown config key {key!r}")
            sections[section][name] = _coerce(key, raw, section_fields[name].type)
        else:
            if key not in top_fields:
                raise ConfigError(f"unknown config key {key!r}")
            top[key] = _coerce(key, raw, top_fields[key].type)
    if "languages" not in top:
        raise ConfigError("config must set 'languages'")
    kwargs = dict(top)
    for section, cls in _SECTION_TYPES.items():
        if sections[section]:
            kwargs[section] = cls(**sections[section])
    config = ExperimentConfig(**kwargs)
    config.validate()
    return config
