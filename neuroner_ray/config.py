"""Typed pipeline configuration (SURVEY.md S4).

Reference: src/main.py::load_parameters (≈L120–L220) + src/parameters.ini —
INI sections [mode]/[dataset]/[ann]/[training]/[advanced], CLI overrides,
string→type coercion, and a compatibility check. Parameter names are kept
where meaningful so reference configs are portable; execution-engine knobs
(TF threads/GPUs) are replaced by Ray-stage sizing.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields


@dataclass
class PipelineConfig:
    # [mode]
    train_model: bool = False
    use_pretrained_model: bool = True
    pretrained_model_folder: str = "tests/fixtures/checkpoint"
    # [ann]
    use_character_lstm: bool = True
    character_embedding_dimension: int = 8
    character_lstm_hidden_state_dimension: int = 8
    token_embedding_dimension: int = 16
    token_lstm_hidden_state_dimension: int = 16
    use_crf: bool = True
    # [training]
    patience: int = 3
    maximum_number_of_epochs: int = 30
    optimizer: str = "sgd"
    learning_rate: float = 0.05
    gradient_clipping_value: float = 5.0
    dropout_rate: float = 0.5
    # [advanced]
    tagging_format: str = "bioes"
    tokenizer: str = "regex"  # reference: spacy|stanford; here: regex
    main_evaluation_mode: str = "conll"
    remap_unknown_tokens_to_unk: bool = True
    check_for_lowercase: bool = True
    check_for_digits_replaced_with_zeros: bool = True
    # Ray-stage sizing (replaces number_of_cpu_threads / number_of_gpus)
    tagger_concurrency_max: int = 8
    tagger_batch_size: int = 1024
    num_output_buckets: int = 16

    def validate(self) -> None:
        """Eager compatibility check (reference: check_param_compatibility)."""
        if self.tagging_format not in ("bio", "bioes"):
            raise ValueError(f"tagging_format must be bio|bioes: {self.tagging_format}")
        if self.main_evaluation_mode not in ("conll", "bio", "token", "binary"):
            raise ValueError(f"bad main_evaluation_mode: {self.main_evaluation_mode}")
        if self.optimizer not in ("sgd", "adam", "adadelta"):
            raise ValueError(f"bad optimizer: {self.optimizer}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    @classmethod
    def from_ini(cls, path: str, overrides: dict | None = None) -> "PipelineConfig":
        """INI (any sections; keys matched by name, like the reference's
        flat parameter namespace) + explicit overrides, with coercion."""
        parser = configparser.ConfigParser()
        parsed = parser.read(path)
        if not parsed:  # configparser silently skips unreadable files — a
            # typo'd path would yield an all-default config with no error
            raise FileNotFoundError(f"config file not found/readable: {path}")
        flat: dict[str, str] = {}
        for section in parser.sections():
            flat.update(parser.items(section))
        if overrides:
            flat.update({k: str(v) for k, v in overrides.items()})
        kwargs = {}
        for f in fields(cls):
            if f.name not in flat:
                continue
            raw = flat[f.name]
            if f.type == "bool":
                kwargs[f.name] = raw.lower() in ("1", "true", "yes", "on")
            elif f.type == "int":
                kwargs[f.name] = int(raw)
            elif f.type == "float":
                kwargs[f.name] = float(raw)
            else:
                kwargs[f.name] = raw
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg
