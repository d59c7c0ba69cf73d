"""Shared set-up for the benchmark: where the program's source lives, the
fixed synthetic world every workload draws from, and the stored base model.

The world (languages, lexicons, reorder rules, model shape) is fixed so
that the stored base model matches it; ``--seed`` only picks which
sentences each run uses.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BASE_MODEL_DIR = BENCH_DIR / "base_model"
OUT_DIR = BENCH_DIR / "out"

LANGS = ("sy1", "sy2", "sy3", "sy4")
# One excluded pair, so the BT pivot check has a partner it must avoid.
EXCLUSIONS = (("sy1", "sy4"),)
# Sentence lengths in words. A sentence of n words encodes to 2n-1 pieces,
# plus a tag and eos; 6 words stay well below max_positions = 24, and keep
# spTER segments at 11 pieces or fewer (its shift search grows steeply
# with segment length).
SENT_LEN = (2, 6)
CONCEPTS = 40
BASE_SEED = 2204


class SourceMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def use_checkout_source():
    """Import ``mtlab`` from this checkout's ``src`` and return the package.

    Refuses to fall back to any other installed copy, so a run always
    measures the code next to the benchmark.
    """
    if not (SRC / "mtlab" / "__init__.py").is_file():
        raise SourceMissing(f"no program source at {SRC / 'mtlab'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mtlab

    if Path(mtlab.__file__).resolve().parent != (SRC / "mtlab").resolve():
        raise SourceMissing(f"mtlab was imported from {mtlab.__file__}, not {SRC}")
    return mtlab


def lang_specs():
    from mtlab.synth import SyntheticLangSpec

    rules = ("identity", "swap_adjacent_pairs", "reverse_windows:3", "identity")
    prefixes = ("ka", "bu", "zo", "fe")
    return [
        SyntheticLangSpec(code, 100 + i, prefixes[i], rules[i], CONCEPTS)
        for i, code in enumerate(LANGS)
    ]


def model_config(vocab_size: int):
    from mtlab.model import ModelConfig

    return ModelConfig(
        vocab_size=vocab_size,
        d_model=64,
        n_heads=4,
        n_enc_layers=2,
        n_dec_layers=2,
        d_ff=128,
        max_positions=24,
        dropout=0.1,
    )


def load_base_model():
    """(params, tokenizer) of the stored BASE model."""
    from mtlab import checkpoint
    from mtlab.tokenizer import SubwordModel

    params, _ = checkpoint.load_params(BASE_MODEL_DIR / "params.ckpt")
    tokenizer = SubwordModel.load(BASE_MODEL_DIR / "tokenizer.txt")
    return params, tokenizer
