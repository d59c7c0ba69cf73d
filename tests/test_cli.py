"""Command-line entry point: translate end to end, config resolution for compare."""

import json

import pytest

from mtlab import checkpoint as ckpt
from mtlab import cli
from mtlab import model as M


@pytest.fixture
def model_dir(tmp_path, tiny_tokenizer, tiny_model_config):
    path = tmp_path / "model"
    path.mkdir()
    ckpt.save_params(path / "params.ckpt", M.init(tiny_model_config, seed=0))
    tiny_tokenizer.save(path / "tokenizer.txt")
    return path


def test_translate_writes_one_line_per_input_and_manifest(tmp_path, model_dir):
    src = tmp_path / "in.txt"
    src.write_text("a b c\nc a\nhello world\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "out.txt"
    code = cli.main([
        "translate", "--model", str(model_dir), "--input", str(src),
        "--output", str(out), "--target-lang", "sy2", "--max-new-tokens", "5",
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8").count("\n") == 3
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "translate"


def test_compare_resolves_config_like_train(tmp_path, capsys):
    code = cli.main([
        "compare", "--set", "languages=sy1,sy2", "--set", "epochs=0",
        "--store", str(tmp_path / "missing"), "--tokenizer", "t", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "epochs must be >= 1" in capsys.readouterr().err
