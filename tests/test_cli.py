"""Command-line entry point: translate end to end, config resolution for compare."""

import json
import re

import pytest

from mtlab import checkpoint as ckpt
from mtlab import cli, decoding
from mtlab import model as M
from mtlab.corpus import LangTag
from mtlab.tokenizer import SubwordModel


@pytest.fixture
def model_dir(tmp_path, tiny_tokenizer, tiny_model_config):
    path = tmp_path / "model"
    path.mkdir()
    ckpt.save_params(path / "params.ckpt", M.init(tiny_model_config, seed=0))
    tiny_tokenizer.save(path / "tokenizer.txt")
    return path


def test_translate_writes_one_line_per_input_and_manifest(tmp_path, model_dir):
    src = tmp_path / "in.txt"
    src.write_text("a b c\n\nc a\nhello world\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "out.txt"
    code = cli.main([
        "translate", "--model", str(model_dir), "--input", str(src),
        "--output", str(out), "--target-lang", "sy2", "--max-new-tokens", "5",
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").split("\n")
    assert len(lines) == 5 and lines[-1] == ""  # 4 lines, each ended by a newline
    assert lines[1] == ""
    assert all(lines[i] for i in (0, 2, 3))
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "translate"


def test_translate_reports_truncations(tmp_path, model_dir, capsys):
    # The last sentence is longer than max_positions: it fails and is not truncated.
    sentences = ["a b c", "c a", "hello world", "b", " ".join(["a b c"] * 10)]
    src = tmp_path / "in.txt"
    src.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    code = cli.main([
        "translate", "--model", str(model_dir), "--input", str(src),
        "--output", str(tmp_path / "out.txt"), "--target-lang", "sy2",
        "--mode", "sample", "--max-new-tokens", "3", "--seed", "7",
    ])
    assert code == 0
    printed = re.search(r", (\d+) truncated ->", capsys.readouterr().out)
    params, _ = ckpt.load_params(model_dir / "params.ckpt")
    tokenizer = SubwordModel.load(model_dir / "tokenizer.txt")
    config = decoding.DecodeConfig(mode="sample", max_new_tokens=3)
    tag = LangTag("sy2").surface
    results = decoding.generate_batch(
        params, tokenizer, [f"{tag} {s}" for s in sentences], config, seed=7
    )
    truncated = sum(r.truncated for r in results)
    assert 0 < truncated < len(results)
    assert int(printed.group(1)) == truncated


def test_compare_resolves_config_like_train(tmp_path, capsys):
    code = cli.main([
        "compare", "--set", "languages=sy1,sy2", "--set", "epochs=0",
        "--store", str(tmp_path / "missing"), "--tokenizer", "t", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "epochs must be >= 1" in capsys.readouterr().err
