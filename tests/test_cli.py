"""Command-line entry point: train and translate end to end, config resolution for compare."""

import json
import os
import re

import pytest

from mtlab import checkpoint as ckpt
from mtlab import cli, decoding, harness
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


@pytest.mark.parametrize("mode", ["beam", "sample"])
def test_translate_other_modes_write_one_line_per_input(tmp_path, model_dir, mode):
    src = tmp_path / "in.txt"
    src.write_text("a b c\nc a\nhello world\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    code = cli.main([
        "translate", "--model", str(model_dir), "--input", str(src), "--output", str(out),
        "--target-lang", "sy2", "--mode", mode, "--beam-size", "2", "--max-new-tokens", "4",
    ])
    assert code == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3


def test_evaluate_prints_decode_errors_and_truncations(tmp_path, model_dir, capsys):
    # The second source is longer than max_positions and cannot be decoded.
    test = tmp_path / "test.tsv"
    test.write_text(
        "a b c\tc a b\n" + " ".join(["a b c"] * 10) + "\ta b c\n", encoding="utf-8"
    )
    out = tmp_path / "eval"
    code = cli.main([
        "evaluate", "--model", str(model_dir), "--test", str(test),
        "--direction", "sy1-sy2", "--out", str(out),
    ])
    assert code == 0
    printed = re.search(r"decode_errors (\d+)  truncated (\d+)", capsys.readouterr().out)
    metadata = json.loads((out / "report.json").read_text(encoding="utf-8"))["metadata"]
    assert int(printed.group(1)) == metadata["decode_errors"] == 1
    assert int(printed.group(2)) == metadata["truncated"]


def test_missing_input_file_is_one_line_error(tmp_path, model_dir, capsys):
    code = cli.main([
        "translate", "--model", str(model_dir), "--input", str(tmp_path / "nofile.txt"),
        "--output", str(tmp_path / "out.txt"), "--target-lang", "sy2",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error FileNotFoundError: ") and err.count("\n") == 1


def test_compare_resolves_config_like_train(tmp_path, capsys):
    code = cli.main([
        "compare", "--set", "languages=sy1,sy2", "--set", "epochs=0",
        "--store", str(tmp_path / "missing"), "--tokenizer", "t", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "epochs must be >= 1" in capsys.readouterr().err


def test_train_then_translate_from_run_dir(tmp_path):
    store, run_dir, out_dir = tmp_path / "store", tmp_path / "run", tmp_path / "out"
    tok = tmp_path / "tok" / "tokenizer.txt"
    tok.parent.mkdir()
    assert cli.main([
        "synth", "generate", "--langs", "sy1,sy2", "--n-parallel", "12", "--n-mono", "6",
        "--len-range", "2,4", "--concept-vocab", "20", "--dev", "2", "--test", "2",
        "--out", str(store),
    ]) == 0
    assert cli.main([
        "tokenizer", "train", "--store", str(store), "--vocab-size", "300", "--out", str(tok),
    ]) == 0
    model = ["model.d_model=16", "model.n_heads=2", "model.n_enc_layers=1",
             "model.n_dec_layers=1", "model.d_ff=24", "model.max_positions=24"]
    sets = ["languages=sy1,sy2", "bt.num_bt=2", "bt.start_epoch=1", "rec.num_rec=2",
            "batch_size_sentences=8", "eval_every_steps=2", *model]
    assert cli.main([
        "train", "--setting", "btrec", "--epochs", "2", "--store", str(store),
        "--tokenizer", str(tok), "--out", str(run_dir),
        *[arg for kv in sets for arg in ("--set", kv)],
    ]) == 0
    assert sorted(os.listdir(run_dir)) == sorted([*harness.RUN_FILES, "manifest.json"])

    src = tmp_path / "in.txt"
    src.write_text("ka1 ka2\nka3\nka4 ka5 ka6\n", encoding="utf-8")
    out_dir.mkdir()
    code = cli.main([
        "translate", "--model", str(run_dir), "--input", str(src),
        "--output", str(out_dir / "out.txt"), "--target-lang", "sy2", "--max-new-tokens", "5",
    ])
    assert code == 0
    assert len((out_dir / "out.txt").read_text(encoding="utf-8").splitlines()) == 3
    for directory in (run_dir, out_dir):
        manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
        listed = [*manifest["inputs"], *manifest["outputs"]]
        assert listed and all(os.path.exists(p) for p in listed)
    train_manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(train_manifest["outputs"]) == sorted(
        str(run_dir / n) for n in harness.RUN_FILES
    )
