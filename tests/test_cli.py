"""Command-line entry point: the data pipeline, train and translate end to end, the
commands that take --seed, config resolution for compare."""

import json
import os
import re

import pytest

from mtlab import checkpoint as ckpt
from mtlab import cli, decoding, harness, reports
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
    printed = re.search(
        r"decode_errors (\d+)  truncated (\d+)  distinct_hypotheses (\d+)",
        capsys.readouterr().out,
    )
    metadata = json.loads((out / "report.json").read_text(encoding="utf-8"))["metadata"]
    assert int(printed.group(1)) == metadata["decode_errors"] == 1
    assert int(printed.group(2)) == metadata["truncated"]
    assert int(printed.group(3)) == metadata["distinct_hypotheses"]


def test_missing_input_file_is_one_line_error(tmp_path, model_dir, capsys):
    code = cli.main([
        "translate", "--model", str(model_dir), "--input", str(tmp_path / "nofile.txt"),
        "--output", str(tmp_path / "out.txt"), "--target-lang", "sy2",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error FileNotFoundError: ") and err.count("\n") == 1


_NOT_UTF8 = b"languages = sy1,sy2\n\xff\xfe\n"


@pytest.mark.parametrize(
    "case, content, code",
    [
        ("config", _NOT_UTF8, 2),
        ("tokenizer", _NOT_UTF8, 1),
        ("comparison", _NOT_UTF8, 1),
        ("comparison", b"{not json", 1),
        ("comparison", b'{"directions": [], "settings": []}', 1),
        ("input", _NOT_UTF8, 1),
        ("tokenizer", b"hello\n", 1),
    ],
    ids=["config", "tokenizer", "comparison-utf8", "comparison-json", "comparison-key", "input",
         "tokenizer-corrupt"],
)
def test_unreadable_input_file_is_one_line_error(tmp_path, model_dir, capsys, case, content, code):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    store = tmp_path / "store"
    store.mkdir()
    train = ["train", "--set", "languages=sy1,sy2", "--store", str(store),
             "--out", str(tmp_path / "run")]
    argv = {
        "config": [*train, "--tokenizer", str(model_dir / "tokenizer.txt"), "--config", str(bad)],
        "tokenizer": [*train, "--tokenizer", str(bad)],
        "comparison": ["report", "--comparison", str(bad), "--out", str(tmp_path / "report")],
        "input": ["translate", "--model", str(model_dir), "--input", str(bad),
                  "--output", str(tmp_path / "out.txt"), "--target-lang", "sy2"],
    }[case]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    kind = "ConfigError" if code == 2 else "FormatError"
    assert err.startswith(f"error {kind}: ") and err.count("\n") == 1
    assert str(bad) in err


@pytest.mark.parametrize("command", ["translate", "evaluate"])
def test_target_language_without_tokenizer_tag_is_config_error(tmp_path, model_dir, capsys,
                                                               command):
    src = tmp_path / "in.txt"
    src.write_text("a b c\tc a b\n", encoding="utf-8")
    argv = {
        "translate": ["--input", str(src), "--output", str(tmp_path / "out.txt"),
                      "--target-lang", "zzz"],
        "evaluate": ["--test", str(src), "--direction", "sy1-zzz", "--out", str(tmp_path / "e")],
    }[command]
    assert cli.main([command, "--model", str(model_dir), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error ConfigError: ") and "zzz" in err
    assert not (tmp_path / "out.txt").exists() and not (tmp_path / "e").exists()


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


def _manifest(directory):
    return json.loads((directory / "manifest.json").read_text(encoding="utf-8"))


def test_data_pipeline_commands_write_files_and_manifests(tmp_path, capsys):
    store, split, stats = tmp_path / "store", tmp_path / "split", tmp_path / "stats"
    tok, prepared = tmp_path / "tok" / "tokenizer.txt", tmp_path / "prepared"
    tok.parent.mkdir()
    pairs, mono = tmp_path / "pairs.tsv", tmp_path / "mono.txt"
    pairs.write_text("a b c\tc b a\nb a\ta b\nc c b\tb c c\nbad line\n", encoding="utf-8")
    mono.write_text("a b c a\n\nc b a\nb b\n", encoding="utf-8")
    steps = [
        (["synth", "generate", "--langs", "sy1,sy2", "--n-parallel", "12", "--n-mono", "6",
          "--len-range", "2,4", "--concept-vocab", "20", "--dev", "0", "--test", "0",
          "--out", str(store)],
         store, ["parallel.jsonl", "mono.jsonl", "synth_specs.json"], 13),
        (["data", "split", "--store", str(store), "--dev", "2", "--test", "2", "--out", str(split)],
         split, ["parallel.jsonl", "mono.jsonl"], 13),
        (["data", "stats", "--store", str(split), "--out", str(stats)],
         stats, ["direction_counts.csv"], None),
        (["tokenizer", "train", "--store", str(split), "--vocab-size", "300", "--out", str(tok)],
         tok.parent, ["tokenizer.txt"], None),
        (["data", "prepare", "--parallel", f"sy1-sy2={pairs}", "--mono", f"sy1={mono}",
          "--out", str(prepared)],
         prepared, ["parallel.jsonl", "mono.jsonl", "clean_report.csv"], None),
    ]
    for argv, out_dir, files, seed in steps:
        assert cli.main(argv) == 0, argv
        manifest = _manifest(out_dir)
        assert manifest["command"] == " ".join(argv[:2])
        assert manifest["seed"] == seed
        assert all((out_dir / n).is_file() for n in files)
        assert set(manifest["outputs"]) == {str(out_dir / n) for n in files}
    split_inputs = _manifest(split)["inputs"]
    assert split_inputs == {str(store / n): reports.file_sha256(store / n)
                            for n in ("parallel.jsonl", "mono.jsonl")}
    assert "(malformed lines: 1)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["data", "prepare", "--out", "o"],
        ["data", "stats", "--store", "s"],
        ["tokenizer", "train", "--store", "s", "--out", "t"],
        ["evaluate", "--model", "m", "--test", "t", "--direction", "sy1-sy2", "--out", "o"],
        ["report", "--comparison", "c", "--out", "o"],
    ],
    ids=["data-prepare", "data-stats", "tokenizer-train", "evaluate", "report"],
)
def test_commands_without_randomness_take_no_seed(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--seed", "1"])
    assert exc.value.code == 2
