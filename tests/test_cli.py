"""Command-line entry point: the data pipeline, train and translate end to end, the
commands that take --seed, config resolution for compare."""

import json
import os
import re
import shutil
from pathlib import Path

import pytest

from mtlab import checkpoint as ckpt
from mtlab import cli, decoding, harness, reports
from mtlab import model as M
from mtlab.corpus import LangTag
from mtlab.metrics import EvalReport
from mtlab.tokenizer import SubwordModel


BASE_MODEL_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "base_model"


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
    assert _manifest(out)["command"] == "translate"
    assert not (out_dir / "manifest.json").exists()


def test_translate_normalizes_whitespace_like_the_corpus_loaders(tmp_path):
    # Tabs and runs of spaces would otherwise reach the model as ids it never trained
    # on; the benchmark's trained model (read only) translates such sources differently.
    outputs = {}
    for name, text in [("raw", "ka1\tka2  ka3\n \t\n  ka6 \t ka11\nka4  ka10\tka2 \n"),
                       ("normalized", "ka1 ka2 ka3\n\nka6 ka11\nka4 ka10 ka2\n")]:
        src = tmp_path / f"{name}.txt"
        src.write_text(text, encoding="utf-8")
        out = tmp_path / f"{name}.out"
        code = cli.main([
            "translate", "--model", str(BASE_MODEL_DIR), "--input", str(src),
            "--output", str(out), "--target-lang", "sy2",
        ])
        assert code == 0
        outputs[name] = out.read_text(encoding="utf-8").split("\n")
    assert outputs["raw"] == outputs["normalized"]
    assert len(outputs["raw"]) == 5 and outputs["raw"][1] == ""


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


def test_evaluate_reports_malformed_test_lines(tmp_path, model_dir, capsys):
    test = tmp_path / "test.tsv"
    test.write_text("a b c\tc a b\nno tab here\nc a\ta c\n", encoding="utf-8")
    out = tmp_path / "eval"
    assert cli.main([
        "evaluate", "--model", str(model_dir), "--test", str(test),
        "--direction", "sy1-sy2", "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "size=2" in printed and printed.endswith("  malformed_lines 1\n")
    metadata = json.loads((out / "report.json").read_text(encoding="utf-8"))["metadata"]
    assert metadata["malformed_lines"] == 1


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


@pytest.mark.parametrize(
    "key, value",
    [("model.n_heads", "0"), ("model.d_model", "30"), ("model.max_positions", "1"),
     ("languages", "eng,fr"), ("exclusions", "sy1-zz")],
)
def test_bad_config_value_is_config_error_before_the_store_loads(tmp_path, capsys, key, value):
    code = cli.main([
        "train", "--set", "languages=sy1,sy2", "--set", f"{key}={value}",
        "--store", str(tmp_path / "nostore"), "--tokenizer", "t", "--out", str(tmp_path / "r"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error ConfigError: ") and err.count("\n") == 1
    assert key.rpartition(".")[2] in err


@pytest.mark.parametrize("flags, match", [
    (["--low-resource", "zz9"], "zz9"),
    (["--low-resource", "sy1", "--low-resource-factor", "nan"], "factor"),
    (["--low-resource", "sy1", "--low-resource-factor", "-3"], "factor"),
])
def test_synth_generate_bad_low_resource_flags_are_synth_errors(tmp_path, capsys, flags, match):
    code = cli.main(["synth", "generate", "--langs", "sy1,sy2", "--n-parallel", "4",
                     "--out", str(tmp_path / "store"), *flags])
    err = capsys.readouterr().err
    assert code != 0 and err.startswith("error SynthError: ") and match in err
    assert not (tmp_path / "store").exists()


def test_synth_generate_negative_sizes_are_a_synth_error(tmp_path, capsys):
    code = cli.main(["synth", "generate", "--langs", "sy1,sy2", "--n-parallel", "-5",
                     "--n-mono", "-2", "--dev", "-1", "--test", "-3",
                     "--out", str(tmp_path / "store")])
    err = capsys.readouterr().err
    assert code != 0 and err.startswith("error SynthError: ") and err.count("\n") == 1
    assert not (tmp_path / "store").exists()


def _store_and_tokenizer(tmp_path):
    store, tok = tmp_path / "store", tmp_path / "tok" / "tokenizer.txt"
    tok.parent.mkdir()
    assert cli.main([
        "synth", "generate", "--langs", "sy1,sy2", "--n-parallel", "12", "--n-mono", "6",
        "--len-range", "2,4", "--concept-vocab", "20", "--dev", "2", "--test", "2",
        "--out", str(store),
    ]) == 0
    assert cli.main([
        "tokenizer", "train", "--store", str(store), "--vocab-size", "300", "--out", str(tok),
    ]) == 0
    return store, tok


_TINY_RUN = ["languages=sy1,sy2", "bt.num_bt=2", "bt.start_epoch=1", "rec.num_rec=2",
             "batch_size_sentences=8", "eval_every_steps=2", "model.d_model=16",
             "model.n_heads=2", "model.n_enc_layers=1", "model.n_dec_layers=1",
             "model.d_ff=24", "model.max_positions=24"]


def test_vocab_size_other_than_the_tokenizers_is_config_error(tmp_path, capsys):
    store, tok = _store_and_tokenizer(tmp_path)
    run_dir = tmp_path / "run"
    sets = [*_TINY_RUN, "model.vocab_size=100"]
    assert cli.main([
        "train", "--store", str(store), "--tokenizer", str(tok), "--out", str(run_dir),
        *[arg for kv in sets for arg in ("--set", kv)],
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error ConfigError: ") and "vocab_size 100" in err
    assert not (run_dir / "runlog.jsonl").exists() and not (run_dir / "run.ckpt").exists()


def test_train_then_translate_from_run_dir(tmp_path):
    store, tok = _store_and_tokenizer(tmp_path)
    run_dir, out_dir = tmp_path / "run", tmp_path / "out"
    sets = ["setting=btrec", "epochs=2", *_TINY_RUN]
    assert cli.main([
        "train", "--store", str(store), "--tokenizer", str(tok), "--out", str(run_dir),
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
    for out in (run_dir, out_dir / "out.txt"):
        manifest = _manifest(out)
        listed = [*manifest["inputs"], *manifest["outputs"]]
        assert listed and all(os.path.exists(p) for p in listed)
    train_manifest = _manifest(run_dir)
    assert sorted(train_manifest["outputs"]) == sorted(
        str(run_dir / n) for n in harness.RUN_FILES
    )


def _manifest(out):
    """The manifest of an output directory or of a single output file."""
    path = out / "manifest.json" if out.is_dir() else Path(f"{out}.manifest.json")
    return json.loads(path.read_text(encoding="utf-8"))


def test_single_file_outputs_keep_the_directory_manifest(tmp_path, model_dir):
    store = tmp_path / "store"
    assert cli.main([
        "synth", "generate", "--langs", "sy1,sy2", "--n-parallel", "12", "--n-mono", "6",
        "--len-range", "2,4", "--concept-vocab", "20", "--out", str(store),
    ]) == 0
    tok = store / "tokenizer.txt"
    assert cli.main([
        "tokenizer", "train", "--store", str(store), "--vocab-size", "300", "--out", str(tok),
    ]) == 0
    src = tmp_path / "in.txt"
    src.write_text("a b c\n", encoding="utf-8")
    out = store / "out.txt"
    assert cli.main([
        "translate", "--model", str(model_dir), "--input", str(src), "--output", str(out),
        "--target-lang", "sy2", "--max-new-tokens", "3",
    ]) == 0
    assert _manifest(store)["command"] == "synth generate"
    assert _manifest(tok)["outputs"] == {str(tok): reports.file_sha256(tok)}
    assert _manifest(out)["command"] == "translate"


def test_manifests_record_every_parsed_argument(tmp_path, model_dir, readable_inputs):
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("a b c\n", encoding="utf-8")
    assert cli.main([
        "translate", "--model", str(model_dir), "--input", str(src), "--output", str(out),
        "--target-lang", "sy2", "--mode", "sample", "--temperature", "0.7",
        "--max-new-tokens", "3",
    ]) == 0
    manifest = _manifest(out)
    assert manifest["arguments"] == {
        "model": str(model_dir), "input": str(src), "output": str(out), "target_lang": "sy2",
        "mode": "sample", "temperature": 0.7, "beam_size": 4, "max_new_tokens": 3, "seed": 13,
    }
    assert (manifest["command"], manifest["config"], manifest["seed"]) == ("translate", None, 13)
    # train and compare also record the resolved config, whose seed is the run's
    run = _manifest(readable_inputs / "run")
    assert run["arguments"]["config"] == str(readable_inputs / "config.txt")
    assert run["arguments"]["seed"] is None and "config_file" not in run
    assert (run["config"]["setting"], run["config"]["epochs"]) == ("bt_rec", 1)
    assert run["seed"] == run["config"]["seed"] == 13
    d = tmp_path / "inputs"
    shutil.copytree(readable_inputs, d)
    assert cli.main(["compare", "--store", str(d / "store"), "--tokenizer",
                     str(d / "tokenizer.txt"), "--config", str(d / "config.txt"), "--seed", "5",
                     "--out", str(d / "cmp")]) == 0
    compare = _manifest(d / "cmp")
    assert compare["command"] == "compare" and compare["arguments"]["seed"] == 5
    assert compare["seed"] == compare["config"]["seed"] == 5


@pytest.mark.parametrize("langs, tags", [("sy1, sy2", ["sy1", "sy2"]), ("SY1,x", None)],
                         ids=["spaces", "bad-codes"])
def test_tokenizer_langs_are_checked_codes(tmp_path, readable_inputs, capsys, langs, tags):
    out = tmp_path / "tok.txt"
    code = cli.main(["tokenizer", "train", "--store", str(readable_inputs / "store"),
                     "--vocab-size", "300", "--langs", langs, "--out", str(out)])
    if tags is None:
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error FormatError: ") and err.count("\n") == 1
    else:
        assert code == 0 and SubwordModel.load(out).lang_tags == tags


def test_data_jsonl_without_dedup_and_unstratified_split(tmp_path, capsys):
    # 9 well-formed pairs in two domains, one an exact duplicate, and one malformed line
    records = [{"src": f"a{i} b{i} c", "tgt": f"c b{i} a{i}", "domain": d}
               for i, d in enumerate(["news"] * 5 + ["bible"] * 3)]
    lines = [json.dumps(r) for r in records + records[:1]] + ["{not json"]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    prepared, split = tmp_path / "prepared", tmp_path / "split"
    assert cli.main(["data", "prepare", "--parallel", f"sy1-sy2={pairs}", "--format", "jsonl",
                     "--no-dedup", "--out", str(prepared)]) == 0
    assert "parallel: kept 9 of 9 (malformed lines: 1)" in capsys.readouterr().out
    report = (prepared / "clean_report.csv").read_text(encoding="utf-8").splitlines()
    assert {"parallel,kept,9", "parallel,duplicate,0"} <= set(report)
    with (prepared / "parallel.jsonl").open(encoding="utf-8") as f:
        stored = [json.loads(line) for line in f]
    assert sorted(r["domain"] for r in stored) == ["bible"] * 3 + ["news"] * 6
    assert cli.main(["data", "split", "--store", str(prepared), "--dev", "3", "--test", "2",
                     "--no-stratify", "--out", str(split)]) == 0
    assert capsys.readouterr().out.split() == ["train=4", "dev=3", "test=2"]
    with (split / "parallel.jsonl").open(encoding="utf-8") as f:
        labels = [json.loads(line)["split"] for line in f]
    assert (labels.count("dev"), labels.count("test")) == (3, 2)
    assert _manifest(split)["arguments"]["no_stratify"] is True


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
         store, [store / n for n in ("parallel.jsonl", "mono.jsonl", "synth_specs.json")], 13),
        (["data", "split", "--store", str(store), "--dev", "2", "--test", "2", "--out", str(split)],
         split, [split / "parallel.jsonl", split / "mono.jsonl"], 13),
        (["data", "stats", "--store", str(split), "--out", str(stats)],
         stats, [stats / "direction_counts.csv"], None),
        (["tokenizer", "train", "--store", str(split), "--vocab-size", "300", "--out", str(tok)],
         tok, [tok], None),
        (["data", "prepare", "--parallel", f"sy1-sy2={pairs}", "--mono", f"sy1={mono}",
          "--out", str(prepared)],
         prepared, [prepared / n for n in ("parallel.jsonl", "mono.jsonl", "clean_report.csv")],
         None),
    ]
    for argv, out, outputs, seed in steps:
        assert cli.main(argv) == 0, argv
        manifest = _manifest(out)
        assert manifest["command"] == " ".join(argv[:2])
        assert manifest["seed"] == seed
        assert all(p.is_file() for p in outputs)
        assert set(manifest["outputs"]) == {str(p) for p in outputs}
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


# ---------------------------------------------------------------------------
# corrupt inputs: every file a command reads, each corruption that file's
# format can hold, ends in exit 1 or 2 and one ``error <Class>:`` line
# ---------------------------------------------------------------------------

def _cut(data):
    return data[: len(data) // 2]


def _not_utf8(data):
    return b"\xff" + data


def _first_record(edit):
    """Corrupt the first record of a jsonl file; ``edit`` maps it to a new line."""
    def corrupt(data):
        first, _, rest = data.partition(b"\n")
        return edit(json.loads(first)).encode("utf-8") + b"\n" + rest
    return corrupt


def _meta(key, edit):
    """Corrupt the ``meta <key>=`` header line of a checkpoint; ``edit`` maps its
    value to the line's new text, or to None to drop the line."""
    def corrupt(data):
        head, sep, rest = data.partition(b"\n\n")
        lines = []
        for line in head.decode("utf-8").split("\n"):
            if line.startswith(f"meta {key}="):
                line = edit(json.loads(line.partition("=")[2]))
                if line is None:
                    continue
                line = f"meta {key}={line}"
            lines.append(line)
        return "\n".join(lines).encode("utf-8") + sep + rest
    return corrupt


def _json_edit(edit):
    return lambda data: json.dumps(edit(json.loads(data))).encode("utf-8")


def _set(obj, path, value):
    """A copy of nested dict ``obj`` with ``path``'s entry set to ``value``."""
    head, *tail = path
    return {**obj, head: _set(obj[head], tail, value) if tail else value}


def _lines(edit):
    return lambda data: edit(data.decode("utf-8").split("\n")).encode("utf-8")


_STORE = {
    "truncated": _cut,
    "not_utf8": _not_utf8,
    "not_object": _first_record(lambda rec: "[1, 2]"),
    "null_field": _first_record(lambda rec: json.dumps({**rec, "split": None})),
    "wrong_type": _first_record(lambda rec: json.dumps({**rec, "domain": 5})),
}
_CHECKPOINT = {
    "truncated": _cut,
    "not_utf8": _not_utf8,
    "not_object": _meta("config", lambda c: "[1, 2]"),
    "null_field": _meta("config", lambda c: json.dumps({**c, "d_model": None})),
    "wrong_type": _meta("config", lambda c: '"config"'),
}
_RUN_CHECKPOINT = {
    **_CHECKPOINT,
    "not_object": _meta("trainer", lambda t: "[1, 2]"),
    "null_field": _meta("trainer", lambda t: json.dumps({**t, "best_dev": None})),
    "wrong_type": _meta("trainer", lambda t: json.dumps({**t, "opt_step": "3"})),
    "no_trainer": _meta("trainer", lambda t: None),
}
_CORRUPTIONS = {
    "parallel.jsonl": _STORE,
    "mono.jsonl": _STORE,
    "tokenizer.txt": {
        "truncated": _cut,
        "not_utf8": _not_utf8,
        "wrong_type": _lines(lambda ls: "\n".join([ls[0], "vocab_size\tmany", *ls[2:]])),
    },
    "config.txt": {  # its second line is "epochs = 1"
        "truncated": _lines(lambda ls: "\n".join(ls[:-2] + [ls[-2][:5]])),  # cut in a key
        "not_utf8": _not_utf8,
        "null_field": _lines(lambda ls: "\n".join([ls[0], "epochs =", *ls[2:]])),
        "wrong_type": _lines(lambda ls: "\n".join([ls[0], "epochs = one", *ls[2:]])),
    },
    "run.ckpt": _RUN_CHECKPOINT,
    # resume also reads the run log and the experiment config
    "resumed run.ckpt": {
        **_RUN_CHECKPOINT,
        "run_log": _meta("run_log", lambda entries: '{"type": "start"}'),
        "experiment": _meta("experiment", lambda e: json.dumps({**e, "bt": 5})),
    },
    "params.ckpt": _CHECKPOINT,
    "comparison.json": {
        "truncated": _cut,
        "not_utf8": _not_utf8,
        "not_object": lambda data: b"[1, 2]",
        "null_field": _json_edit(lambda c: _set(c, ["reports", "BASE|sy1-sy2", "spBLEU"], None)),
        "wrong_type": _json_edit(lambda c: _set(c, ["directions"], "sy1-sy2")),
    },
    # any text is input to translate; a test file's or a prepared file's
    # malformed lines are counted, not fatal
    "input.txt": {"not_utf8": _not_utf8},
    "test.tsv": {"not_utf8": _not_utf8},
    "pairs.tsv": {"not_utf8": _not_utf8},
}


@pytest.fixture(scope="module")
def readable_inputs(tmp_path_factory):
    """A directory holding one valid file of every kind a command reads."""
    root = tmp_path_factory.mktemp("inputs")
    assert cli.main([
        "synth", "generate", "--langs", "sy1,sy2", "--n-parallel", "12", "--n-mono", "6",
        "--len-range", "2,4", "--concept-vocab", "20", "--dev", "2", "--test", "2",
        "--out", str(root / "store"),
    ]) == 0
    assert cli.main(["tokenizer", "train", "--store", str(root / "store"), "--vocab-size", "300",
                     "--out", str(root / "tokenizer.txt")]) == 0
    (root / "config.txt").write_text(
        "\n".join(["setting = btrec", "epochs = 1", *(kv.replace("=", " = ") for kv in _TINY_RUN)])
        + "\n", encoding="utf-8")
    assert cli.main(["train", "--store", str(root / "store"), "--tokenizer",
                     str(root / "tokenizer.txt"), "--config", str(root / "config.txt"),
                     "--out", str(root / "run")]) == 0
    params, _ = ckpt.load_params(BASE_MODEL_DIR / "params.ckpt")
    (root / "model").mkdir()
    ckpt.save_params(root / "model" / "params.ckpt", params)
    SubwordModel.load(BASE_MODEL_DIR / "tokenizer.txt").save(root / "model" / "tokenizer.txt")
    table = harness.ComparisonTable(["sy1-sy2"], ["BASE"], {
        ("BASE", "sy1-sy2"): EvalReport("sy1-sy2", 2, 10.0, 20.0, 30.0)})
    (root / "comparison.json").write_text(table.to_json(), encoding="utf-8")
    (root / "input.txt").write_text("ka1 ka2\n", encoding="utf-8")
    (root / "test.tsv").write_text("ka1 ka2\tbu1 bu2\n", encoding="utf-8")
    (root / "pairs.tsv").write_text("ka1 ka2\tbu1 bu2\n", encoding="utf-8")
    return root


def _commands(d):
    """(command name, argv, {file name: its path in ``d``}) of each command."""
    store = {n: d / "store" / n for n in ("parallel.jsonl", "mono.jsonl")}
    run_inputs = {**store, "tokenizer.txt": d / "tokenizer.txt", "config.txt": d / "config.txt"}
    run_args = ["--store", str(d / "store"), "--tokenizer", str(d / "tokenizer.txt"),
                "--config", str(d / "config.txt")]
    model = {"run.ckpt": d / "run" / "run.ckpt", "tokenizer.txt": d / "run" / "tokenizer.txt"}
    return [
        ("data-stats", ["data", "stats", "--store", str(d / "store")], store),
        ("data-split", ["data", "split", "--store", str(d / "store"), "--dev", "1", "--test", "1",
                        "--out", str(d / "split")], store),
        ("tokenizer-train", ["tokenizer", "train", "--store", str(d / "store"),
                             "--vocab-size", "300", "--out", str(d / "tok.txt")], store),
        ("train", ["train", *run_args, "--out", str(d / "new")], run_inputs),
        ("resume", ["train", *run_args, "--out", str(d / "run"), "--resume"],
         {"resumed run.ckpt": d / "run" / "run.ckpt"}),
        ("compare", ["compare", *run_args, "--out", str(d / "cmp")], run_inputs),
        ("translate", ["translate", "--model", str(d / "run"), "--input", str(d / "input.txt"),
                       "--output", str(d / "out.txt"), "--target-lang", "sy2"],
         {**model, "input.txt": d / "input.txt"}),
        ("translate-model", ["translate", "--model", str(d / "model"), "--input",
                             str(d / "input.txt"), "--output", str(d / "out.txt"),
                             "--target-lang", "sy2"],
         {"params.ckpt": d / "model" / "params.ckpt",
          "tokenizer.txt": d / "model" / "tokenizer.txt"}),
        ("evaluate", ["evaluate", "--model", str(d / "run"), "--test", str(d / "test.tsv"),
                      "--direction", "sy1-sy2", "--out", str(d / "eval")],
         {**model, "test.tsv": d / "test.tsv"}),
        ("report", ["report", "--comparison", str(d / "comparison.json"), "--out", str(d / "rep")],
         {"comparison.json": d / "comparison.json"}),
        ("data-prepare", ["data", "prepare", "--parallel", f"sy1-sy2={d / 'pairs.tsv'}",
                          "--out", str(d / "prep")], {"pairs.tsv": d / "pairs.tsv"}),
    ]


_SWEEP = [(command, name, kind) for command, _, files in _commands(Path("."))
          for name in files for kind in _CORRUPTIONS[name]]


@pytest.mark.parametrize("command, name, kind", _SWEEP,
                         ids=[f"{c}-{n}-{k}" for c, n, k in _SWEEP])
def test_corrupt_input_is_one_line_error(tmp_path, readable_inputs, capsys, command, name, kind):
    d = tmp_path / "inputs"
    shutil.copytree(readable_inputs, d)
    argv, files = next((argv, files) for c, argv, files in _commands(d) if c == command)
    path = files[name]
    path.write_bytes(_CORRUPTIONS[name][kind](path.read_bytes()))
    capsys.readouterr()
    assert cli.main(argv) in (1, 2)
    err = capsys.readouterr().err
    assert re.fullmatch(r"error [A-Za-z]+Error: [^\n]*\n", err), err
