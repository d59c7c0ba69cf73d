"""Command-line entry point.

Commands: data prepare|stats|split, tokenizer train, train, translate,
evaluate, synth generate, compare, report. The commands that draw random
numbers (data split, translate, synth generate, train, compare) seed them
all from --seed (default 13); every command writes a manifest next to its
outputs. train and compare take their experiment config from --preset,
--config and repeated --set KEY=VALUE (see ``config``) and check it before
any store loads. Exit codes: 0 success, 2 usage/config error, 1 runtime failure
(with a one-line ``error <ErrorClass>: <message>`` on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from . import config as C
from . import corpus, decoding, harness, metrics, reports, synth
from . import model as M
from . import tokenizer as tok_mod
from .errors import ConfigError, FormatError, MTLabError

DEFAULT_SEED = 13


def _parse_kv_list(items, what):
    out = []
    for item in items or ():
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise ConfigError(f"--{what} expects KEY=PATH, got {item!r}")
        out.append((key, value))
    return out


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not valid UTF-8: {exc}") from None


def _load_store_dir(path):
    if not os.path.isdir(path):
        raise FormatError(f"store directory {path!r} does not exist")
    return corpus.load_stores(path)


# ---------------------------------------------------------------------------
# data commands
# ---------------------------------------------------------------------------

def cmd_data_prepare(args):
    cleaning = corpus.CleaningConfig(
        max_len=args.max_len, min_len=args.min_len, dedup=not args.no_dedup
    )
    parallel = corpus.ParallelStore()
    inputs = []
    for key, path in _parse_kv_list(args.parallel, "parallel"):
        direction = corpus.Direction.parse(key)
        parallel = parallel.merge(corpus.load_parallel(path, direction, args.format))
        inputs.append(path)
    mono = corpus.MonoStore()
    for key, path in _parse_kv_list(args.mono, "mono"):
        mono = mono.merge(corpus.load_mono(path, corpus.LangTag(key)))
        inputs.append(path)
    if not parallel.pairs and not mono.sentences:
        raise ConfigError("nothing to prepare: pass --parallel and/or --mono")
    parallel, p_report = corpus.clean(parallel, cleaning)
    mono, m_report = corpus.clean(mono, cleaning)
    os.makedirs(args.out, exist_ok=True)
    corpus.save_stores(args.out, parallel, mono)
    with open(os.path.join(args.out, "clean_report.csv"), "w", encoding="utf-8") as f:
        f.write("store,reason,count\n")
        for name, rep in (("parallel", p_report), ("mono", m_report)):
            for line in rep.to_csv().splitlines()[1:]:
                f.write(f"{name},{line}\n")
    print(f"parallel: kept {p_report.kept} of {p_report.input_count} "
          f"(malformed lines: {parallel.malformed})")
    print(f"mono:     kept {m_report.kept} of {m_report.input_count}")
    outputs = [os.path.join(args.out, n) for n in (*corpus.STORE_FILES, "clean_report.csv")]
    reports.write_manifest(
        args.out, "data prepare", None,
        {"cleaning": asdict(cleaning), "format": args.format},
        inputs=inputs, outputs=outputs,
    )
    return 0


def cmd_data_stats(args):
    parallel, mono = _load_store_dir(args.store)
    table = corpus.stats(parallel)
    print(table.to_text())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "direction_counts.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(table.to_csv())
        reports.write_manifest(args.out, "data stats", None, {}, outputs=[path])
    return 0


def cmd_data_split(args):
    parallel, mono = _load_store_dir(args.store)
    spec = corpus.SplitSpec(
        dev_per_direction=args.dev,
        test_per_direction=args.test,
        seed=args.seed,
        stratify_by_domain=not args.no_stratify,
    )
    parallel = corpus.split(parallel, spec)
    os.makedirs(args.out, exist_ok=True)
    corpus.save_stores(args.out, parallel, mono)
    counts = {s: sum(1 for p in parallel.pairs if p.split == s) for s in corpus.SPLITS}
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    reports.write_manifest(
        args.out, "data split", args.seed, {"spec": asdict(spec)},
        inputs=[os.path.join(args.store, n) for n in corpus.STORE_FILES],
        outputs=[os.path.join(args.out, n) for n in corpus.STORE_FILES],
    )
    return 0


# ---------------------------------------------------------------------------
# tokenizer / training / inference
# ---------------------------------------------------------------------------

def cmd_tokenizer_train(args):
    parallel, mono = _load_store_dir(args.store)
    langs = args.langs.split(",") if args.langs else [
        l.code for l in sorted(set(parallel.languages()) | set(mono.languages()))
    ]
    texts = []
    for p in parallel.pairs:
        if p.split == "train":
            texts.append(p.src_text)
            texts.append(p.tgt_text)
    texts.extend(s.text for s in mono.sentences if s.split == "train")
    model = tok_mod.train_subword([texts], args.vocab_size, langs)
    model.save(args.out)
    print(f"vocab {model.vocab_size} ({len(model.merges)} merges), sha256 {model.hash()[:16]}")
    reports.write_manifest(
        os.path.dirname(os.path.abspath(args.out)) or ".",
        "tokenizer train", None,
        {"vocab_size": args.vocab_size, "langs": langs},
        outputs=[args.out],
    )
    return 0


def _resolve_config(args):
    values = C.parse_config_file(args.config) if args.config else {}
    overrides = {}
    for item in args.set or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return C.build_experiment_config(values, preset=args.preset, overrides=overrides)


def cmd_train(args):
    config = _resolve_config(args)
    parallel, mono = _load_store_dir(args.store)
    tokenizer = tok_mod.SubwordModel.load(args.tokenizer)
    os.makedirs(args.out, exist_ok=True)
    params, run_log = harness.run_experiment(
        config,
        parallel,
        mono,
        tokenizer,
        checkpoint_dir=args.out,
        resume=args.resume,
    )
    finish = run_log.entries_of("finish")[-1]
    print(
        f"trained {finish['epochs']} epochs, {finish['steps']} steps, "
        f"best dev loss {finish['best_dev']}"
    )
    reports.write_manifest(
        args.out, "train", config.seed, harness._config_dict(config),
        inputs=[args.tokenizer], config_path=args.config,
        outputs=[os.path.join(args.out, n) for n in harness.RUN_FILES],
    )
    return 0


def cmd_translate(args):
    params, tokenizer, params_path = harness.load_model(args.model)
    tokenizer.require_tags([args.target_lang])
    config = decoding.DecodeConfig(
        mode=args.mode, temperature=args.temperature, beam_size=args.beam_size,
        max_new_tokens=args.max_new_tokens,
    )
    lines = _read_text(args.input).split("\n")
    if lines[-1] == "":
        lines.pop()  # a final newline ends the last line; it starts no new one
    # Blank lines are not decoded; they stay blank so output line N matches input line N.
    nonblank = [i for i, line in enumerate(lines) if line.strip()]
    tag = corpus.LangTag(args.target_lang).surface
    inputs = [f"{tag} {lines[i]}" for i in nonblank]
    results = decoding.generate_batch(params, tokenizer, inputs, config, seed=args.seed)
    outputs = [""] * len(lines)
    for i, r in zip(nonblank, results):
        outputs[i] = r.text
    with open(args.output, "w", encoding="utf-8") as f:
        for text in outputs:
            f.write(text + "\n")
    failures = sum(1 for r in results if r.error)
    truncated = sum(1 for r in results if r.truncated)
    print(
        f"translated {len(results) - failures} of {len(results)} lines, "
        f"{truncated} truncated -> {args.output}"
    )
    reports.write_manifest(
        os.path.dirname(os.path.abspath(args.output)) or ".",
        "translate", args.seed,
        {"mode": args.mode, "target_lang": args.target_lang},
        inputs=[args.input, params_path], outputs=[args.output],
    )
    return 0


def cmd_evaluate(args):
    params, tokenizer, params_path = harness.load_model(args.model)
    direction = corpus.Direction.parse(args.direction)
    tokenizer.require_tags([direction.tgt.code])
    store = corpus.load_parallel(args.test, direction, args.format)
    report = metrics.evaluate_direction(params, tokenizer, list(store.pairs))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as f:
        f.write(report.to_json() + "\n")
    with open(os.path.join(args.out, "report.csv"), "w", encoding="utf-8") as f:
        f.write(metrics.report_csv([report]))
    print(
        f"{report.to_text()}  decode_errors {report.metadata['decode_errors']}  "
        f"truncated {report.metadata['truncated']}  "
        f"distinct_hypotheses {report.metadata['distinct_hypotheses']}"
    )
    reports.write_manifest(
        args.out, "evaluate", None, {"direction": direction.key},
        inputs=[args.test, params_path],
        outputs=[os.path.join(args.out, "report.json"), os.path.join(args.out, "report.csv")],
    )
    return 0


# ---------------------------------------------------------------------------
# synthetic bench
# ---------------------------------------------------------------------------

_PREFIX_POOL = ("ka", "bu", "zo", "fe", "mi", "ra", "tu", "ny", "we", "olo")


def cmd_synth_generate(args):
    codes = [c.strip() for c in args.langs.split(",") if c.strip()]
    if len(codes) < 2:
        raise ConfigError("need at least two --langs")
    rules = (
        [r.strip() for r in args.rules.split(",")] if args.rules else ["identity"] * len(codes)
    )
    if len(rules) != len(codes):
        raise ConfigError(f"{len(rules)} rules for {len(codes)} languages")
    prefixes = (
        [p.strip() for p in args.prefixes.split(",")]
        if args.prefixes
        else list(_PREFIX_POOL[: len(codes)])
    )
    if len(prefixes) != len(codes):
        raise ConfigError(f"{len(prefixes)} prefixes for {len(codes)} languages")
    try:
        lo, hi = (int(x) for x in args.len_range.split(","))
    except ValueError:
        raise ConfigError(f"--len-range expects MIN,MAX, got {args.len_range!r}") from None
    specs = [
        synth.SyntheticLangSpec(
            code=code,
            lexicon_seed=args.seed * 1000 + i,
            surface_prefix=prefixes[i],
            reorder_rule=rules[i],
            concept_vocab_size=args.concept_vocab,
        )
        for i, code in enumerate(codes)
    ]
    low = [c.strip() for c in args.low_resource.split(",")] if args.low_resource else []
    parallel, mono, _truth = synth.gen_synthetic(
        specs,
        n_parallel_per_direction=args.n_parallel,
        n_mono_per_lang=args.n_mono,
        sentence_len_range=(lo, hi),
        seed=args.seed,
        low_resource=low,
        low_resource_factor=args.low_resource_factor,
        n_dev_per_direction=args.dev,
        n_test_per_direction=args.test,
    )
    os.makedirs(args.out, exist_ok=True)
    corpus.save_stores(args.out, parallel, mono)
    synth.save_specs(os.path.join(args.out, "synth_specs.json"), specs)
    print(
        f"generated {len(parallel)} parallel pairs, {len(mono)} monolingual "
        f"sentences for {len(codes)} languages"
    )
    reports.write_manifest(
        args.out, "synth generate", args.seed,
        {"langs": codes, "low_resource": low, "n_parallel": args.n_parallel,
         "n_mono": args.n_mono, "len_range": [lo, hi],
         "low_resource_factor": args.low_resource_factor,
         "dev": args.dev, "test": args.test},
        outputs=[os.path.join(args.out, n)
                 for n in (*corpus.STORE_FILES, "synth_specs.json")],
    )
    return 0


def cmd_compare(args):
    config = _resolve_config(args)
    parallel, mono = _load_store_dir(args.store)
    tokenizer = tok_mod.SubwordModel.load(args.tokenizer)
    os.makedirs(args.out, exist_ok=True)
    table = harness.compare_settings(config, parallel, mono, tokenizer, args.out)
    print(table.to_text())
    reports.write_manifest(
        args.out, "compare", config.seed, harness._config_dict(config),
        inputs=[args.tokenizer], config_path=args.config,
        outputs=[os.path.join(args.out, "comparison.csv"),
                 os.path.join(args.out, "comparison.json")],
    )
    return 0


def cmd_report(args):
    try:
        table = harness.ComparisonTable.from_json(_read_text(args.comparison))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{args.comparison} is not a comparison table: {exc!r}") from None
    os.makedirs(args.out, exist_ok=True)
    text = table.to_text()
    print(text)
    with open(os.path.join(args.out, "comparison.txt"), "w", encoding="utf-8") as f:
        f.write(text + "\n")
    svg = reports.bar_chart_svg(table.directions, table.settings, table.score)
    with open(os.path.join(args.out, "comparison.svg"), "w", encoding="utf-8") as f:
        f.write(svg)
    with open(os.path.join(args.out, "comparison.csv"), "w", encoding="utf-8") as f:
        f.write(table.to_csv())
    reports.write_manifest(
        args.out, "report", None, {},
        inputs=[args.comparison],
        outputs=[os.path.join(args.out, n)
                 for n in ("comparison.txt", "comparison.svg", "comparison.csv")],
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlab",
        description="Desk-scale many-to-many multilingual translation laboratory.",
    )
    parser.add_argument("--version", action="version", version=f"mtlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    data = sub.add_parser("data", help="corpus ingestion and bookkeeping")
    data_sub = data.add_subparsers(dest="data_command", required=True)

    p = data_sub.add_parser("prepare", help="load, clean, and store corpora")
    p.add_argument("--parallel", action="append", metavar="SRC-TGT=PATH")
    p.add_argument("--mono", action="append", metavar="LANG=PATH")
    p.add_argument("--format", choices=("tsv2", "jsonl"), default="tsv2")
    p.add_argument("--max-len", type=int, default=50)
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--no-dedup", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_data_prepare)

    p = data_sub.add_parser("stats", help="per-direction count table")
    p.add_argument("--store", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_data_stats)

    p = data_sub.add_parser("split", help="assign train/dev/test labels")
    p.add_argument("--store", required=True)
    p.add_argument("--dev", type=int, required=True)
    p.add_argument("--test", type=int, required=True)
    p.add_argument("--no-stratify", action="store_true")
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_data_split)

    tok = sub.add_parser("tokenizer", help="subword model")
    tok_sub = tok.add_subparsers(dest="tokenizer_command", required=True)
    p = tok_sub.add_parser("train", help="train the shared subword model")
    p.add_argument("--store", required=True)
    p.add_argument("--vocab-size", type=int, default=4096)
    p.add_argument("--langs", help="comma-separated codes; default: languages in the store")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tokenizer_train)

    p = sub.add_parser("train", help="run one finetuning setting")
    p.add_argument("--config")
    p.add_argument("--preset", choices=sorted(C.PRESETS))
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key")
    p.add_argument("--store", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="translate a file of sentences")
    p.add_argument("--model", required=True, help="run directory with checkpoints")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--target-lang", required=True)
    p.add_argument("--mode", choices=("greedy", "sample", "beam"), default="greedy")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--beam-size", type=int, default=4)
    p.add_argument("--max-new-tokens", type=int, default=50)
    add_seed(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="score a model on a test file")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--direction", required=True, metavar="SRC-TGT")
    p.add_argument("--format", choices=("tsv2", "jsonl"), default="tsv2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    synth_p = sub.add_parser("synth", help="synthetic-language bench")
    synth_sub = synth_p.add_subparsers(dest="synth_command", required=True)
    p = synth_sub.add_parser("generate", help="generate synthetic stores")
    p.add_argument("--langs", required=True, help="comma-separated codes, e.g. sy1,sy2")
    p.add_argument("--low-resource", help="codes whose parallel data is scaled down")
    p.add_argument("--low-resource-factor", type=float, default=0.05)
    p.add_argument("--n-parallel", type=int, default=500)
    p.add_argument("--n-mono", type=int, default=1000)
    p.add_argument("--len-range", default="3,9")
    p.add_argument("--concept-vocab", type=int, default=200)
    p.add_argument("--rules", help="comma-separated reorder rules per language")
    p.add_argument("--prefixes", help="comma-separated surface prefixes per language")
    p.add_argument("--dev", type=int, default=8)
    p.add_argument("--test", type=int, default=30)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_synth_generate)

    p = sub.add_parser("compare", help="run BASE, BT, BT&REC and tabulate")
    p.add_argument("--config")
    p.add_argument("--preset", choices=sorted(C.PRESETS))
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--store", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="render serialized comparison artifacts")
    p.add_argument("--comparison", required=True, help="comparison.json from compare")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except ConfigError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (MTLabError, OSError) as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
