"""Command-line entry point.

Commands: data prepare|stats|split, tokenizer train, train, translate,
evaluate, synth generate, compare, report. The commands that draw random
numbers (data split, translate, synth generate, train, compare) seed them
all from --seed (default 13). train and compare take their experiment
config from --preset, --config and repeated --set KEY=VALUE (see
``config``) and check it before any store loads. Exit codes: 0 success,
2 usage/config error, 1 runtime failure (with a one-line
``error <ErrorClass>: <message>`` on stderr).

Each command returns the files it read and wrote, and ``main`` writes the
manifest of a successful command next to its outputs: ``manifest.json`` in
an output directory, ``<file>.manifest.json`` beside a single output file
(tokenizer train, translate), none for data stats without --out. It holds
the command, every parsed argument (``arguments``, e.g. ``max_new_tokens``
for --max-new-tokens), the resolved experiment config of train and compare
(``config``, null otherwise), the seed the command drew from (the
config's, else --seed's, else null), the time, and the sha256 of each file
read and written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import config as C
from . import corpus, decoding, harness, metrics, reports, synth
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


def _comma_list(text):
    """The stripped, non-empty items of a comma-separated flag value."""
    return [item.strip() for item in text.split(",") if item.strip()]


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


def _store_files(path):
    return [os.path.join(path, name) for name in corpus.STORE_FILES]


# ---------------------------------------------------------------------------
# data commands
# ---------------------------------------------------------------------------

def cmd_data_prepare(args):
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
    cleaning = dict(max_len=args.max_len, min_len=args.min_len, dedup=not args.no_dedup)
    parallel, p_report = corpus.clean(parallel, **cleaning)
    mono, m_report = corpus.clean(mono, **cleaning)
    corpus.save_stores(args.out, parallel, mono)
    with open(os.path.join(args.out, "clean_report.csv"), "w", encoding="utf-8") as f:
        f.write("store,reason,count\n")
        for name, rep in (("parallel", p_report), ("mono", m_report)):
            for reason, count in rep.rows():
                f.write(f"{name},{reason},{count}\n")
    print(f"parallel: kept {p_report.kept} of {p_report.input_count} "
          f"(malformed lines: {parallel.malformed})")
    print(f"mono:     kept {m_report.kept} of {m_report.input_count}")
    return inputs, [*_store_files(args.out), os.path.join(args.out, "clean_report.csv")]


def cmd_data_stats(args):
    parallel, mono = _load_store_dir(args.store)
    table = corpus.stats(parallel)
    print(table.to_text())
    if not args.out:
        return _store_files(args.store), []
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "direction_counts.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write(table.to_csv())
    return _store_files(args.store), [path]


def cmd_data_split(args):
    parallel, mono = _load_store_dir(args.store)
    parallel = corpus.split(parallel, dev_per_direction=args.dev, test_per_direction=args.test,
                            seed=args.seed, stratify_by_domain=not args.no_stratify)
    corpus.save_stores(args.out, parallel, mono)
    counts = {s: sum(1 for p in parallel.pairs if p.split == s) for s in corpus.SPLITS}
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    return _store_files(args.store), _store_files(args.out)


# ---------------------------------------------------------------------------
# tokenizer / training / inference
# ---------------------------------------------------------------------------

def cmd_tokenizer_train(args):
    parallel, mono = _load_store_dir(args.store)
    if args.langs:
        langs = [corpus.LangTag(code).code for code in args.langs]
    else:
        langs = [l.code for l in sorted(set(parallel.languages()) | set(mono.languages()))]
    texts = []
    for p in parallel.pairs:
        if p.split == "train":
            texts.append(p.src_text)
            texts.append(p.tgt_text)
    texts.extend(s.text for s in mono.sentences if s.split == "train")
    model = tok_mod.train_subword([texts], args.vocab_size, langs)
    model.save(args.out)
    print(f"vocab {model.vocab_size} ({len(model.merges)} merges), sha256 {model.hash()[:16]}")
    return _store_files(args.store), [args.out]


def _experiment(args):
    """(config, parallel, mono, tokenizer, files read) of train and compare. The
    config is resolved and checked before any store loads."""
    values = C.parse_config_file(args.config) if args.config else {}
    overrides = {}
    for item in args.set or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    config = C.build_experiment_config(values, preset=args.preset, overrides=overrides)
    parallel, mono = _load_store_dir(args.store)
    tokenizer = tok_mod.SubwordModel.load(args.tokenizer)
    os.makedirs(args.out, exist_ok=True)
    inputs = [p for p in (args.config, args.tokenizer) if p] + _store_files(args.store)
    return config, parallel, mono, tokenizer, inputs


def cmd_train(args):
    config, parallel, mono, tokenizer, inputs = _experiment(args)
    _, run_log = harness.run_experiment(
        config, parallel, mono, tokenizer, checkpoint_dir=args.out, resume=args.resume
    )
    finish = run_log.entries_of("finish")[-1]
    print(
        f"trained {finish['epochs']} epochs, {finish['steps']} steps, "
        f"best dev loss {finish['best_dev']}"
    )
    return inputs, [os.path.join(args.out, n) for n in harness.RUN_FILES], config


def cmd_translate(args):
    params, tokenizer, model_files = harness.load_model(args.model)
    tokenizer.require_tags([args.target_lang])
    config = decoding.DecodeConfig(
        mode=args.mode, temperature=args.temperature, beam_size=args.beam_size,
        max_new_tokens=args.max_new_tokens,
    )
    lines = _read_text(args.input).split("\n")
    if lines[-1] == "":
        lines.pop()  # a final newline ends the last line; it starts no new one
    # Blank lines are not decoded; they stay blank so output line N matches input line N.
    # ``tokenizer.encode`` normalizes the others as the corpus loaders normalize training text.
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
    return [args.input, *model_files], [args.output]


def cmd_evaluate(args):
    params, tokenizer, model_files = harness.load_model(args.model)
    direction = corpus.Direction.parse(args.direction)
    tokenizer.require_tags([direction.tgt.code])
    store = corpus.load_parallel(args.test, direction, args.format)
    report = metrics.evaluate_direction(params, tokenizer, list(store.pairs))
    report.metadata["malformed_lines"] = store.malformed
    os.makedirs(args.out, exist_ok=True)
    outputs = [os.path.join(args.out, "report.json"), os.path.join(args.out, "report.csv")]
    with open(outputs[0], "w", encoding="utf-8") as f:
        f.write(json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True) + "\n")
    with open(outputs[1], "w", encoding="utf-8") as f:
        f.write(metrics.report_csv([report]))
    print(
        f"{report.to_text()}  decode_errors {report.metadata['decode_errors']}  "
        f"truncated {report.metadata['truncated']}  "
        f"distinct_hypotheses {report.metadata['distinct_hypotheses']}  "
        f"malformed_lines {store.malformed}"
    )
    return [args.test, *model_files], outputs


# ---------------------------------------------------------------------------
# synthetic bench
# ---------------------------------------------------------------------------

_PREFIX_POOL = ("ka", "bu", "zo", "fe", "mi", "ra", "tu", "ny", "we", "olo")


def cmd_synth_generate(args):
    codes = args.langs
    if len(codes) < 2:
        raise ConfigError("need at least two --langs")
    rules = args.rules or ["identity"] * len(codes)
    if len(rules) != len(codes):
        raise ConfigError(f"{len(rules)} rules for {len(codes)} languages")
    prefixes = args.prefixes or list(_PREFIX_POOL[: len(codes)])
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
    parallel, mono, _truth = synth.gen_synthetic(
        specs,
        n_parallel_per_direction=args.n_parallel,
        n_mono_per_lang=args.n_mono,
        sentence_len_range=(lo, hi),
        seed=args.seed,
        low_resource=args.low_resource or [],
        low_resource_factor=args.low_resource_factor,
        n_dev_per_direction=args.dev,
        n_test_per_direction=args.test,
    )
    corpus.save_stores(args.out, parallel, mono)
    synth.save_specs(os.path.join(args.out, "synth_specs.json"), specs)
    print(
        f"generated {len(parallel)} parallel pairs, {len(mono)} monolingual "
        f"sentences for {len(codes)} languages"
    )
    return [], [*_store_files(args.out), os.path.join(args.out, "synth_specs.json")]


def cmd_compare(args):
    config, parallel, mono, tokenizer, inputs = _experiment(args)
    table = harness.compare_settings(config, parallel, mono, tokenizer, args.out)
    print(table.to_text())
    outputs = [os.path.join(args.out, n) for n in ("comparison.csv", "comparison.json")]
    return inputs, outputs, config


def cmd_report(args):
    try:
        table = harness.ComparisonTable.from_json(_read_text(args.comparison))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{args.comparison} is not a comparison table: {exc!r}") from None
    os.makedirs(args.out, exist_ok=True)
    text = table.to_text()
    print(text)
    files = {
        "comparison.txt": text + "\n",
        "comparison.svg": reports.bar_chart_svg(table.directions, table.settings, table.score),
        "comparison.csv": table.to_csv(),
    }
    for name, content in files.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as f:
            f.write(content)
    return [args.comparison], [os.path.join(args.out, n) for n in files]


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

    def add_experiment(p):
        p.add_argument("--config")
        p.add_argument("--preset", choices=sorted(C.PRESETS))
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key")
        p.add_argument("--store", required=True)
        p.add_argument("--tokenizer", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)

    data = sub.add_parser("data", help="corpus ingestion and bookkeeping")
    data_sub = data.add_subparsers(dest="subcommand", required=True)

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
    tok_sub = tok.add_subparsers(dest="subcommand", required=True)
    p = tok_sub.add_parser("train", help="train the shared subword model")
    p.add_argument("--store", required=True)
    p.add_argument("--vocab-size", type=int, default=4096)
    p.add_argument("--langs", type=_comma_list,
                   help="comma-separated codes; default: languages in the store")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tokenizer_train)

    p = sub.add_parser("train", help="run one finetuning setting")
    add_experiment(p)
    p.add_argument("--resume", action="store_true")
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
    synth_sub = synth_p.add_subparsers(dest="subcommand", required=True)
    p = synth_sub.add_parser("generate", help="generate synthetic stores")
    p.add_argument("--langs", type=_comma_list, required=True,
                   help="comma-separated codes, e.g. sy1,sy2")
    p.add_argument("--low-resource", type=_comma_list,
                   help="codes whose parallel data is scaled down")
    p.add_argument("--low-resource-factor", type=float, default=0.05)
    p.add_argument("--n-parallel", type=int, default=500)
    p.add_argument("--n-mono", type=int, default=1000)
    p.add_argument("--len-range", default="3,9")
    p.add_argument("--concept-vocab", type=int, default=200)
    p.add_argument("--rules", type=_comma_list, help="comma-separated reorder rules per language")
    p.add_argument("--prefixes", type=_comma_list,
                   help="comma-separated surface prefixes per language")
    p.add_argument("--dev", type=int, default=8)
    p.add_argument("--test", type=int, default=30)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_synth_generate)

    p = sub.add_parser("compare", help="run BASE, BT, BT&REC and tabulate")
    add_experiment(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="render serialized comparison artifacts")
    p.add_argument("--comparison", required=True, help="comparison.json from compare")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    arguments = {k: v for k, v in vars(args).items() if k not in ("command", "subcommand", "func")}
    try:
        inputs, outputs, *resolved = args.func(args)  # train and compare add their config
        config = resolved[0] if resolved else None
        out = arguments.get("out") or arguments.get("output")
        if out:
            command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
            seed = config.seed if config else arguments.get("seed")
            reports.write_manifest(out, command, arguments, config.to_dict() if config else None,
                                   seed, inputs, outputs)
        return 0
    except ConfigError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (MTLabError, OSError) as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
