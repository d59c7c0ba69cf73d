"""Train the BASE model that every workload starts from.

    python3 perfbench/make_base_model.py

Generates a synthetic multilingual corpus with ``synth.gen_synthetic``,
trains the shared tokenizer with ``tokenizer.train_subword`` and trains a
BASE-setting model with ``harness.run_experiment``, all from BASE_SEED.
The model is accepted only if greedy translations of the dev split end
at eos and vary in length; it is written to ``perfbench/base_model/``.
"""

from __future__ import annotations

import json
import sys
import time

import common


def main() -> int:
    common.use_checkout_source()
    from mtlab import checkpoint, decoding, harness, optim, synth
    from mtlab.objectives import FinetuneSetting
    from mtlab.tokenizer import train_subword

    specs = common.lang_specs()
    parallel, mono, truth = synth.gen_synthetic(
        specs, 250, 100, common.SENT_LEN, seed=common.BASE_SEED, n_dev_per_direction=6
    )
    texts = [p.src_text for p in parallel.pairs] + [p.tgt_text for p in parallel.pairs]
    texts += [s.text for s in mono.sentences]
    # 300 merges is more than the corpus supports: merging stops once
    # every word is a single piece.
    tokenizer = train_subword([texts], 3 + len(common.LANGS) + 256 + 300, common.LANGS)
    config = harness.ExperimentConfig(
        languages=common.LANGS,
        setting=FinetuneSetting.BASE,
        exclusions=common.EXCLUSIONS,
        epochs=60,
        model=common.model_config(tokenizer.vocab_size),
        optimizer=optim.AdamWConfig(lr=2e-3),
        warmup_steps=100,
        batch_size_sentences=32,
        eval_every_steps=100,
        seed=common.BASE_SEED,
    )
    start = time.perf_counter()
    params, run_log = harness.run_experiment(config, parallel, mono, tokenizer)
    train_s = time.perf_counter() - start

    dev = [p for p in parallel.pairs if p.split == "dev"]
    inputs = [f"{p.direction.tgt.surface} {p.src_text}" for p in dev]
    results = decoding.generate_batch(params, tokenizer, inputs)
    ended = sum(1 for r in results if not r.truncated and not r.error)
    lengths = sorted({len(r.token_ids) for r in results})
    exact = sum(1 for r, p in zip(results, dev) if r.text == p.tgt_text)
    summary = {
        "train_seconds": round(train_s, 1),
        "steps": run_log.entries_of("finish")[-1]["steps"],
        "best_dev_loss": run_log.entries_of("finish")[-1]["best_dev"],
        "dev_sentences": len(dev),
        "dev_ended_at_eos": ended,
        "dev_exact_match": exact,
        "dev_output_lengths": lengths,
    }
    print(json.dumps(summary, indent=2))
    if ended != len(dev) or len(lengths) < 3:
        print("base model rejected: greedy outputs must end at eos with varied lengths",
              file=sys.stderr)
        return 1
    common.BASE_MODEL_DIR.mkdir(parents=True, exist_ok=True)
    checkpoint.save_params(common.BASE_MODEL_DIR / "params.ckpt", params)
    tokenizer.save(common.BASE_MODEL_DIR / "tokenizer.txt")
    with open(common.BASE_MODEL_DIR / "training.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
