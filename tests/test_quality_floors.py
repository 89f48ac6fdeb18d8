"""Held-out quality floors: a trained parser's F1 on sentences it never
saw, per framework, must not fall below a floor.

The pinned digests elsewhere in the suite say whether bits moved, not
whether quality rose or fell.  Here one module-scoped fixture trains the
desk-size ``pipeline`` recipe (width 0.05; multitask pretraining, then
the EDS converter on its encoder) and parses twelve held-out sentences
drawn at each of three seeds.  Each floor is the lowest of the three
seeds' F1, rounded down to two places.  A change that raises a
framework's F1 raises its floor; one that lowers a floor says why.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import mrparse.training as T
from mrparse import datagen
from mrparse.config import multitask_config, single_config
from mrparse.encoder import ContextualEmbeddings

SEEDS = (1, 2, 3)
HELD_OUT = 12
TEMPLATES = 6  # sentence templates of datagen.make_sentence

# "eds" converts gold DM; "eds-own-dm" converts the model's own DM parse
FLOORS = {"dm": 0.77, "psd": 0.92, "ucca": 0.11, "amr": 0.83,
          "eds": 0.89, "eds-own-dm": 0.75}


def recipe(base, **overrides):
    """The benchmark's ``pipeline`` settings, written out."""
    return replace(base, scale=0.05, batch_size=4, encoder_dropout=0.1,
                   word_drop=0.0, **overrides).scaled()


@pytest.fixture(scope="module")
def held_out_f1():
    """{(seed, framework): corpus MRP F1 on that seed's held-out sentences}."""
    treebank = datagen.build_corpus(48, 7)
    # the held-out rows join these arrays seed by seed
    contextual = ContextualEmbeddings(dict(treebank.contextual.arrays))
    emb = (treebank.static, contextual)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split = T.split_dataset(treebank.sentences, seed=7)
        model = T.train_multitask(split, recipe(multitask_config(), epochs=8, lr=0.02),
                                  *emb).model
        converter, _ = T.train_eds(split, recipe(single_config("eds"), epochs=3),
                                   *emb, treebank.rules, encoder_from=model)
    f1 = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        held = [datagen.make_sentence(rng, f"held{k:03d}", template=k % TEMPLATES)
                for k in range(HELD_OUT)]
        contextual.arrays.update(datagen.build_embeddings(held, seed)[1].arrays)
        parsed = {fw: [T.parse_sentence(model, s, fw) for s in held]
                  for fw in ("dm", "psd", "ucca", "amr")}
        parsed["eds"] = [converter.parse(s, s.graphs["dm"])[0] for s in held]
        parsed["eds-own-dm"] = [converter.parse(s, dm)[0]
                                for s, dm in zip(held, parsed["dm"])]
        for key, graphs in parsed.items():
            fw = key.split("-")[0]
            f1[seed, key] = T.corpus_report([s.graphs[fw] for s in held],
                                            graphs).framework_f1(fw)
    return f1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", sorted(FLOORS))
def test_held_out_f1_at_or_above_its_floor(held_out_f1, key, seed):
    assert held_out_f1[seed, key] >= FLOORS[key]
