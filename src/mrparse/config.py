"""Training configuration: one flat record, one preset per regime.

``TrainConfig`` carries everything a run needs (architecture widths,
dropout rates, optimizer settings, loss coefficients).  The presets
reproduce the stock recipes: :func:`single_config` the per-framework
winners, :func:`multitask_config` the joint pretraining block, and
:func:`fine_tune_config` the per-framework continuation blocks.

The DM/PSD continuation recipe historically ran with a learning rate
and momentum pair carried over from an unrelated setup; the default
here substitutes the per-framework values and ``bug_compatible=True``
replays the faulty originals.
"""

import json
from dataclasses import dataclass, fields, replace, asdict

from .atomic import atomic_open

SDP_PAIR = ("dm", "psd")


@dataclass(frozen=True)
class TrainConfig:
    frameworks: tuple = SDP_PAIR

    # network widths
    surface_dim: int = 100
    lemma_dim: int = 100
    pos_dim: int = 100
    ne_dim: int = 100
    static_mlp: int = 125
    contextual_mlp: int = 512
    layers: int = 3
    hidden: int = 512
    edge_mlp: int = 600
    label_mlp: int = 600
    frame_mlp: int = 600
    decoder_hidden: int = 512
    decoder_layers: int = 3   # the "deep small" generator shape
    anchor_emb: int = 32
    anchor_hidden: int = 32

    # regularization
    word_drop: float = 0.1    # surface + NE + projected vectors ("the rest")
    pos_drop: float = 0.1
    lemma_drop: float = 0.2
    encoder_dropout: float = 0.25
    biaffine_input_dropout: float = 0.45
    edge_dropout: float = 0.25
    label_dropout: float = 0.33
    frame_dropout: float = 0.55
    decoder_dropout: float = 0.0

    # optimizer
    lr: float = 0.000858
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 64
    epochs: int = 50
    clip: float = 5.0
    seed: int = 1
    scale: float = 1.0

    # loss coefficients
    lam_label: float = 0.0210
    lam_frame: float = 0.5
    lam_biaf: float = 1.0
    lam_cov: float = 0.0
    lam_dec_ucca: float = 0.08
    lam_dec_amr: float = 1.2
    lam_remote: float = 0.5

    def __post_init__(self):
        for name in ("word_drop", "pos_drop", "lemma_drop", "encoder_dropout",
                     "biaffine_input_dropout", "edge_dropout", "label_dropout",
                     "frame_dropout", "decoder_dropout"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        for name in ("lam_label", "lam_frame", "lam_biaf", "lam_cov",
                     "lam_dec_ucca", "lam_dec_amr", "lam_remote"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0.0 <= self.lam_label <= 1.0:
            raise ValueError(f"lam_label must lie in [0, 1], got {self.lam_label}")
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epoch count must be at least 1")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        bad = [fw for fw in self.frameworks
               if fw not in ("dm", "psd", "eds", "ucca", "amr")]
        if bad:
            raise ValueError(f"unknown frameworks: {bad}")

    def scaled(self, factor=None):
        """Shrink every width by the configured (or given) factor.

        Rates, coefficients and schedule lengths are untouched; widths
        never drop below 2.
        """
        factor = self.scale if factor is None else factor
        if factor == 1.0:
            return self

        def s(n):
            return max(2, int(round(n * factor)))

        return replace(
            self,
            surface_dim=s(self.surface_dim), lemma_dim=s(self.lemma_dim),
            pos_dim=s(self.pos_dim), ne_dim=s(self.ne_dim),
            static_mlp=s(self.static_mlp), contextual_mlp=s(self.contextual_mlp),
            hidden=s(self.hidden), edge_mlp=s(self.edge_mlp),
            label_mlp=s(self.label_mlp), frame_mlp=s(self.frame_mlp),
            decoder_hidden=s(self.decoder_hidden),
            anchor_emb=s(self.anchor_emb), anchor_hidden=s(self.anchor_hidden),
            scale=1.0)

    def to_json(self):
        doc = asdict(self)
        doc["frameworks"] = list(self.frameworks)
        return doc

    @classmethod
    def from_json(cls, doc):
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        doc = dict(doc)
        if "frameworks" in doc:
            doc["frameworks"] = tuple(doc["frameworks"])
        return cls(**doc)

    def save(self, path):
        with atomic_open(path) as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# presets

# Coefficients of the UCCA and AMR recipes in the one objective,
# ``training.multitask_loss``.  UCCA's 0.3 edge + 0.3 label + 0.2 remote
# + 0.2 pointer is 0.6 (0.5 label + 0.5 edge) + 0.2 pointer + 0.2 remote:
# the same sum, rounded differently.
_UCCA_LOSS = dict(lam_biaf=0.6, lam_label=0.5, lam_remote=0.2, lam_dec_ucca=0.2)
# AMR's 0.39 (0.395 label + 0.605 edge) + 0.339 coverage puts the
# remainder on the generator; it is written as that expression so that
# it rounds as the old formula did (0.27099999999999996, not 0.271).
_AMR_LOSS = dict(lam_label=0.395, lam_biaf=0.39, lam_cov=0.339,
                 lam_dec_amr=1.0 - 0.39 - 0.339)


def single_config(framework):
    """Stock recipe for one framework trained on its own.

    DM and PSD share a joint run; asking for either returns the pair
    with that framework's winning optimizer/coefficient draws.
    """
    if framework == "dm":
        return TrainConfig(frameworks=SDP_PAIR)
    if framework == "psd":
        return TrainConfig(
            frameworks=SDP_PAIR, layers=2, pos_drop=0.4, lemma_drop=0.1,
            encoder_dropout=0.5, biaffine_input_dropout=0.2,
            label_dropout=0.5, lr=0.000675, lam_label=0.0242)
    if framework == "ucca":
        # 0.3 edge + 0.3 label + 0.2 remote + 0.2 pointer, as _UCCA_LOSS
        return TrainConfig(
            frameworks=("ucca",), layers=2, pos_drop=0.1, lemma_drop=0.4,
            encoder_dropout=0.5, biaffine_input_dropout=0.2,
            edge_mlp=500, label_mlp=400, label_dropout=0.25,
            decoder_dropout=0.5, lr=0.00117, beta1=0.0, beta2=0.95,
            batch_size=100, epochs=40, **_UCCA_LOSS)
    if framework == "amr":
        # 0.39 biaffine + 0.339 coverage + the remainder on the generator
        return TrainConfig(
            frameworks=("amr",), pos_drop=0.2, lemma_drop=0.2,
            encoder_dropout=0.1, biaffine_input_dropout=0.2,
            label_dropout=0.33, decoder_dropout=0.33,
            lr=0.00059, beta1=0.0, beta2=0.95, **_AMR_LOSS)
    if framework == "eds":
        # span-anchoring network; trained by transfer, not searched
        return TrainConfig(frameworks=("eds",), lr=0.001, epochs=30,
                           batch_size=32)
    raise ValueError(f"no stock recipe for framework {framework!r}")


def multitask_config():
    """Joint pretraining over DM, PSD, UCCA and AMR."""
    return TrainConfig(
        frameworks=("dm", "psd", "ucca", "amr"),
        word_drop=0.2, pos_drop=0.2, lemma_drop=0.2,
        encoder_dropout=0.5, biaffine_input_dropout=0.45,
        label_dropout=0.33, decoder_dropout=0.33,
        lr=0.00006, beta1=0.9, beta2=0.999,
        batch_size=128, epochs=60,
        lam_biaf=1.0, lam_label=0.15, lam_frame=0.5,
        lam_remote=0.5, lam_dec_ucca=0.08, lam_dec_amr=1.2, lam_cov=1.0)


def fine_tune_config(framework, bug_compatible=False):
    """Continuation recipe applied after multi-task pretraining.

    ``bug_compatible`` replays the faulty DM/PSD learning rate and
    momentum pair instead of the corrected per-framework values.
    """
    if framework in SDP_PAIR:
        lr = 0.001 if bug_compatible else single_config(framework).lr
        b1, b2 = (0.0, 0.95) if bug_compatible else (0.9, 0.999)
        return TrainConfig(
            frameworks=SDP_PAIR, word_drop=0.1, pos_drop=0.2, lemma_drop=0.2,
            encoder_dropout=0.25, biaffine_input_dropout=0.45,
            frame_dropout=0.55, label_dropout=0.33,
            lr=lr, beta1=b1, beta2=b2, lam_label=0.025, lam_frame=0.5,
            epochs=50, batch_size=64)
    if framework == "ucca":
        # 0.3 edge + 0.3 label + 0.2 remote + 0.2 pointer, as _UCCA_LOSS
        return TrainConfig(
            frameworks=("ucca",), word_drop=0.1, pos_drop=0.1, lemma_drop=0.4,
            encoder_dropout=0.5, biaffine_input_dropout=0.2,
            label_dropout=0.25, decoder_dropout=0.5,
            lr=0.00117, beta1=0.0, beta2=0.95,
            epochs=40, batch_size=100, **_UCCA_LOSS)
    if framework == "amr":
        # 0.39 biaffine + 0.339 coverage + the remainder on the generator
        return TrainConfig(
            frameworks=("amr",), word_drop=0.1, pos_drop=0.2, lemma_drop=0.2,
            encoder_dropout=0.1, biaffine_input_dropout=0.2,
            label_dropout=0.33, decoder_dropout=0.33,
            lr=0.00059, beta1=0.0, beta2=0.95,
            epochs=50, batch_size=64, **_AMR_LOSS)
    if framework == "eds":
        return single_config("eds")
    raise ValueError(f"no continuation recipe for framework {framework!r}")

