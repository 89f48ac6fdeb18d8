import json
import math
from dataclasses import fields, replace

import pytest

from mrparse import config as C


class TestStockRecipes:
    def test_dm_winners(self):
        cfg = C.single_config("dm")
        assert cfg.frameworks == ("dm", "psd")
        assert cfg.lr == pytest.approx(0.000858)
        assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)
        assert cfg.layers == 3 and cfg.hidden == 512
        assert cfg.lam_label == pytest.approx(0.0210)
        assert cfg.encoder_dropout == 0.25
        assert cfg.biaffine_input_dropout == 0.45

    def test_psd_winners(self):
        cfg = C.single_config("psd")
        assert cfg.lr == pytest.approx(0.000675)
        assert cfg.layers == 2
        assert cfg.pos_drop == 0.4 and cfg.lemma_drop == 0.1
        assert cfg.label_dropout == 0.5
        assert cfg.lam_label == pytest.approx(0.0242)

    def test_ucca_winners(self):
        cfg = C.single_config("ucca")
        assert cfg.lr == pytest.approx(0.00117)
        assert (cfg.beta1, cfg.beta2) == (0.0, 0.95)
        assert cfg.edge_mlp == 500 and cfg.label_mlp == 400
        assert cfg.batch_size == 100 and cfg.epochs == 40
        # 0.6 (0.5 label + 0.5 edge) + 0.2 pointer + 0.2 remote
        assert (cfg.lam_biaf, cfg.lam_label, cfg.lam_dec_ucca, cfg.lam_remote) \
            == (0.6, 0.5, 0.2, 0.2)

    def test_amr_biaffine_weight_is_the_remainder(self):
        # generator 0.271 and coverage 0.339 leave 0.39 for the biaffine
        cfg = C.single_config("amr")
        assert cfg.lam_biaf == pytest.approx(1.0 - 0.271 - 0.339, abs=1e-9)
        assert cfg.lam_dec_amr == 1.0 - 0.39 - 0.339  # rounded as the remainder
        assert cfg.lam_cov == pytest.approx(0.339)
        assert cfg.lam_label == pytest.approx(0.395)
        assert cfg.decoder_layers == 3 and cfg.decoder_hidden == 512

    def test_multitask_block(self):
        cfg = C.multitask_config()
        assert cfg.frameworks == ("dm", "psd", "ucca", "amr")
        assert cfg.lr == pytest.approx(0.00006)
        assert cfg.batch_size == 128 and cfg.epochs == 60
        assert cfg.lam_biaf == 1.0 and cfg.lam_label == 0.15
        assert cfg.lam_dec_ucca == pytest.approx(0.08)
        assert cfg.lam_dec_amr == pytest.approx(1.2)
        assert cfg.lam_cov == 1.0 and cfg.lam_remote == 0.5
        assert (cfg.word_drop, cfg.pos_drop, cfg.lemma_drop) == (0.2, 0.2, 0.2)

    def test_unknown_framework_rejected(self):
        with pytest.raises(ValueError):
            C.single_config("ptg")


class TestFineTune:
    def test_sdp_defaults_are_corrected(self):
        cfg = C.fine_tune_config("dm")
        assert cfg.lr == pytest.approx(0.000858)
        assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)
        assert cfg.lam_label == pytest.approx(0.025)
        psd = C.fine_tune_config("psd")
        assert psd.lr == pytest.approx(0.000675)

    def test_sdp_bug_compatible_replays_faithfully(self):
        cfg = C.fine_tune_config("dm", bug_compatible=True)
        assert cfg.lr == pytest.approx(0.001)
        assert (cfg.beta1, cfg.beta2) == (0.0, 0.95)

    def test_amr_block(self):
        cfg = C.fine_tune_config("amr")
        assert cfg.encoder_dropout == 0.1
        assert cfg.lr == pytest.approx(0.00059)
        assert cfg.lam_biaf == pytest.approx(0.39)

    def test_ucca_block(self):
        cfg = C.fine_tune_config("ucca")
        assert cfg.lemma_drop == 0.4 and cfg.pos_drop == 0.1
        assert cfg.epochs == 40

    # every continuation recipe written out field by field
    WRITTEN_OUT = {
        "dm": C.TrainConfig(
            frameworks=C.SDP_PAIR, word_drop=0.1, pos_drop=0.2, lemma_drop=0.2,
            encoder_dropout=0.25, biaffine_input_dropout=0.45,
            frame_dropout=0.55, label_dropout=0.33, lr=0.000858, beta1=0.9,
            beta2=0.999, lam_label=0.025, lam_frame=0.5, epochs=50, batch_size=64),
        "ucca": C.TrainConfig(
            frameworks=("ucca",), word_drop=0.1, pos_drop=0.1, lemma_drop=0.4,
            encoder_dropout=0.5, biaffine_input_dropout=0.2,
            label_dropout=0.25, decoder_dropout=0.5,
            lr=0.00117, beta1=0.0, beta2=0.95,
            epochs=40, batch_size=100, **C._UCCA_LOSS),
        "amr": C.TrainConfig(
            frameworks=("amr",), word_drop=0.1, pos_drop=0.2, lemma_drop=0.2,
            encoder_dropout=0.1, biaffine_input_dropout=0.2,
            label_dropout=0.33, decoder_dropout=0.33,
            lr=0.00059, beta1=0.0, beta2=0.95,
            epochs=50, batch_size=64, **C._AMR_LOSS),
    }
    WRITTEN_OUT["psd"] = replace(WRITTEN_OUT["dm"], lr=0.000675)

    @pytest.mark.parametrize("fw", ["dm", "psd", "ucca", "amr"])
    def test_fine_tune_merges_the_written_out_recipe(self, fw):
        """``training.fine_tune`` takes the architecture fields from the
        pretrained model; the rest of its configuration is the recipe's."""
        base = C.multitask_config().scaled()
        arch = {f: getattr(base, f) for f in C.ARCH_FIELDS}
        assert replace(C.fine_tune_config(fw), **arch) \
            == replace(self.WRITTEN_OUT[fw], **arch)


class TestValidation:
    def test_dropout_out_of_range(self):
        with pytest.raises(ValueError, match="encoder_dropout"):
            C.TrainConfig(encoder_dropout=1.0)

    @pytest.mark.parametrize("name, value", [
        ("clip", -5.0),     # trains by gradient ascent
        ("clip", 0.0),      # zeroes every step
        ("beta1", 1.0),     # diverges
        ("beta1", -0.1),
        ("beta2", 1.5),
        ("scale", math.inf),  # overflows in scaled()
        ("scale", 1e400),
        ("lr", math.inf),     # diverges
        ("lr", -math.inf),
        *[(f.name, math.nan) for f in fields(C.TrainConfig) if isinstance(f.default, float)],
        *[(name, 0) for name in C.WIDTH_FIELDS + ("layers", "decoder_layers")],
        ("seed", -1),       # np.random.default_rng refuses both
        ("seed", 1.5)])
    def test_values_that_train_wrongly_or_crash(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} "):
            C.TrainConfig(**{name: value})

    def test_negative_coefficient(self):
        with pytest.raises(ValueError, match="lam_frame"):
            C.TrainConfig(lam_frame=-0.1)

    def test_bad_framework_name(self):
        with pytest.raises(ValueError, match="unknown frameworks"):
            C.TrainConfig(frameworks=("dm", "drg"))

    def test_zero_batch(self):
        with pytest.raises(ValueError):
            C.TrainConfig(batch_size=0)


class TestScaling:
    def test_widths_shrink_rates_stay(self):
        cfg = C.single_config("ucca")
        small = replace(cfg, scale=0.05).scaled()
        assert small.hidden == max(2, round(512 * 0.05))
        assert small.edge_mlp == 25 and small.label_mlp == 20
        assert small.encoder_dropout == cfg.encoder_dropout
        assert small.epochs == cfg.epochs
        assert small.scale == 1.0

    def test_floor_of_two(self):
        small = C.TrainConfig(scale=0.001).scaled()
        assert small.hidden == 2 and small.static_mlp == 2

    def test_identity_factor_returns_self(self):
        cfg = C.TrainConfig()
        assert cfg.scale == 1.0 and cfg.scaled() is cfg


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cfg = C.multitask_config()
        path = tmp_path / "c.json"
        cfg.save(path)
        assert C.TrainConfig.from_json(json.loads(path.read_text())) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration keys"):
            C.TrainConfig.from_json({"hidden": 8, "colour": "red"})
