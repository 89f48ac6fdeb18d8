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


class TestValidation:
    def test_dropout_out_of_range(self):
        with pytest.raises(ValueError, match="encoder_dropout"):
            C.TrainConfig(encoder_dropout=1.0)

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
        small = cfg.scaled(0.05)
        assert small.hidden == max(2, round(512 * 0.05))
        assert small.edge_mlp == 25 and small.label_mlp == 20
        assert small.encoder_dropout == cfg.encoder_dropout
        assert small.epochs == cfg.epochs
        assert small.scale == 1.0

    def test_floor_of_two(self):
        small = C.TrainConfig().scaled(0.001)
        assert small.hidden == 2 and small.static_mlp == 2

    def test_identity_factor_returns_self(self):
        cfg = C.TrainConfig()
        assert cfg.scaled(1.0) is cfg


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cfg = C.multitask_config()
        path = tmp_path / "c.json"
        cfg.save(path)
        assert C.TrainConfig.load(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration keys"):
            C.TrainConfig.from_json({"hidden": 8, "colour": "red"})
