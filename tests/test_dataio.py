from dataclasses import fields

import numpy as np
import pytest

from memmatch.dataio import (
    DataFormatError,
    config_from_entries,
    config_to_text,
    parse_kv_text,
    read_config,
    read_embeddings,
    write_embeddings,
)
from memmatch.model import EmbeddingSet, PipelineConfig, normalize_rows
from memmatch.synth import SynthSpec, generate


class TestEmbeddingFiles:
    def test_round_trip_exact(self, tmp_path):
        vis, _ = generate(SynthSpec(identities=3, samples_per_identity_per_modality=4, dim=8))
        path = tmp_path / "vis.emb"
        write_embeddings(path, vis)
        again = read_embeddings(path)
        assert np.array_equal(again.features, vis.features)
        assert np.array_equal(again.true_identity, vis.true_identity)
        assert again.modality.tolist() == vis.modality.tolist()

    def test_write_read_write_is_byte_stable(self, tmp_path):
        vis, _ = generate(SynthSpec(identities=2, samples_per_identity_per_modality=3, dim=4))
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        write_embeddings(p1, vis)
        write_embeddings(p2, read_embeddings(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_required(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_text("v,0,1.0,0.0\n")
        with pytest.raises(DataFormatError, match="header"):
            read_embeddings(path)

    @pytest.mark.parametrize("header", ["d=-1", "d=0"])
    def test_dimension_below_one_rejected(self, tmp_path, header):
        # "v" is the one field a d=-1 record needs
        path = tmp_path / "x.emb"
        path.write_text(f"{header}\nv\nv,0\n")
        with pytest.raises(DataFormatError, match="must be at least 1"):
            read_embeddings(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_text("d=3\nv,0,1.0,0.0\n")
        with pytest.raises(DataFormatError, match="expected 5 fields"):
            read_embeddings(path)

    def test_bad_modality(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_text("d=2\nq,0,1.0,0.0\n")
        with pytest.raises(DataFormatError, match="modality"):
            read_embeddings(path)

    def test_partial_truth_rejected(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_text("d=2\nv,0,1.0,0.0\nv,-1,0.0,1.0\n")
        with pytest.raises(DataFormatError, match="all rows or none"):
            read_embeddings(path)

    def test_all_missing_truth_is_none(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_text("d=2\nv,-1,1.0,0.0\nr,-1,0.0,1.0\n")
        es = read_embeddings(path)
        assert es.true_identity is None

    def test_no_records_rejected(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_text("d=2\n")
        with pytest.raises(DataFormatError, match="no sample records"):
            read_embeddings(path)


class TestKvText:
    def test_parse_skips_comments_and_blanks(self):
        out = parse_kv_text("# hi\n\n a = 1 \nb=two\n")
        assert out == {"a": "1", "b": "two"}

    def test_missing_equals(self):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_kv_text("nope\n")


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = PipelineConfig(
            tau=0.1, dbscan_eps=2.0, dbscan_min_samples=3, n_memories=2,
            lambda_intra=1.0, lambda_inter=0.25, mmd_sigma=4.0, epochs=7,
            intra_start_epoch=2, inter_start_epoch=3, batch_ids=5,
            per_id_visible=6, per_id_infrared=2, learning_rate=1.0, momentum=0.5,
            weight_decay=0.0, seed=11, use_matching=False, gmm_weighting=False,
        )
        default = PipelineConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
        path = tmp_path / "cfg.txt"
        path.write_text(config_to_text(cfg))
        again = read_config(path)
        assert again == cfg
        for f in fields(cfg):
            assert type(getattr(again, f.name)) is type(getattr(cfg, f.name)), f.name

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(DataFormatError) as err:
            config_from_entries({"taau": "0.1"})
        assert "taau" in str(err.value)
        assert "dbscan_eps" in str(err.value)  # full list included

    def test_median_sigma_round_trip(self, tmp_path):
        cfg = PipelineConfig()
        path = tmp_path / "cfg.txt"
        path.write_text(config_to_text(cfg))
        assert read_config(path).mmd_sigma == "median"

    def test_overrides_last_wins(self):
        base = config_from_entries({"tau": "0.2"})
        final = config_from_entries({"tau": "0.3"}, base)
        assert final.tau == 0.3

    def test_bad_value_names_key(self):
        with pytest.raises(DataFormatError, match="epochs"):
            config_from_entries({"epochs": "many"})

    def test_invalid_config_rejected(self):
        with pytest.raises(DataFormatError, match="tau"):
            config_from_entries({"tau": "-2"})

    def test_bool_coercions(self):
        assert config_from_entries({"use_matching": "false"}).use_matching is False
        assert config_from_entries({"gmm_weighting": "1"}).gmm_weighting is True
        with pytest.raises(DataFormatError):
            config_from_entries({"use_matching": "maybe"})
