import numpy as np
import pytest

from memmatch.clustering import dbscan, pairwise_cosine_distance, sub_cluster
from memmatch.metrics import ari
from memmatch.model import validate
from memmatch.dataio import record_to_text
from memmatch.synth import SpecError, SynthSpec, generate, spec_from_text
from reference import labeling, occupied


def small_spec(**overrides):
    base = dict(
        identities=5,
        samples_per_identity_per_modality=8,
        sub_modes=2,
        dim=16,
        identity_spread=1.2,
        sub_mode_spread=0.3,
        noise_sigma=0.05,
        modality_offset=0.2,
        outlier_fraction=0.0,
        seed=11,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestGenerate:
    def test_output_validates(self):
        vis, inf = generate(small_spec())
        assert validate(vis) == []
        assert validate(inf) == []
        assert set(vis.modality) == {"v"} and set(inf.modality) == {"r"}

    def test_deterministic(self):
        a_vis, a_inf = generate(small_spec())
        b_vis, b_inf = generate(small_spec())
        assert np.array_equal(a_vis.features, b_vis.features)
        assert np.array_equal(a_inf.features, b_inf.features)
        assert np.array_equal(a_vis.true_identity, b_vis.true_identity)

    def test_different_seeds_differ(self):
        a_vis, _ = generate(small_spec())
        b_vis, _ = generate(small_spec(seed=12))
        assert not np.array_equal(a_vis.features, b_vis.features)

    def test_degenerate_spec_recovers_identities(self):
        spec = small_spec(
            sub_modes=1, modality_offset=0.0, noise_sigma=1e-6, sub_mode_spread=1e-6
        )
        vis, inf = generate(spec)
        joint = np.vstack([vis.features, inf.features])
        labels = dbscan(pairwise_cosine_distance(joint), eps=0.3, min_samples=4)
        assert labels.cluster_count == spec.identities
        truth = np.concatenate([vis.true_identity, inf.true_identity])
        assert ari(labels.labels, truth) == 1.0

    def test_sub_mode_recovery_by_kmeans(self):
        spec = small_spec(
            identities=3,
            samples_per_identity_per_modality=60,
            sub_modes=3,
            sub_mode_spread=0.5,
            noise_sigma=0.03,
            modality_offset=0.0,
            identity_spread=1.3,
            dim=24,
            seed=5,
        )
        vis, _ = generate(spec)
        labels = labeling("v", vis.true_identity)
        bank = sub_cluster(vis, labels, n=3)
        for p in range(3):
            members = vis.features[labels.members(p)]
            # each occupied sub-memory must sit close to a dense group mean:
            # against noise_sigma * 3 / sqrt(samples per sub-mode ~ 20)
            active = occupied(bank, p)
            assert active.shape[0] == 3
            assign = np.argmin(((members[:, None] - active[None]) ** 2).sum(-1), axis=1)
            for slot in range(3):
                grp = members[assign == slot]
                tol = spec.noise_sigma * 3.0 / np.sqrt(max(len(grp), 1))
                assert np.linalg.norm(grp.mean(0) - active[slot]) <= max(tol, 1e-6)

    def test_offset_monotone_in_cross_modality_distance(self):
        means = []
        for offset in (0.0, 0.3, 0.6):
            gaps = []
            for seed in (1, 2, 3):
                spec = small_spec(modality_offset=offset, seed=seed)
                vis, inf = generate(spec)
                for k in range(spec.identities):
                    vk = vis.features[vis.true_identity == k]
                    rk = inf.features[inf.true_identity == k]
                    gaps.append(
                        np.linalg.norm(vk[:, None] - rk[None], axis=2).mean()
                    )
            means.append(float(np.mean(gaps)))
        assert means[0] < means[1] < means[2]

    def test_outliers_replace_rows(self):
        clean_vis, _ = generate(small_spec())
        dirty_vis, _ = generate(small_spec(outlier_fraction=0.25))
        changed = np.any(clean_vis.features != dirty_vis.features, axis=1)
        assert changed.sum() >= 0.2 * len(clean_vis)
        assert np.array_equal(clean_vis.true_identity, dirty_vis.true_identity)

    def test_impossible_spread_raises(self):
        with pytest.raises(SpecError, match="separation"):
            generate(small_spec(identities=40, dim=3, identity_spread=1.9))

    def test_invalid_fraction_rejected(self):
        with pytest.raises(SpecError, match="outlier_fraction"):
            generate(small_spec(outlier_fraction=1.5))

    @pytest.mark.parametrize(
        "field, value",
        [("noise_sigma", float("nan")), ("modality_offset", float("inf")), ("sub_mode_spread", float("inf"))],
    )
    def test_non_finite_rejected(self, field, value):
        # NaN and inf pass the range checks, and would fill every row with NaN
        with pytest.raises(SpecError, match=f"{field} must be finite"):
            generate(small_spec(**{field: value}))


class TestSpecText:
    def test_round_trip(self):
        spec = small_spec(outlier_fraction=0.125)
        again = spec_from_text(record_to_text(spec))
        assert again == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown spec key"):
            spec_from_text("identities=3\nwhat=4\n")

    def test_validation_names_field(self):
        with pytest.raises(SpecError, match="outlier_fraction"):
            spec_from_text("outlier_fraction=1.5\n")
