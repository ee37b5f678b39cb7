"""Tests for DP mechanisms, sensitivity rules, clipping, and the accountant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy import (
    FedAvgSensitivity,
    FixedSensitivity,
    GaussianMechanism,
    IADMMSensitivity,
    LaplaceMechanism,
    NoPrivacy,
    PrivacyAccountant,
    clip_by_norm,
    clip_rows,
    clip_state_by_global_norm,
    global_norm,
    make_mechanism,
)


class TestLaplaceMechanism:
    def test_scale_formula(self):
        mech = LaplaceMechanism(epsilon=5.0)
        assert mech.scale(2.0) == pytest.approx(0.4)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            LaplaceMechanism(epsilon=5.0).scale(-1.0)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            LaplaceMechanism(epsilon=0.0)
        with pytest.raises(ValueError):
            LaplaceMechanism(epsilon=-2.0)

    def test_noise_statistics(self):
        mech = LaplaceMechanism(epsilon=1.0, rng=np.random.default_rng(0))
        values = np.zeros(200_000)
        noised = mech.perturb_array(values, sensitivity=1.0)
        # Laplace(0, b=1): std = sqrt(2) * b.
        assert abs(noised.mean()) < 0.02
        assert abs(noised.std() - math.sqrt(2)) < 0.05

    def test_smaller_epsilon_more_noise(self):
        values = np.zeros(50_000)
        noisy_strong = LaplaceMechanism(3.0, rng=np.random.default_rng(0)).perturb_array(values, 1.0)
        noisy_weak = LaplaceMechanism(10.0, rng=np.random.default_rng(0)).perturb_array(values, 1.0)
        assert noisy_strong.std() > noisy_weak.std()

    def test_zero_sensitivity_is_identity(self):
        mech = LaplaceMechanism(epsilon=1.0, rng=np.random.default_rng(0))
        values = np.arange(5.0)
        np.testing.assert_allclose(mech.perturb_array(values, 0.0), values)

    def test_does_not_mutate_input(self):
        mech = LaplaceMechanism(epsilon=1.0, rng=np.random.default_rng(0))
        values = np.zeros(10)
        mech.perturb_array(values, 1.0)
        np.testing.assert_allclose(values, 0.0)

    def test_perturb_state(self):
        mech = LaplaceMechanism(epsilon=1.0, rng=np.random.default_rng(0))
        state = {"a": np.zeros(4), "b": np.zeros((2, 2))}
        out = mech.perturb_state(state, 1.0)
        assert set(out) == {"a", "b"}
        assert out["b"].shape == (2, 2)
        assert not np.allclose(out["a"], 0.0)

    def test_is_private_flag(self):
        assert LaplaceMechanism(1.0).is_private
        assert not NoPrivacy().is_private


class TestGaussianMechanism:
    def test_sigma_formula(self):
        mech = GaussianMechanism(epsilon=1.0, delta=1e-5)
        expected = math.sqrt(2 * math.log(1.25 / 1e-5))
        assert mech.sigma(1.0) == pytest.approx(expected)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GaussianMechanism(epsilon=0.0)
        with pytest.raises(ValueError):
            GaussianMechanism(epsilon=1.0, delta=0.0)
        with pytest.raises(ValueError):
            GaussianMechanism(epsilon=1.0, delta=1.5)
        with pytest.raises(ValueError):
            GaussianMechanism(epsilon=1.0).sigma(-1)

    def test_noise_statistics(self):
        mech = GaussianMechanism(epsilon=1.0, delta=1e-5, rng=np.random.default_rng(0))
        noised = mech.perturb_array(np.zeros(100_000), sensitivity=1.0)
        assert abs(noised.std() - mech.sigma(1.0)) < 0.05 * mech.sigma(1.0)


class TestNoPrivacyAndFactory:
    def test_no_privacy_identity(self):
        values = np.arange(6.0)
        out = NoPrivacy().perturb_array(values, 100.0)
        np.testing.assert_allclose(out, values)
        assert out is not values

    def test_factory_inf_returns_noprivacy(self):
        assert isinstance(make_mechanism(math.inf), NoPrivacy)
        assert isinstance(make_mechanism(None), NoPrivacy)

    def test_factory_kinds(self):
        assert isinstance(make_mechanism(1.0, "laplace"), LaplaceMechanism)
        assert isinstance(make_mechanism(1.0, "gaussian"), GaussianMechanism)
        with pytest.raises(ValueError):
            make_mechanism(1.0, "exponential")


class TestSensitivityRules:
    def test_iadmm_formula(self):
        rule = IADMMSensitivity(clip_norm=2.0, rho=3.0, zeta=1.0)
        assert rule.sensitivity() == pytest.approx(2 * 2.0 / 4.0)

    def test_iadmm_matches_paper_formula_2c_over_rho_plus_zeta(self):
        # Section III-B: Δ = 2C/(ρ+ζ).
        assert IADMMSensitivity(clip_norm=1.0, rho=500.0, zeta=0.0).sensitivity() == pytest.approx(2 / 500)

    def test_fedavg_formula(self):
        rule = FedAvgSensitivity(clip_norm=1.0, lr=0.01, num_steps=10)
        assert rule.sensitivity() == pytest.approx(2 * 1.0 * 0.01 * 10)

    def test_fixed(self):
        assert FixedSensitivity(value=0.7).sensitivity() == pytest.approx(0.7)

    @pytest.mark.parametrize(
        "rule",
        [
            lambda: IADMMSensitivity(clip_norm=0.0),
            lambda: IADMMSensitivity(rho=-1.0, zeta=0.0),
            lambda: FedAvgSensitivity(lr=0.0),
            lambda: FedAvgSensitivity(num_steps=0),
            lambda: FixedSensitivity(value=0.0),
        ],
    )
    def test_validation(self, rule):
        with pytest.raises(ValueError):
            rule()

    def test_larger_penalty_means_smaller_sensitivity(self):
        small = IADMMSensitivity(rho=1.0, zeta=1.0).sensitivity()
        large = IADMMSensitivity(rho=100.0, zeta=100.0).sensitivity()
        assert large < small


class TestClipping:
    def test_clip_noop_when_within_norm(self):
        v = np.array([0.3, 0.4])
        np.testing.assert_allclose(clip_by_norm(v, 1.0), v)

    def test_clip_scales_to_max_norm(self):
        v = np.array([3.0, 4.0])
        clipped = clip_by_norm(v, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        np.testing.assert_allclose(clipped, v / 5.0)

    def test_clip_invalid_norm(self):
        with pytest.raises(ValueError):
            clip_by_norm(np.ones(3), 0.0)

    def test_clip_zero_vector(self):
        np.testing.assert_allclose(clip_by_norm(np.zeros(4), 1.0), np.zeros(4))

    def test_global_norm(self):
        state = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert global_norm(state) == pytest.approx(5.0)

    def test_clip_state_by_global_norm(self):
        state = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped, original = clip_state_by_global_norm(state, 1.0)
        assert original == pytest.approx(5.0)
        assert global_norm(clipped) == pytest.approx(1.0)

    def test_clip_state_noop(self):
        state = {"a": np.array([0.1])}
        clipped, norm = clip_state_by_global_norm(state, 1.0)
        np.testing.assert_allclose(clipped["a"], state["a"])
        assert norm == pytest.approx(0.1)

    def test_clip_state_invalid(self):
        with pytest.raises(ValueError):
            clip_state_by_global_norm({"a": np.ones(2)}, -1.0)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=20),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_clip_never_exceeds_max_norm(self, values, max_norm):
        clipped = clip_by_norm(np.asarray(values), max_norm)
        assert np.linalg.norm(clipped) <= max_norm + 1e-9

    @given(
        st.integers(1, 6),
        st.integers(1, 40),
        st.sampled_from(["float64", "float32"]),
        st.floats(0.1, 10.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_clip_rows_is_clip_by_norm_per_row(self, rows, dim, dtype, max_norm, seed):
        """The in-place clip of a ``(B, dim)`` block (the algorithm bodies'
        DP clip) is bitwise :func:`clip_by_norm` of each row alone."""
        block = (np.random.default_rng(seed).standard_normal((rows, dim)) * 3).astype(dtype)
        block[-1] = 0.0  # a zero row is left as it is
        expected = [clip_by_norm(row, max_norm) for row in block]
        clip_rows(block, max_norm)
        for row, want in zip(block, expected):
            assert row.dtype == want.dtype and row.tobytes() == want.tobytes()


class TestAccountant:
    def test_basic_composition(self):
        acc = PrivacyAccountant()
        for _ in range(5):
            acc.record(0, 2.0)
        assert acc.epsilon_spent(0) == pytest.approx(10.0)
        assert acc.releases(0) == 5

    def test_infinite_epsilon_not_counted(self):
        acc = PrivacyAccountant()
        acc.record(0, math.inf)
        assert acc.releases(0) == 0
        assert acc.epsilon_spent(0) == 0.0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            PrivacyAccountant().record(0, -1.0)

    def test_delta_and_max(self):
        acc = PrivacyAccountant()
        acc.record(0, 1.0, delta=1e-5)
        acc.record(1, 3.0)
        assert acc.delta_spent(0) == pytest.approx(1e-5)
        assert acc.max_epsilon_spent() == pytest.approx(3.0)

    def test_empty_max(self):
        assert PrivacyAccountant().max_epsilon_spent() == 0.0

    def test_summary(self):
        acc = PrivacyAccountant()
        acc.record(2, 1.5)
        summary = acc.summary()
        assert summary[2]["epsilon"] == pytest.approx(1.5)
        assert summary[2]["releases"] == 1

    def test_running_sums_equal_the_ledger_across_a_restore(self):
        """The per-client totals the accountant keeps beside its release lists
        are the lists' left-to-right sums, for records and for a restored
        checkpoint alike (ε values chosen so that float addition order shows)."""
        acc = PrivacyAccountant()
        for i in range(40):
            acc.record(i % 3, 0.1 * (i + 1), delta=1e-7 * i, key=(i, 0))
            acc.record(i % 3, 0.1 * (i + 1), key=(i, 0))  # a replay: not charged
        restored = PrivacyAccountant()
        restored.load_accountant_state(acc.accountant_state())
        for who in (acc, restored):
            spend = who.accountant_state()["spend"]
            for cid, releases in spend.items():
                eps = delta = 0.0
                for e, d in releases:
                    eps, delta = eps + e, delta + d
                assert (who.epsilon_spent(cid), who.delta_spent(cid)) == (eps, delta)
            assert who.max_epsilon_spent() == max(who.epsilon_spent(cid) for cid in spend)
            assert who.summary() == acc.summary()
        assert restored.record(0, 1.0, key=(0, 0)) is False, "dedupe ledger restored too"
