"""Batched MC inference must match the sequential loop exactly.

For every method in ``uq/registry.py`` the vectorized (sample-folded) path
and the looped reference path are run with the same seed and compared to
1e-10 on all three :class:`PredictionResult` arrays.  Methods without MC
sampling are covered too: their predictions must be deterministic across
repeated calls, which is what keeps the serving cache coherent.
"""

import inspect

import numpy as np
import pytest

from repro.core import TrainingConfig
from repro.core.awa import AWAConfig
from repro.core.inference import BatchedPredictor, monte_carlo_forecast
from repro.data import SlidingWindowDataset, TrafficData, generate_traffic, train_val_test_split
from repro.data.scalers import StandardScaler
from repro.graph import grid_network
from repro.models.agcrn import AGCRN
from repro.uq import available_methods, create_method

NUM_NODES = 4
HISTORY = 4
HORIZON = 2


def _tiny_config(**overrides):
    params = dict(
        history=HISTORY, horizon=HORIZON, hidden_dim=4, embed_dim=2,
        epochs=2, batch_size=64, mc_samples=4, seed=3,
    )
    params.update(overrides)
    return TrainingConfig(**params)


def _method_kwargs(name):
    if name == "FGE":
        return {"num_snapshots": 2, "cycle_epochs": 1}
    if name == "DeepEnsemble":
        return {"num_members": 2}
    if name == "DeepSTUQ":
        return {"awa_config": AWAConfig(epochs=2)}
    return {}


@pytest.fixture(scope="module")
def splits():
    network = grid_network(2, 2)
    values = generate_traffic(network, 320, seed=5)
    traffic = TrafficData(name="equiv-test", values=values, network=network)
    return train_val_test_split(traffic)


@pytest.fixture(scope="module")
def test_windows(splits):
    _, _, test = splits
    dataset = SlidingWindowDataset(test.slice_steps(0, 40), history=HISTORY, horizon=HORIZON)
    return dataset.arrays()[0]


@pytest.fixture(scope="module")
def fitted_methods(splits):
    train, val, _ = splits
    fitted = {}
    for name in available_methods():
        method = create_method(name, NUM_NODES, config=_tiny_config(), **_method_kwargs(name))
        method.fit(train, val)
        fitted[name] = method
    return fitted


def _assert_results_equal(a, b):
    np.testing.assert_allclose(a.mean, b.mean, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(a.aleatoric_var, b.aleatoric_var, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(a.epistemic_var, b.epistemic_var, rtol=0.0, atol=1e-10)


class TestRegistryEquivalence:
    @pytest.mark.parametrize("name", [
        "Point", "Quantile", "MVE", "MCDO", "Combined", "TS", "FGE", "Conformal",
        "CFRNN", "DeepSTUQ", "DeepEnsemble",
    ])
    def test_batched_matches_sequential(self, name, fitted_methods, test_windows):
        method = fitted_methods[name]
        batched = method.predict(test_windows)
        if "vectorized" in inspect.signature(method.predict).parameters:
            sequential = method.predict(test_windows, vectorized=False)
        else:
            # No sampling axis to fold: the contract is plain determinism.
            sequential = method.predict(test_windows)
        _assert_results_equal(batched, sequential)


class TestEngineEquivalence:
    """Direct engine-level checks on a raw heteroscedastic AGCRN."""

    @pytest.fixture(scope="class")
    def model_scaler_inputs(self):
        rng = np.random.default_rng(0)
        model = AGCRN(
            num_nodes=NUM_NODES, history=HISTORY, horizon=HORIZON, hidden_dim=4,
            embed_dim=2, encoder_dropout=0.2, decoder_dropout=0.2,
            heads=("mean", "log_var"), rng=rng,
        )
        scaler = StandardScaler().fit(np.array([0.0, 100.0]))
        inputs = rng.uniform(-1.0, 1.0, size=(17, HISTORY, NUM_NODES))
        return model, scaler, inputs

    @pytest.mark.parametrize("batch_size", [256, 5])
    @pytest.mark.parametrize("num_samples", [1, 4])
    def test_folded_equals_looped_across_chunkings(
        self, model_scaler_inputs, batch_size, num_samples
    ):
        model, scaler, inputs = model_scaler_inputs
        kwargs = dict(num_samples=num_samples, batch_size=batch_size, temperature=1.3)
        a = monte_carlo_forecast(
            model, inputs, scaler, rng=np.random.default_rng(9), vectorized=True, **kwargs
        )
        b = monte_carlo_forecast(
            model, inputs, scaler, rng=np.random.default_rng(9), vectorized=False, **kwargs
        )
        _assert_results_equal(a, b)

    @pytest.mark.parametrize("batch_size", [1, 5])
    @pytest.mark.parametrize("cheb_k,num_layers", [(3, 1), (2, 2), (3, 2)])
    def test_folded_equals_looped_bitwise_for_deeper_models(
        self, model_scaler_inputs, cheb_k, num_layers, batch_size
    ):
        """Higher-order supports, stacked cells and one-window chunks (the
        single-request serving shape) all keep the two paths bit-equal."""
        _, scaler, inputs = model_scaler_inputs
        model = AGCRN(
            num_nodes=NUM_NODES, history=HISTORY, horizon=HORIZON, hidden_dim=4,
            embed_dim=2, cheb_k=cheb_k, num_layers=num_layers, encoder_dropout=0.2,
            decoder_dropout=0.2, heads=("mean", "log_var"), rng=np.random.default_rng(1),
        )
        kwargs = dict(num_samples=4, batch_size=batch_size, temperature=1.3)
        a = monte_carlo_forecast(
            model, inputs, scaler, rng=np.random.default_rng(9), vectorized=True, **kwargs
        )
        b = monte_carlo_forecast(
            model, inputs, scaler, rng=np.random.default_rng(9), vectorized=False, **kwargs
        )
        for field in ("mean", "aleatoric_var", "epistemic_var"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_single_sample_has_finite_zero_epistemic(self, model_scaler_inputs):
        model, scaler, inputs = model_scaler_inputs
        result = monte_carlo_forecast(
            model, inputs, scaler, num_samples=1, rng=np.random.default_rng(2)
        )
        assert np.all(np.isfinite(result.std))
        assert np.allclose(result.epistemic_var, 0.0)

    def test_predictor_restores_model_state(self, model_scaler_inputs):
        model, scaler, inputs = model_scaler_inputs
        model.train()
        predictor = BatchedPredictor(model, scaler)
        predictor.monte_carlo(inputs, num_samples=2, rng=np.random.default_rng(0))
        assert model.training
        assert not model.encoder_dropout.mc_active
        assert model.encoder_dropout._fold_streams is None

    def test_invalid_args(self, model_scaler_inputs):
        model, scaler, inputs = model_scaler_inputs
        with pytest.raises(ValueError):
            BatchedPredictor(model, scaler, temperature=0.0)
        with pytest.raises(ValueError):
            BatchedPredictor(model, scaler).monte_carlo(inputs, num_samples=0)
