"""Backend compute core: policies, fused banks, mmap banks, parity.

The contract under test, end to end:

* :class:`~repro.backend.ComputePolicy` validates its dtype, and
  manifests written when it also recorded an execution engine still
  load and serve;
* each ROCKET family has one transform path, bit-identical at float64
  to the historical grouped loops restated here;
* the fused one-GEMM banks (:class:`~repro.backend.RocketBank`,
  :class:`~repro.backend.MiniRocketBank`) reproduce the grouped
  transforms — bit-tight at float64, within the documented tolerance at
  float32 — and refuse to build past their size/FLOP gates;
* the float32 serving GEMM gives every row the same bits whatever the
  panel around it;
* :func:`~repro.backend.open_npz` hands back true zero-copy views into
  uncompressed archives (and falls back to eager reads for compressed
  ones), which :func:`repro.classifiers.load_model` turns into
  copy-free model reloads;
* precision mismatches fail loudly: a float32 archive refuses to load
  into a path that requires float64;
* the serving LRU eviction -> reload cycle stays mmap-backed and
  self-heals mid-request via the existing one-retry.
"""

import sys
import zipfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.backend import (
    FIT_POLICY,
    INFERENCE_POLICY,
    ComputePolicy,
    MiniRocketBank,
    PROBA_ATOL,
    RocketBank,
    apply_folded_ridge,
    apply_inference_policy,
    batch_invariant_matmul,
    check_parity,
    fold_ridge,
    grouped_conv,
    is_mmap_backed,
    open_npz,
    parity_report,
    ridge_margins,
    softmax,
)
from repro.classifiers import RocketClassifier, load_model, save_model
from repro.classifiers.minirocket import MiniRocketTransform, _canonical_kernels
from repro.classifiers.rocket import RocketTransform
from repro.data import make_classification_panel
from repro.serving import ModelRegistry, PredictionService, model_metadata


@pytest.fixture(scope="module")
def panel():
    X, y = make_classification_panel(n_series=30, n_channels=2, length=32,
                                     n_classes=2, difficulty=0.15, seed=11)
    return X, y


@pytest.fixture(scope="module")
def rocket_transform(panel):
    return RocketTransform(num_kernels=80, seed=1).fit(panel[0])


@pytest.fixture(scope="module")
def minirocket_transform(panel):
    return MiniRocketTransform(num_features=420, seed=1).fit(panel[0])


@pytest.fixture(scope="module")
def fitted_model(panel):
    X, y = panel
    return RocketClassifier(num_kernels=60, seed=2).fit(X, y)


#: panel shapes (series, channels, length) the reference loops run on
SHAPES = ((12, 2, 32), (5, 3, 57))


def _shaped_panel(shape) -> np.ndarray:
    return np.random.default_rng(sum(shape)).standard_normal(shape)


def _reference_group_conv(X: np.ndarray, group) -> np.ndarray:
    """The historical float64 ROCKET group convolution, ``(n, k, out)``."""
    Xp = np.pad(X, ((0, 0), (0, 0), (group.padding, group.padding)))
    k, c, length = group.weights.shape
    out_len = Xp.shape[2] - (length - 1) * group.dilation
    taps = np.stack([Xp[:, :, tap * group.dilation:
                        tap * group.dilation + out_len]
                     for tap in range(length)], axis=2)  # (n, c, L, out)
    responses = np.matmul(group.weights.reshape(k, c * length)[None],
                          taps.reshape(len(X), c * length, out_len))
    return responses + group.biases[None, :, None]


class TestComputePolicy:
    def test_defaults_are_the_fit_policy(self):
        assert ComputePolicy() == FIT_POLICY
        assert FIT_POLICY.dtype == "float64"
        assert INFERENCE_POLICY.dtype == "float32"

    @pytest.mark.parametrize("bad", ["float16", "int8", "double", ""])
    def test_unknown_dtype_rejected(self, bad):
        with pytest.raises(ValueError, match="dtype"):
            ComputePolicy(dtype=bad)

    def test_np_dtype(self):
        assert ComputePolicy("float32").np_dtype == np.dtype(np.float32)
        assert ComputePolicy("float64").np_dtype == np.dtype(np.float64)

    def test_dict_round_trip(self):
        policy = ComputePolicy("float32")
        assert policy.as_dict() == {"dtype": "float32"}
        assert ComputePolicy.from_dict(policy.as_dict()) == policy
        assert ComputePolicy.from_dict(None) is None
        assert ComputePolicy.from_dict({}) is None

    def test_apply_is_a_noop_for_families_without_support(self):
        class Opaque:
            pass

        model = Opaque()
        assert apply_inference_policy(model, INFERENCE_POLICY) is model


class TestOps:
    def test_softmax_rows_stochastic_and_order_preserving(self):
        scores = np.array([[1.0, 3.0, 2.0], [-4.0, -5.0, -3.0]])
        probas = softmax(scores)
        np.testing.assert_allclose(probas.sum(axis=1), 1.0)
        np.testing.assert_array_equal(probas.argmax(axis=1),
                                      scores.argmax(axis=1))

    def test_softmax_float32_stays_float32(self):
        probas = softmax(np.ones((2, 3)), dtype=np.float32)
        assert probas.dtype == np.float32

    def test_folded_ridge_matches_reference_margins(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(10, 20))
        mean, std = rng.normal(size=20), rng.uniform(0.5, 2.0, size=20)
        coef, tm = rng.normal(size=(20, 3)), rng.normal(size=3)
        reference = ridge_margins(features, mean, std, coef, tm)
        folded = apply_folded_ridge(
            features, *fold_ridge(mean, std, coef, tm, dtype=np.float64))
        np.testing.assert_allclose(folded, reference, atol=1e-10)

    @pytest.mark.parametrize("columns", [2, 30, 8000])
    def test_batch_invariant_matmul_rows_ignore_the_batch(self, columns):
        """Each row equals that row multiplied alone, bit for bit, for
        ridge-head-narrow to bank-wide operands and every panel height
        (a plain float32 GEMM moves rows of these shapes by ~1e-5), and
        stays within float32 rounding of the float64 product."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=(17, 64)).astype(np.float32)
        b = rng.normal(size=(64, columns)).astype(np.float32)
        alone = np.concatenate([batch_invariant_matmul(a[i:i + 1], b)
                                for i in range(len(a))])
        for n in (0, 1, 2, 3, 7, 8, 9, 17):
            np.testing.assert_array_equal(batch_invariant_matmul(a[:n], b),
                                          alone[:n])
        np.testing.assert_allclose(alone, a.astype(np.float64) @ b,
                                   rtol=1e-5, atol=1e-5)

    def test_grouped_conv_float64_bit_identical_to_rocket(self):
        """At float64, ``grouped_conv`` and the ROCKET transform built on
        it reproduce the historical per-group loop: unfold each (channel,
        tap) row, one GEMM against the kernel matrix, bias, PPV and max."""
        for shape in SHAPES:
            X = _shaped_panel(shape)
            transform = RocketTransform(num_kernels=60, seed=4).fit(X)
            ppv_parts, max_parts = [], []
            for group, responses in zip(
                    transform._groups,
                    grouped_conv(X, transform._groups, dtype=np.float64),
                    strict=True):
                expected = _reference_group_conv(X, group)
                np.testing.assert_array_equal(responses, expected)
                ppv_parts.append((expected > 0).mean(axis=2))
                max_parts.append(expected.max(axis=2))
            reference = np.concatenate(ppv_parts + max_parts, axis=1)
            for policy in (None, FIT_POLICY):
                transform.set_inference_policy(policy)
                np.testing.assert_array_equal(transform.transform(X),
                                              reference)

    def test_grouped_transform_shares_no_scratch_across_threads(self):
        """Serving threads run the grouped float64 path concurrently; its
        buffers belong to the call, so every thread gets the bits a lone
        call gets, whatever the other threads' panel sizes."""
        X = _shaped_panel((12, 2, 32))
        transform = RocketTransform(num_kernels=60, seed=4).fit(X)
        panels = [X[i:i + 1 + i % 5] for i in range(8)]
        expected = [transform.transform(panel) for panel in panels]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(10):
                    for got, want in zip(
                            pool.map(transform.transform, panels), expected):
                        np.testing.assert_array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)

    def test_minirocket_float64_bit_identical_to_reference_loop(self):
        """MiniRocket's float64 features are the historical loop: per plan
        entry, convolve each kernel on its chosen channel, then PPV
        against every bias quantile, in plan order."""
        kernels = _canonical_kernels()
        for shape in SHAPES:
            X = _shaped_panel(shape)
            transform = MiniRocketTransform(num_features=420, seed=4).fit(X)
            parts = []
            for dilation, padding, channels, biases in transform._plan:
                Xp = np.pad(X, ((0, 0), (0, 0), (padding, padding)))
                out_len = Xp.shape[2] - 8 * dilation
                taps = np.stack([Xp[:, channels, tap * dilation:
                                    tap * dilation + out_len]
                                 for tap in range(9)], axis=2)
                responses = np.matmul(kernels[None, :, None, :], taps)[:, :, 0]
                ppv = (responses[:, :, None, :]
                       > biases[None, :, :, None]).mean(axis=3)
                parts.append(ppv.reshape(len(X), -1))
            reference = np.concatenate(parts, axis=1)
            for policy in (None, FIT_POLICY):
                transform.set_inference_policy(policy)
                np.testing.assert_array_equal(transform.transform(X),
                                              reference)


class TestFusedBanks:
    def test_rocket_bank_float64_matches_grouped(self, panel,
                                                 rocket_transform):
        X = panel[0]
        bank = RocketBank.build(rocket_transform._groups, (2, 32),
                                dtype=np.float64)
        assert bank is not None
        np.testing.assert_allclose(bank.transform(X),
                                   rocket_transform.transform(X), atol=1e-9)

    def test_rocket_bank_float32_within_tolerance(self, panel,
                                                  rocket_transform):
        X = panel[0]
        bank = RocketBank.build(rocket_transform._groups, (2, 32),
                                dtype=np.float32)
        assert bank is not None
        fused = bank.transform(np.asarray(X, np.float32))
        assert fused.dtype == np.float32
        np.testing.assert_allclose(fused, rocket_transform.transform(X),
                                   atol=1e-3)

    def test_minirocket_bank_matches_grouped(self, panel,
                                             minirocket_transform):
        X = panel[0]
        reference = minirocket_transform.transform(X)
        for dtype, atol in ((np.float64, 1e-9), (np.float32, 1e-3)):
            bank = MiniRocketBank.build(minirocket_transform._plan,
                                        _canonical_kernels(), (2, 32),
                                        dtype=dtype)
            assert bank is not None
            np.testing.assert_allclose(
                bank.transform(np.asarray(X, dtype)), reference, atol=atol)

    def test_size_gate_refuses_oversized_banks(self, rocket_transform):
        assert RocketBank.build(rocket_transform._groups, (2, 32),
                                max_bytes=1024) is None

    def test_blowup_gate_refuses_flop_bound_shapes(self, rocket_transform):
        assert RocketBank.build(rocket_transform._groups, (2, 32),
                                max_blowup=0.5) is None

    def test_gated_build_falls_back_to_grouped_transform(self, panel):
        """A transform whose bank refuses to build still serves float32
        answers — through the grouped op at the policy dtype."""
        X = panel[0]
        transform = RocketTransform(num_kernels=40, seed=5).fit(X)
        reference = transform.transform(X)
        transform.set_inference_policy(INFERENCE_POLICY)
        transform._bank = None  # simulate the gate refusing
        fused_off = transform.transform(X)
        assert fused_off.dtype == np.float32
        np.testing.assert_allclose(fused_off, reference, atol=1e-3)

    def test_policy_none_restores_bit_identical_float64(self, panel):
        X = panel[0]
        transform = RocketTransform(num_kernels=40, seed=5).fit(X)
        reference = transform.transform(X)
        transform.set_inference_policy(INFERENCE_POLICY)
        transform.set_inference_policy(None)
        np.testing.assert_array_equal(transform.transform(X), reference)


class TestParity:
    def test_report_ok_for_float32(self, fitted_model, panel):
        report = parity_report(fitted_model, panel[0], INFERENCE_POLICY)
        assert report.ok
        assert report.labels_equal
        assert report.max_proba_diff <= PROBA_ATOL
        assert "float32" in report.summary()

    def test_report_leaves_model_unpoliced(self, fitted_model, panel):
        parity_report(fitted_model, panel[0], INFERENCE_POLICY)
        assert fitted_model.compute_policy is None
        assert fitted_model.transformer.compute_policy is None

    def test_check_parity_raises_on_violation(self, fitted_model, panel):
        class Liar:
            """predicts constants under any policy except the reference."""

            def __init__(self, inner):
                self._inner = inner
                self._lying = False

            def set_inference_policy(self, policy):
                self._lying = policy is not None \
                    and policy.dtype != "float64"

            def predict(self, X):
                if self._lying:
                    return np.zeros(len(X), dtype=np.int64)
                return self._inner.predict(X)

            def predict_proba(self, X):
                return self._inner.predict_proba(X)

        with pytest.raises(ValueError, match="parity failure"):
            check_parity(Liar(fitted_model), panel[0], INFERENCE_POLICY)


class TestMmapBank:
    def test_uncompressed_members_are_zero_copy(self, tmp_path):
        path = tmp_path / "bank.npz"
        w = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        np.savez(path, w=w, b=np.ones(5), tag=np.array("rocket"))
        arrays = open_npz(path)
        assert is_mmap_backed(arrays["w"])
        assert not arrays["w"].flags["OWNDATA"]
        assert not arrays["w"].flags["WRITEABLE"]
        np.testing.assert_array_equal(arrays["w"], w)
        assert str(arrays["tag"]) == "rocket"

    def test_compressed_members_fall_back_to_eager(self, tmp_path):
        path = tmp_path / "bank.npz"
        np.savez_compressed(path, w=np.arange(6.0))
        arrays = open_npz(path)
        assert not is_mmap_backed(arrays["w"])
        np.testing.assert_array_equal(arrays["w"], np.arange(6.0))

    def test_mmap_false_reads_private_copies(self, tmp_path):
        path = tmp_path / "bank.npz"
        np.savez(path, w=np.arange(6.0))
        arrays = open_npz(path, mmap=False)
        assert not is_mmap_backed(arrays["w"])

    def test_save_model_writes_stored_members(self, tmp_path, fitted_model):
        """The zero-copy path needs uncompressed (STORED) zip members."""
        target = save_model(fitted_model, tmp_path / "model.npz")
        with zipfile.ZipFile(target) as archive:
            assert all(info.compress_type == zipfile.ZIP_STORED
                       for info in archive.infolist())

    def test_save_model_bytes_deterministic(self, tmp_path, fitted_model):
        """Content-addressed registry dedup relies on byte-stable saves."""
        first = save_model(fitted_model, tmp_path / "a.npz")
        second = save_model(fitted_model, tmp_path / "b.npz")
        assert first.read_bytes() == second.read_bytes()

    def test_load_model_is_mmap_backed(self, tmp_path, fitted_model, panel):
        target = save_model(fitted_model, tmp_path / "model.npz")
        restored = load_model(target)
        group = restored.transformer._groups[0]
        assert is_mmap_backed(group.weights)
        assert is_mmap_backed(restored.ridge.coef_)
        np.testing.assert_array_equal(restored.predict(panel[0]),
                                      fitted_model.predict(panel[0]))


class TestBankDtype:
    def test_float32_archive_records_its_dtype(self, tmp_path, fitted_model):
        target = save_model(fitted_model, tmp_path / "m.npz", dtype="float32")
        restored = load_model(target)
        assert restored.bank_dtype_ == "float32"
        assert restored.transformer._groups[0].weights.dtype == np.float32

    def test_float32_bank_into_float64_path_fails_loudly(self, tmp_path,
                                                         fitted_model):
        target = save_model(fitted_model, tmp_path / "m.npz", dtype="float32")
        with pytest.raises(ValueError, match="float32.*float64"):
            load_model(target, require_dtype="float64")

    def test_matching_requirement_loads(self, tmp_path, fitted_model, panel):
        target = save_model(fitted_model, tmp_path / "m.npz", dtype="float32")
        restored = load_model(target, require_dtype="float32")
        assert restored.bank_dtype_ == "float32"
        restored.set_inference_policy(INFERENCE_POLICY)
        report = parity_report(fitted_model, panel[0], INFERENCE_POLICY)
        assert report.ok

    def test_legacy_archive_defaults_to_float64(self, tmp_path, fitted_model):
        target = save_model(fitted_model, tmp_path / "m.npz")
        assert load_model(target, require_dtype="float64").bank_dtype_ \
            == "float64"

    def test_unsupported_save_dtype_rejected(self, tmp_path, fitted_model):
        with pytest.raises(ValueError, match="float16"):
            save_model(fitted_model, tmp_path / "m.npz", dtype="float16")


#: the execution engines manifests recorded before the policy became a
#: bare dtype — the default, and the retired JIT engine (its name split
#: so the tree names it nowhere else)
LEGACY_ENGINES = ("numpy", "num" "ba")


class TestRegistryPolicy:
    def test_publish_records_policy_and_load_honours_it(self, tmp_path,
                                                        fitted_model, panel):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(fitted_model, "demo",
                                  metadata=model_metadata(fitted_model),
                                  dtype="float32",
                                  compute_policy=INFERENCE_POLICY,
                                  parity_panel=panel[0])
        assert record.metadata["compute_policy"] == {"dtype": "float32"}
        assert record.metadata["bank_dtype"] == "float32"
        loaded, _ = registry.load("demo")
        assert loaded.compute_policy == INFERENCE_POLICY
        assert loaded.transformer._bank is not None
        np.testing.assert_array_equal(loaded.predict(panel[0]),
                                      fitted_model.predict(panel[0]))

    @pytest.mark.parametrize("engine", LEGACY_ENGINES)
    def test_manifest_with_legacy_engine_loads_and_serves_float32(
            self, tmp_path, fitted_model, panel, engine):
        """Manifests written while the policy also named an execution
        engine keep loading, and serve under the recorded float32."""
        registry = ModelRegistry(tmp_path / "registry")
        metadata = dict(model_metadata(fitted_model), compute_policy={
            "dtype": "float32", "engine": engine})
        registry.publish(fitted_model, "demo", metadata=metadata)
        loaded, record = registry.load("demo")
        assert record.metadata["compute_policy"]["engine"] == engine
        assert loaded.compute_policy == INFERENCE_POLICY
        assert loaded.transformer._bank.dtype == np.float32
        series = panel[0][:4]
        service = PredictionService(registry)
        try:
            served = service.predict("demo", list(series), return_proba=True)
        finally:
            service.close()
        assert served["labels"] == loaded.predict(series).tolist()
        np.testing.assert_allclose(served["probas"],
                                   loaded.predict_proba(series), atol=1e-6)

    def test_registry_load_is_zero_copy(self, tmp_path, fitted_model):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted_model, "demo")
        loaded, _ = registry.load("demo")
        assert is_mmap_backed(loaded.transformer._groups[0].weights)


class TestEvictionReload:
    @pytest.fixture
    def lru_service(self, tmp_path, panel):
        X, y = panel
        registry = ModelRegistry(tmp_path / "registry")
        for name in ("alpha", "beta"):
            model = RocketClassifier(num_kernels=40, seed=3).fit(X, y)
            registry.publish(model, name, metadata=model_metadata(model))
        service = PredictionService(registry, max_loaded_models=1,
                                    max_queue=64)
        yield service
        service.close()

    def test_reload_after_eviction_stays_mmap_backed(self, lru_service,
                                                     panel):
        X = panel[0]
        assert lru_service.predict("alpha", list(X[:2]))["model"] == "alpha"
        assert lru_service.predict("beta", list(X[:2]))["model"] == "beta"
        # alpha was LRU-evicted by beta; this predict reloads it.
        first = lru_service.predict("alpha", list(X[:4]))
        with lru_service._lock:
            ((_, version),) = list(lru_service._loaded)
        model, _ = lru_service.registry.load("alpha")
        assert is_mmap_backed(model.transformer._groups[0].weights)
        again = lru_service.predict("alpha", list(X[:4]))
        assert first["labels"] == again["labels"]

    def test_mid_request_eviction_self_heals_via_retry(self, lru_service,
                                                       panel):
        """A batcher closed by eviction between _resolve and submit is
        retried once against a fresh load — the request still answers."""
        X = panel[0]
        record, batcher = lru_service._resolve("alpha", None)
        batcher.close()  # simulate the LRU closing it under the caller
        result = lru_service.predict("alpha", list(X[:3]))
        assert result["model"] == "alpha"
        assert len(result["labels"]) == 3
