"""The grid execution engine: decomposition, parallelism, checkpointing.

The engine's core promise is that execution strategy never changes
results: ``jobs=4`` equals ``jobs=1`` cell for cell, a resumed grid
equals an uninterrupted one, and a cache hit equals a recomputation.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro._rng import derive_seed, resolve_master_seed
from repro.cache import ArtifactCache, caching, feature_cache
from repro.experiments import (
    BASELINE,
    GridCheckpoint,
    GridJob,
    evaluate,
    execute_jobs,
    plan_grid,
    rocket_spec,
    run_grid,
)

MICRO = dict(datasets=["Epilepsy", "RacketSports"], techniques=("noise1",), n_runs=2, seed=0)
#: the paper grid's default-seed accuracies, as the grid benchmark checks them
GRID_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "grid_reference.json"


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, "model", "Epilepsy", 1) == derive_seed(0, "model", "Epilepsy", 1)

    def test_distinct_across_key_paths(self):
        seeds = {
            derive_seed(0, "model", "Epilepsy", 0),
            derive_seed(0, "model", "Epilepsy", 1),
            derive_seed(0, "model", "RacketSports", 0),
            derive_seed(0, "augment", "Epilepsy", 0),
            derive_seed(1, "model", "Epilepsy", 0),
        }
        assert len(seeds) == 5

    def test_master_seed_passthrough(self):
        assert resolve_master_seed(7) == 7
        assert resolve_master_seed(np.int64(7)) == 7

    def test_master_seed_from_generator_is_reproducible(self):
        a = resolve_master_seed(np.random.default_rng(3))
        b = resolve_master_seed(np.random.default_rng(3))
        assert a == b


class TestPlanGrid:
    def test_job_count_and_order(self):
        jobs = plan_grid("rocket", ["a", "b"], ("noise1", "smote"), n_runs=3, master_seed=0)
        assert len(jobs) == 2 * 3 * 3  # datasets x (baseline + 2) x runs
        assert jobs[0].key == ("a", "rocket", BASELINE, 0)

    def test_seeds_depend_on_identity_not_position(self):
        """A subset grid keeps the seeds of the cells it shares."""
        full = plan_grid("rocket", ["a", "b"], ("noise1", "smote"), n_runs=2, master_seed=0)
        subset = plan_grid("rocket", ["b"], ("smote",), n_runs=2, master_seed=0)
        full_by_key = {job.key: job for job in full}
        for job in subset:
            assert full_by_key[job.key] == job

    def test_model_seed_shared_across_techniques(self):
        """Paired design: one model per (dataset, run), whatever the technique."""
        jobs = plan_grid("rocket", ["a"], ("noise1", "smote"), n_runs=1, master_seed=0)
        model_seeds = {job.model_seed for job in jobs}
        aug_seeds = {job.aug_seed for job in jobs}
        assert len(model_seeds) == 1
        assert len(aug_seeds) == len(jobs)

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            plan_grid("rocket", ["a"], (), n_runs=0, master_seed=0)


class TestParallelDeterminism:
    def test_jobs4_equals_jobs1_cell_for_cell(self):
        sequential = run_grid(rocket_spec(100), **MICRO, jobs=1)
        parallel = run_grid(rocket_spec(100), **MICRO, jobs=4)
        assert sequential.cells.keys() == parallel.cells.keys()
        for key, cell in sequential.cells.items():
            assert cell.accuracies == parallel.cells[key].accuracies, key

    def test_grid_cell_matches_standalone_evaluate(self):
        """Decomposition invariance: a cell is the same computed alone."""
        from repro.data import load_dataset

        grid = run_grid(rocket_spec(100), **MICRO)
        train, test = load_dataset("Epilepsy", scale="small")
        cell = evaluate(train, test, rocket_spec(100), "noise1", n_runs=2, seed=0)
        assert cell.accuracies == grid.cells[("Epilepsy", "noise1")].accuracies

    def test_minirocket_spec_parallel_determinism(self):
        """A value-dependent transform (MiniRocket) takes the joint-fit
        path for augmented cells and still satisfies jobs=N == jobs=1."""
        from repro.classifiers import MiniRocketClassifier
        from repro.experiments import ModelSpec

        spec = ModelSpec(
            name="minirocket",
            build=lambda rng: MiniRocketClassifier(num_features=168, seed=rng),
            config="minirocket(num_features=168)",
        )
        kwargs = dict(datasets=["RacketSports"], techniques=("noise1",), n_runs=2, seed=0)
        sequential = run_grid(spec, **kwargs, jobs=1)
        parallel = run_grid(spec, **kwargs, jobs=4)
        for key, cell in sequential.cells.items():
            assert cell.accuracies == parallel.cells[key].accuracies, key

    def test_caching_does_not_change_results(self):
        from repro.data import load_dataset

        train, test = load_dataset("RacketSports", scale="small")
        cold = evaluate(train, test, rocket_spec(100), "smote", n_runs=2, seed=5)
        with caching():
            warm = evaluate(train, test, rocket_spec(100), "smote", n_runs=2, seed=5)
            warm_again = evaluate(train, test, rocket_spec(100), "smote", n_runs=2, seed=5)
        assert cold.accuracies == warm.accuracies == warm_again.accuracies


class TestHistoricalBits:
    def test_grid_cells_equal_the_committed_reference(self):
        """Three datasets of the default-seed paper grid (ROCKET + ridge,
        baseline and four techniques, five runs each) reproduce the
        committed accuracies bit for bit: a change to the archive, the
        augmenters, the transform or the ridge head that moves a grid
        accuracy fails here, not only in the benchmark."""
        reference = json.loads(GRID_REFERENCE.read_text(encoding="utf-8"))
        datasets = ["CharacterTrajectories", "PenDigits", "RacketSports"]
        grid = run_grid(rocket_spec(reference["kernels"]), datasets=datasets,
                        techniques=tuple(reference["techniques"]),
                        n_runs=reference["n_runs"], scale=reference["scale"],
                        seed=reference["seed"])
        assert len(grid.cells) == 15
        for (dataset, technique), cell in grid.cells.items():
            key = f"{dataset}/{technique}"
            assert list(cell.accuracies) == reference["accuracies"][key], key


class TestCheckpointResume:
    def _checkpoint_lines(self, path):
        return path.read_text().splitlines()

    def test_full_run_writes_header_and_all_cells(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        run_grid(rocket_spec(100), **MICRO, checkpoint=path)
        lines = self._checkpoint_lines(path)
        assert json.loads(lines[0])["kind"] == "grid-meta"
        assert len(lines) == 1 + 2 * 2 * 2  # header + datasets x cells x runs

    def test_resume_runs_only_missing_cells(self, tmp_path, monkeypatch):
        path = tmp_path / "grid.jsonl"
        reference = run_grid(rocket_spec(100), **MICRO, checkpoint=path)
        lines = self._checkpoint_lines(path)
        kept = 4  # header + 3 completed jobs; 5 jobs remain
        path.write_text("\n".join(lines[:kept]) + "\n")

        import repro.experiments.engine as engine

        executed = []
        original = engine.run_single

        def counting_run_single(*args, **kwargs):
            executed.append(kwargs["model_seed"])
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "run_single", counting_run_single)
        resumed = run_grid(rocket_spec(100), **MICRO, checkpoint=path, resume=True)
        assert len(executed) == 8 - (kept - 1)
        for key, cell in reference.cells.items():
            assert cell.accuracies == resumed.cells[key].accuracies, key
        assert len(self._checkpoint_lines(path)) == 9

    def test_truncated_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        reference = run_grid(rocket_spec(100), **MICRO, checkpoint=path)
        content = path.read_text()
        path.write_text(content.rsplit("\n", 2)[0][:-10] + "\n")  # corrupt last row
        resumed = run_grid(rocket_spec(100), **MICRO, checkpoint=path, resume=True)
        for key, cell in reference.cells.items():
            assert cell.accuracies == resumed.cells[key].accuracies, key

    def test_existing_checkpoint_without_resume_refused(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        run_grid(rocket_spec(100), **MICRO, checkpoint=path)
        with pytest.raises(ValueError, match="resume"):
            run_grid(rocket_spec(100), **MICRO, checkpoint=path)

    def test_mismatched_grid_rejected(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        run_grid(rocket_spec(100), **MICRO, checkpoint=path)
        with pytest.raises(ValueError, match="different grid"):
            run_grid(rocket_spec(100), datasets=MICRO["datasets"],
                     techniques=MICRO["techniques"], n_runs=2, seed=1,
                     checkpoint=path, resume=True)

    def test_mismatched_model_config_rejected(self, tmp_path):
        """Same model name, different hyperparameters: numbers must not mix."""
        path = tmp_path / "grid.jsonl"
        run_grid(rocket_spec(100), **MICRO, checkpoint=path)
        with pytest.raises(ValueError, match="different grid"):
            run_grid(rocket_spec(200), **MICRO, checkpoint=path, resume=True)

    def test_checkpoint_roundtrip(self, tmp_path):
        checkpoint = GridCheckpoint(tmp_path / "cells.jsonl")
        checkpoint.start({"model": "rocket"})
        job = GridJob("Epilepsy", "rocket", "noise1", 0, 11, 22)
        checkpoint.append(job, 0.75)
        loaded = checkpoint.load({"model": "rocket"})
        assert loaded == {job.key: 0.75}


class TestCheckpointCorruption:
    """A checkpoint that survived a crash must resume or refuse cleanly."""

    JOB = GridJob("Epilepsy", "rocket", "noise1", 0, 11, 22)

    def _fresh(self, tmp_path):
        checkpoint = GridCheckpoint(tmp_path / "cells.jsonl")
        checkpoint.start({"model": "rocket"})
        return checkpoint

    def test_duplicate_job_rows_keep_the_last(self, tmp_path):
        """A cell re-run after a crash appends a fresh row; the newest
        record wins and the job is not re-run a third time."""
        checkpoint = self._fresh(tmp_path)
        checkpoint.append(self.JOB, 0.25)
        checkpoint.append(self.JOB, 0.75)
        assert checkpoint.load({"model": "rocket"}) == {self.JOB.key: 0.75}

    def test_corrupt_header_refused(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        path.write_text('{"kind": "grid-meta", "model": "roc\n')  # torn line 1
        with pytest.raises(ValueError, match="corrupt or missing header"):
            GridCheckpoint(path).load({"model": "rocket"})

    def test_non_checkpoint_file_refused(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        path.write_text('{"hello": "world"}\n')  # valid JSON, wrong kind
        with pytest.raises(ValueError, match="corrupt or missing header"):
            GridCheckpoint(path).load({"model": "rocket"})

    def test_half_written_rows_are_rerun(self, tmp_path):
        """Rows missing fields or carrying junk accuracies are skipped, so
        their jobs re-run instead of poisoning the resumed grid."""
        checkpoint = self._fresh(tmp_path)
        checkpoint.append(self.JOB, 0.5)
        with open(checkpoint.path, "a") as handle:
            handle.write('{"kind": "cell", "dataset": "Epilepsy"}\n')
            handle.write('{"kind": "cell", "dataset": "Epilepsy", '
                         '"model": "rocket", "technique": "noise3", '
                         '"run": 0, "accuracy": "oops"}\n')
            handle.write('["kind", "cell"]\n')
        assert checkpoint.load({"model": "rocket"}) == {self.JOB.key: 0.5}

    def test_truncated_header_only_file_resumes_empty(self, tmp_path):
        checkpoint = self._fresh(tmp_path)
        assert checkpoint.load({"model": "rocket"}) == {}


class TestExecuteJobs:
    def test_rejects_bad_job_count(self):
        with pytest.raises(ValueError):
            execute_jobs([], rocket_spec(100), n_jobs=0)

    def test_custom_augmenter_instances(self):
        """Pre-built instances (e.g. budget-reduced TimeGAN) are honoured."""
        from repro.augmentation import NoiseInjection

        instance = NoiseInjection(2.0)
        instance.name = "noise-custom"
        jobs = plan_grid("rocket", ["RacketSports"], ("noise-custom",),
                         n_runs=1, master_seed=0)
        results = execute_jobs(jobs, rocket_spec(100),
                               augmenters={"noise-custom": instance})
        assert set(results) == {job.key for job in jobs}
        assert all(0.0 <= acc <= 1.0 for acc in results.values())


class TestArtifactCache:
    def test_get_or_create_and_stats(self):
        cache = ArtifactCache()
        value = cache.get_or_create(("k",), lambda: np.arange(3))
        again = cache.get_or_create(("k",), lambda: np.arange(99))
        np.testing.assert_array_equal(value, again)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_cached_arrays_are_read_only(self):
        cache = ArtifactCache()
        cache.put(("k",), np.arange(3))
        with pytest.raises(ValueError):
            cache.get(("k",))[0] = 5

    def test_eviction_bounds_memory(self):
        cache = ArtifactCache(max_bytes=1000)
        for index in range(10):
            cache.put(("k", index), np.zeros(50))  # 400 bytes each
        assert cache.stats.current_bytes <= 1000
        assert cache.stats.evictions > 0

    def test_feature_cache_reused_across_grid(self):
        """The engine's sequential path hits the cache across techniques."""
        feature_cache().clear()
        run_grid(rocket_spec(100), **MICRO)
        assert feature_cache().stats.hits > 0
