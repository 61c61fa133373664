"""The sparse ISVD fit-to-publish path: pooled gram products, the top-r
eigensolver, single-threaded scipy LAPACK, the scipy-free assignment solver
and stored factor archives."""

import os
import subprocess
import sys
import threading
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import common_settings

import repro
from repro import hardware
from repro import io as repro_io
from repro.core.ilsa import linear_sum_assignment
from repro.core.isvd import isvd, truncated_eigh
from repro.interval import kernels
from repro.interval.array import IntervalMatrix
from repro.interval.kernels import _hull
from repro.interval.linalg import interval_gram, safe_inverse
from repro.interval.random import random_interval_matrix
from repro.interval.sparse import SparseIntervalMatrix
from repro.serve.shard import ShardedModelStore
from repro.serve.store import ModelStore


def _sparse_matrix(seed: int, dtype=np.float64) -> SparseIntervalMatrix:
    dense = random_interval_matrix((60, 25), matrix_density=0.3,
                                   interval_density=0.7,
                                   interval_intensity=0.8, rng=seed)
    if np.dtype(dtype) != dense.dtype:
        dense = dense.astype(np.dtype(dtype), outward=True)
    return SparseIntervalMatrix.from_dense(dense)


def _recompress(path) -> None:
    """Rewrite an archive the way stores before stored archives wrote it."""
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    path.unlink()
    np.savez_compressed(path, **members)


# --------------------------------------------------------------------------- #
# Pooled sparse gram
# --------------------------------------------------------------------------- #
class TestPooledSparseGram:
    @pytest.mark.parametrize("kernel", ["endpoint4", "rump"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cores", [2, 3])
    def test_pool_is_byte_identical_to_inline(self, monkeypatch, kernel,
                                              dtype, seed, cores):
        matrix = _sparse_matrix(seed, dtype)
        monkeypatch.setattr(kernels, "usable_cpu_count", lambda: cores)
        pooled = interval_gram(matrix, kernel=kernel)
        monkeypatch.setattr(kernels, "usable_cpu_count", lambda: 1)
        inline = interval_gram(matrix, kernel=kernel)
        assert pooled.lower.dtype == inline.lower.dtype == np.dtype(dtype)
        assert pooled.lower.tobytes() == inline.lower.tobytes()
        assert pooled.upper.tobytes() == inline.upper.tobytes()

    def test_single_core_runs_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started on one core")

        monkeypatch.setattr(kernels, "usable_cpu_count", lambda: 1)
        monkeypatch.setattr(kernels, "ThreadPoolExecutor", no_pool)
        interval_gram(_sparse_matrix(0), kernel="endpoint4")

    def test_empty_and_skewed_rows(self, monkeypatch):
        # One dense column carries all the work, so the row cuts land on it;
        # all-zero columns give empty gram rows.
        dense = np.zeros((40, 6))
        dense[:, 2] = np.arange(1.0, 41.0)
        dense[::7, 4] = 1.0
        matrix = SparseIntervalMatrix.from_dense(
            IntervalMatrix(dense, dense + (dense > 0)))
        monkeypatch.setattr(kernels, "usable_cpu_count", lambda: 3)
        pooled = interval_gram(matrix, kernel="endpoint4")
        monkeypatch.setattr(kernels, "usable_cpu_count", lambda: 1)
        inline = interval_gram(matrix, kernel="endpoint4")
        assert pooled.lower.tobytes() == inline.lower.tobytes()
        assert pooled.upper.tobytes() == inline.upper.tobytes()

    def test_pool_width_is_capped_by_products(self, monkeypatch):
        widths = []
        real = kernels.ThreadPoolExecutor

        def recording(max_workers):
            widths.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(kernels, "usable_cpu_count", lambda: 64)
        monkeypatch.setattr(kernels, "ThreadPoolExecutor", recording)
        interval_gram(_sparse_matrix(0), kernel="rump")
        assert widths == [3]

    def test_each_product_is_cut_into_ranges_per_thread(self, monkeypatch):
        submitted = []
        real = kernels.ThreadPoolExecutor

        class Recording(real):
            def submit(self, fn, *args):
                submitted.append(args[3:])  # (start, stop)
                return super().submit(fn, *args)

        monkeypatch.setattr(kernels, "usable_cpu_count", lambda: 2)
        monkeypatch.setattr(kernels, "ThreadPoolExecutor", Recording)
        matrix = _sparse_matrix(1)
        interval_gram(matrix, kernel="endpoint4")
        ranges = 2 * kernels._RANGES_PER_THREAD
        assert len(submitted) == 3 * ranges
        rows = matrix.shape[1]
        for product in range(3):
            cuts = submitted[product * ranges:(product + 1) * ranges]
            assert cuts[0][0] == 0 and cuts[-1][1] == rows
            assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))


class TestHull:
    @settings(**common_settings(max_examples=50))
    @given(st.integers(0, 10_000), st.integers(2, 5), st.booleans())
    def test_matches_stacked_reduction_bit_for_bit(self, seed, count, zeros):
        rng = np.random.default_rng(seed)
        candidates = [rng.normal(size=(4, 3)) for _ in range(count)]
        if zeros:  # signed zeros are where a reordered reduction would show
            for candidate in candidates:
                candidate[rng.random((4, 3)) < 0.5] = rng.choice([0.0, -0.0])
        lower, upper = _hull(candidates)
        stacked = np.stack(candidates)
        assert lower.tobytes() == stacked.min(axis=0).tobytes()
        assert upper.tobytes() == stacked.max(axis=0).tobytes()

    def test_scalar_candidates(self):
        lower, upper = _hull([np.float64(2.0), np.float64(-1.0), np.float64(3.0)])
        assert (lower, upper) == (-1.0, 3.0)


# --------------------------------------------------------------------------- #
# Top-r eigensolver
# --------------------------------------------------------------------------- #
def _symmetric(n: int, eigenvalues, seed: int = 0) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return (q * np.asarray(eigenvalues, dtype=float)) @ q.T


def _assert_same_up_to_sign(actual, expected, atol):
    signs = np.sign(np.sum(actual * expected, axis=0))
    np.testing.assert_allclose(actual * signs, expected, atol=atol)


def _full_reference(matrix, rank, dtype=np.float64):
    matrix = np.asarray(matrix, dtype=dtype)
    values, vectors = np.linalg.eigh(0.5 * (matrix + matrix.T))
    order = np.argsort(values)[::-1][:rank]
    return vectors[:, order], np.sqrt(np.clip(values[order], 0.0, None))


class TestTruncatedEigh:
    @pytest.mark.parametrize("rank", [1, 4, 12])
    def test_matches_full_eigh(self, rank):
        n = 12
        matrix = _symmetric(n, np.linspace(1.0, 12.0, n), seed=rank)
        vectors, values = truncated_eigh(matrix, rank)
        ref_vectors, ref_values = _full_reference(matrix, rank)
        assert vectors.shape == (n, rank) and values.shape == (rank,)
        np.testing.assert_allclose(values, ref_values, rtol=1e-12)
        _assert_same_up_to_sign(vectors, ref_vectors, atol=1e-10)

    def test_rank_above_n_is_clamped(self):
        matrix = _symmetric(5, [1.0, 2.0, 3.0, 4.0, 5.0])
        vectors, values = truncated_eigh(matrix, 9)
        assert vectors.shape == (5, 5)
        np.testing.assert_allclose(values, np.sqrt([5.0, 4.0, 3.0, 2.0, 1.0]),
                                   rtol=1e-12)

    def test_negative_eigenvalues_are_clipped(self):
        matrix = _symmetric(6, [4.0, 1.0, -1.0, -2.0, -3.0, -5.0], seed=3)
        vectors, values = truncated_eigh(matrix, 4)
        np.testing.assert_allclose(values, [2.0, 1.0, 0.0, 0.0], rtol=1e-12,
                                   atol=0.0)
        ref_vectors, ref_values = _full_reference(matrix, 4)
        np.testing.assert_allclose(values, ref_values, rtol=1e-12)
        _assert_same_up_to_sign(vectors, ref_vectors, atol=1e-10)

    def test_float32_input_computes_in_float64_by_default(self):
        matrix = _symmetric(10, np.linspace(1.0, 10.0, 10), seed=7)
        narrow = matrix.astype(np.float32)
        vectors, values = truncated_eigh(narrow, 3)
        assert values.dtype == np.float64
        ref_vectors, ref_values = _full_reference(narrow, 3)
        np.testing.assert_allclose(values, ref_values, rtol=1e-12)
        _assert_same_up_to_sign(vectors, ref_vectors, atol=1e-10)

    def test_float32_compute_dtype(self):
        matrix = _symmetric(10, np.linspace(1.0, 10.0, 10), seed=8)
        vectors, values = truncated_eigh(matrix, 3, dtype=np.float32)
        assert vectors.dtype == values.dtype == np.float32
        ref_vectors, ref_values = _full_reference(matrix, 3, np.float32)
        tolerance = 100 * float(np.finfo(np.float32).eps)
        np.testing.assert_allclose(values, ref_values, rtol=tolerance)
        _assert_same_up_to_sign(vectors, ref_vectors, atol=tolerance)


# --------------------------------------------------------------------------- #
# Single-threaded scipy LAPACK for the fit
# --------------------------------------------------------------------------- #
class _FakeBlas:
    """A stand-in OpenBLAS thread control that records every count it gets."""

    def __init__(self, threads: int):
        self.threads = threads
        self.history = []

    def control(self):
        def set_threads(n):
            self.threads = n
            self.history.append(n)

        return (lambda: self.threads), set_threads


@pytest.fixture
def fake_blas(monkeypatch):
    blas = _FakeBlas(threads=4)
    monkeypatch.setattr(hardware, "_thread_controls", lambda paths: (blas.control(),))
    return blas


class TestSingleThreadedScipyLapack:
    def test_limits_inside_and_restores_after(self, fake_blas):
        with hardware.single_threaded_scipy_lapack():
            assert fake_blas.threads == 1
        assert fake_blas.threads == 4
        assert fake_blas.history == [1, 4]

    def test_restores_after_an_exception(self, fake_blas):
        with pytest.raises(RuntimeError):
            with hardware.single_threaded_scipy_lapack():
                raise RuntimeError("boom")
        assert fake_blas.threads == 4

    def test_nested_blocks_restore_once(self, fake_blas):
        with hardware.single_threaded_scipy_lapack():
            with hardware.single_threaded_scipy_lapack():
                assert fake_blas.threads == 1
            assert fake_blas.threads == 1
        assert fake_blas.history == [1, 4]

    def test_overlapping_threads_keep_the_limit_until_the_last_leaves(self, fake_blas):
        entered, release = threading.Event(), threading.Event()

        def hold():
            with hardware.single_threaded_scipy_lapack():
                entered.set()
                release.wait(10)

        other = threading.Thread(target=hold)
        other.start()
        assert entered.wait(10)
        with hardware.single_threaded_scipy_lapack():
            assert fake_blas.threads == 1
        assert fake_blas.threads == 1  # the other thread is still inside
        release.set()
        other.join(10)
        assert fake_blas.threads == 4
        assert fake_blas.history == [1, 4]

    def test_stress_many_threads_never_lose_the_limit(self, fake_blas):
        inside_counts = []
        start = threading.Barrier(8)

        def churn():
            start.wait(10)
            for _ in range(200):
                with hardware.single_threaded_scipy_lapack():
                    inside_counts.append(fake_blas.threads)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(inside_counts) == 8 * 200
        assert set(inside_counts) == {1}
        assert fake_blas.threads == 4
        assert hardware._blas_users == 0

    def test_fit_lapack_calls_run_on_one_thread(self, fake_blas, monkeypatch):
        import scipy.linalg

        seen = []
        real_eigh, real_svd = scipy.linalg.eigh, scipy.linalg.svd

        def eigh(*args, **kwargs):
            seen.append(("eigh", fake_blas.threads))
            return real_eigh(*args, **kwargs)

        def svd(*args, **kwargs):
            seen.append(("svd", fake_blas.threads))
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        monkeypatch.setattr(scipy.linalg, "svd", svd)
        truncated_eigh(_symmetric(6, np.arange(1.0, 7.0)), 2)
        safe_inverse(np.random.default_rng(0).normal(size=(9, 3)))
        assert seen == [("eigh", 1), ("svd", 1)]
        assert fake_blas.threads == 4

    def test_numpy_blas_keeps_its_threads(self):
        # Other threads' numpy BLAS calls must not see their thread count
        # change under them: the threaded experiment engine reproduces the
        # serial run bit for bit only if they do not.
        import ctypes
        import scipy.linalg  # noqa: F401 - maps scipy's OpenBLAS too

        numpy_blas = []
        for path in hardware._openblas_paths():
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            if hasattr(library, "scipy_openblas_get_num_threads64_"):
                numpy_blas.append(library.scipy_openblas_get_num_threads64_)
        if not numpy_blas:
            pytest.skip("numpy does not carry its own OpenBLAS here")
        before = [get() for get in numpy_blas]
        with hardware.single_threaded_scipy_lapack():
            assert [get() for get in numpy_blas] == before

    def test_real_openblas_is_limited_and_restored(self):
        import scipy.linalg  # noqa: F401 - maps scipy's OpenBLAS too

        controls = hardware._thread_controls(hardware._openblas_paths())
        if not controls:
            pytest.skip("no OpenBLAS loaded in this process")
        before = [get() for get, _ in controls]
        with hardware.single_threaded_scipy_lapack():
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == before


# --------------------------------------------------------------------------- #
# Assignment solver
# --------------------------------------------------------------------------- #
_lsap_shapes = st.tuples(st.integers(1, 8), st.integers(0, 3),
                         st.integers(0, 10_000))


class TestLinearSumAssignment:
    def _assert_matches_scipy(self, cost):
        from scipy.optimize import linear_sum_assignment as scipy_lsap

        rows, cols = linear_sum_assignment(cost)
        ref_rows, ref_cols = scipy_lsap(cost)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(cols, ref_cols)

    @settings(**common_settings(max_examples=100))
    @given(_lsap_shapes)
    def test_random_costs(self, params):
        rows, extra, seed = params
        cost = np.random.default_rng(seed).normal(size=(rows, rows + extra))
        self._assert_matches_scipy(cost)

    @settings(**common_settings(max_examples=100))
    @given(_lsap_shapes, st.integers(1, 3))
    def test_integer_costs(self, params, levels):
        rows, extra, seed = params
        rng = np.random.default_rng(seed)
        self._assert_matches_scipy(
            rng.integers(0, levels + 1, size=(rows, rows + extra)).astype(float))

    @settings(**common_settings(max_examples=100))
    @given(_lsap_shapes, st.floats(0.0, 1.0))
    def test_tied_costs(self, params, share):
        rows, extra, seed = params
        rng = np.random.default_rng(seed)
        cost = np.full((rows, rows + extra), 0.5)
        cost[rng.random(cost.shape) < share] = -0.25
        self._assert_matches_scipy(cost)

    def test_constant_cost_is_identity(self):
        rows, cols = linear_sum_assignment(np.ones((5, 5)))
        np.testing.assert_array_equal(cols, np.arange(5))

    @pytest.mark.parametrize("cost", [np.ones((3, 2)), np.ones(3),
                                      np.array([[0.0, np.nan], [1.0, 0.0]])])
    def test_rejects_bad_costs(self, cost):
        from repro.core.ilsa import AlignmentError

        with pytest.raises(AlignmentError):
            linear_sum_assignment(cost)

    def test_isvd4_fit_does_not_import_scipy_optimize(self):
        probe = (
            "import sys\n"
            "from repro.core.isvd import isvd\n"
            "from repro.interval.random import random_interval_matrix\n"
            "from repro.interval.sparse import SparseIntervalMatrix\n"
            "dense = random_interval_matrix((30, 12), matrix_density=0.4, rng=0)\n"
            "isvd(SparseIntervalMatrix.from_dense(dense), 4, method='isvd4')\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        environment = dict(os.environ)
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, environment.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", probe], env=environment,
                                check=True, capture_output=True, text=True,
                                timeout=120)
        assert result.stdout.split() == ["False"]


# --------------------------------------------------------------------------- #
# Stored (uncompressed) factor archives
# --------------------------------------------------------------------------- #
@pytest.fixture
def fitted():
    matrix = random_interval_matrix((12, 9), interval_density=1.0, rng=4)
    return matrix, isvd(matrix, 3, method="isvd4", target="b")


class TestStoredArchives:
    def test_store_archive_members_are_stored(self, tmp_path, fitted):
        matrix, decomposition = fitted
        store = ModelStore(tmp_path / "models")
        store.save("m", decomposition, matrix=matrix)
        with zipfile.ZipFile(store._npz_path("m")) as archive:
            members = archive.infolist()
        assert members
        assert {member.compress_type for member in members} == {zipfile.ZIP_STORED}

    def test_shard_archive_members_are_stored(self, tmp_path, fitted):
        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        record = store.save_sharded("m", decomposition, 2, matrix=matrix)
        for index in range(2):
            with zipfile.ZipFile(store._shard_path("m", index,
                                                   record.generation)) as archive:
                types = {member.compress_type for member in archive.infolist()}
            assert types == {zipfile.ZIP_STORED}

    def test_legacy_compressed_archive_loads(self, tmp_path, fitted):
        matrix, decomposition = fitted
        store = ModelStore(tmp_path / "models")
        store.save("m", decomposition, matrix=matrix)
        _recompress(store._npz_path("m"))
        with zipfile.ZipFile(store._npz_path("m")) as archive:
            assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_DEFLATED}
        loaded, record = ModelStore(tmp_path / "models").load("m")
        assert record.name == "m"
        assert (repro_io.decomposition_fingerprint(loaded)
                == repro_io.decomposition_fingerprint(decomposition))

    def test_legacy_compressed_shards_load(self, tmp_path, fitted):
        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        record = store.save_sharded("m", decomposition, 3, matrix=matrix)
        for index in range(3):
            _recompress(store._shard_path("m", index, record.generation))
        shards, manifest = ShardedModelStore(tmp_path / "models").load_shards("m")
        assert len(shards) == 3
        assert [repro_io.decomposition_fingerprint(s) for s in shards] == list(
            manifest.fingerprints)
        merged, _ = store.load_merged("m")
        np.testing.assert_array_equal(merged.u_scalar(), decomposition.u_scalar())
