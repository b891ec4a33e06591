"""Parallel clipped-gradient fan-out for Algorithm 2 (lines 4-6).

Every DP-SGD iteration computes ``B`` independent per-subgraph gradients
(forward, Eq. 5 loss, backward, clip).  This module fans them out over
**persistent shared-memory workers** and reduces them in deterministic
batch-index order, so the summed gradient — and therefore the noise draw,
accountant state, and final weights — is bit-identical for every worker
count *and* every ``grad_mode``.  The guarantee rests on:

1. **Per-subgraph gradient computation consumes no randomness.**  The
   forward/backward pass is a pure function of (weights, subgraph); the
   batch-selection and noise generators never leave the coordinator,
   exactly as in the serial loop.
2. **Order-preserving chunking with in-place reduction slots.**  The batch
   is split into contiguous chunks; each worker writes its per-subgraph
   results into *disjoint rows* of a preallocated shared results block, so
   the coordinator reads them back in batch-index order no matter which
   worker finished first — the same float additions, in the same order, as
   the serial loop.
3. **Zero-copy state.**  Workers are spawned once per training run and
   inherit the container's compute plans (zero-copy under ``fork``).  Per
   iteration only the flat weight vector is written into a shared-memory
   segment every worker reads directly — no per-task pickling of weights,
   tasks, or gradients.

Two gradient execution strategies share the fan-out (``GRAD_MODES``):
``"loop"`` runs one forward/backward per subgraph (the differential-testing
oracle); ``"vectorized"`` batches each chunk's subgraphs into one
disjoint-union pass (:mod:`repro.core.batched_grad`).  Both produce
byte-identical triples, which ``tests/oracles.py`` asserts.

``grad_workers`` and ``grad_mode`` are execution details with no effect on
results, which is why the trainer's checkpoint privacy fingerprint
excludes them.

Fault model: a worker that dies mid-batch (OOM kill, segfault) is detected
by liveness polling and raises :class:`~repro.errors.TrainingError` — the
batch is abandoned whole, never partially reduced.  :meth:`GradientFanout.close`
(also run by the trainer's ``close()``/context exit) joins the workers and
unlinks every shared-memory segment, including after exceptions.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import queue as queue_module
from multiprocessing import shared_memory

import numpy as np

from repro.core.batched_grad import batched_subgraph_gradients, subgraph_gradient
from repro.core.compute_plan import ComputePlanCache
from repro.core.loss import PenaltyLossConfig
from repro.errors import TrainingError
from repro.gnn.models import GNN
from repro.nn import kernels
from repro.sampling.parallel import resolve_workers

__all__ = [
    "GRAD_MODES",
    "GradientFanout",
    "subgraph_gradient",
    "resolve_workers",
]

#: Supported gradient execution strategies (see module docstring).
GRAD_MODES = ("loop", "vectorized")

#: Liveness-poll interval while waiting on worker results.
_POLL_SECONDS = 0.2


def _compute_gradients(
    model: GNN,
    plans: ComputePlanCache,
    indices,
    loss_config: PenaltyLossConfig,
    clip_bound: float | None,
    grad_mode: str,
) -> list[tuple[np.ndarray, float, float]]:
    """The shared dispatcher: one chunk of indices -> triples, either mode."""
    indices = [int(index) for index in indices]
    if grad_mode == "vectorized" and len(indices) > 1:
        return batched_subgraph_gradients(
            model, plans, indices, loss_config, clip_bound
        )
    return [
        subgraph_gradient(model, plans.plan(index), loss_config, clip_bound)
        for index in indices
    ]


def _merge_stats(target: dict[str, int], delta: dict[str, int]) -> None:
    for name, value in delta.items():
        target[name] = target.get(name, 0) + value


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a coordinator-owned segment.

    ``SharedMemory(name=...)`` re-registers the segment with the resource
    tracker (Python 3.11 has no ``track=False``), but multiprocessing
    children — fork and spawn alike — inherit the *coordinator's* tracker
    process, whose name cache is a set: the re-registration is a no-op and
    the coordinator's ``unlink()`` unregisters exactly once.  Unregistering
    here instead would strip the shared registration and make that unlink
    crash the tracker with a KeyError.
    """
    return shared_memory.SharedMemory(name=name)


def _worker_loop(
    worker_id: int,
    model: GNN,
    weights: np.ndarray,
    indices: np.ndarray,
    results: np.ndarray,
    param_size: int,
    plans: ComputePlanCache,
    loss_config: PenaltyLossConfig,
    clip_bound: float | None,
    grad_mode: str,
    commands,
    results_queue,
) -> None:
    """Serve tasks until the ``None`` sentinel arrives.

    A task is ``(task_id, start, stop)``: compute the triples for batch
    positions ``start:stop`` (container indices read from the shared
    indices block) and write each into its own row of the shared results
    block — ``row[:P] = gradient, row[P] = loss, row[P+1] = raw_norm``.
    Rows are disjoint across workers, so no locking is needed and the
    coordinator's left-to-right reduction order is preserved exactly.
    """
    while True:
        command = commands.get()
        if command is None:
            return
        task_id, start, stop = command
        try:
            model.load_parameter_vector(weights)
            kernels.reset_kernel_stats()
            triples = _compute_gradients(
                model,
                plans,
                indices[start:stop],
                loss_config,
                clip_bound,
                grad_mode,
            )
            for offset, (gradient, loss, raw_norm) in enumerate(triples):
                row = start + offset
                results[row, :param_size] = gradient
                results[row, param_size] = loss
                results[row, param_size + 1] = raw_norm
            results_queue.put(("done", worker_id, task_id, kernels.kernel_stats()))
        except BaseException as error:  # noqa: BLE001 - report, don't die silently
            results_queue.put(
                ("error", worker_id, task_id, f"{type(error).__name__}: {error}")
            )


def _pool_worker(
    worker_id: int,
    weights_name: str,
    indices_name: str,
    results_name: str,
    param_size: int,
    capacity: int,
    model_config,
    plans: ComputePlanCache,
    loss_config: PenaltyLossConfig,
    clip_bound: float | None,
    grad_mode: str,
    commands,
    results_queue,
) -> None:
    """Worker process entry point: attach, build the model shell, serve.

    The model is constructed only for its parameter *layout* (weights are
    read from shared memory every task), so the config's RNG was replaced
    by a constant coordinator-side.
    """
    model = GNN(model_config)
    weights_shm = _attach(weights_name)
    indices_shm = _attach(indices_name)
    results_shm = _attach(results_name)
    try:
        _worker_loop(
            worker_id,
            model,
            np.ndarray((param_size,), dtype=np.float64, buffer=weights_shm.buf),
            np.ndarray((capacity,), dtype=np.int64, buffer=indices_shm.buf),
            np.ndarray(
                (capacity, param_size + 2), dtype=np.float64, buffer=results_shm.buf
            ),
            param_size,
            plans,
            loss_config,
            clip_bound,
            grad_mode,
            commands,
            results_queue,
        )
    finally:
        # The array views live in _worker_loop's dead frame, so close()
        # cannot hit "exported pointers exist".
        for segment in (weights_shm, indices_shm, results_shm):
            try:
                segment.close()
            except BufferError:  # pragma: no cover
                pass


# --------------------------------------------------------------------------- #
# Coordinator side
# --------------------------------------------------------------------------- #
class _ShmPool:
    """Persistent gradient workers over three shared-memory segments.

    * weights block — ``(P,)`` float64, written once per batch, read by
      every worker (zero-copy weight broadcast);
    * indices block — ``(capacity,)`` int64 container indices of the batch;
    * results block — ``(capacity, P + 2)`` float64, each batch position's
      ``gradient | loss | raw_norm`` row written by exactly one worker.

    The coordinator creates and unlinks all segments; workers attach by
    name.  Commands travel over one queue per worker, completions over a
    shared results queue, and liveness is polled so a dead worker turns
    into a :class:`TrainingError` instead of a hang.
    """

    def __init__(
        self,
        model_config,
        plans: ComputePlanCache,
        loss_config: PenaltyLossConfig,
        clip_bound: float | None,
        workers: int,
        param_size: int,
        capacity: int,
        grad_mode: str,
    ) -> None:
        self.param_size = int(param_size)
        self.capacity = max(1, int(capacity))
        self.workers = int(workers)
        self._closed = False
        self._task_id = 0
        self._weights_shm = shared_memory.SharedMemory(
            create=True, size=max(8, self.param_size * 8)
        )
        self._indices_shm = shared_memory.SharedMemory(
            create=True, size=max(8, self.capacity * 8)
        )
        self._results_shm = shared_memory.SharedMemory(
            create=True, size=max(8, self.capacity * (self.param_size + 2) * 8)
        )
        self.weights = np.ndarray(
            (self.param_size,), dtype=np.float64, buffer=self._weights_shm.buf
        )
        self.indices = np.ndarray(
            (self.capacity,), dtype=np.int64, buffer=self._indices_shm.buf
        )
        self.results = np.ndarray(
            (self.capacity, self.param_size + 2),
            dtype=np.float64,
            buffer=self._results_shm.buf,
        )
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        self._commands = [context.Queue() for _ in range(self.workers)]
        self._results_queue = context.Queue()
        self._processes = []
        for worker_id in range(self.workers):
            process = context.Process(
                target=_pool_worker,
                args=(
                    worker_id,
                    self._weights_shm.name,
                    self._indices_shm.name,
                    self._results_shm.name,
                    self.param_size,
                    self.capacity,
                    model_config,
                    plans,
                    loss_config,
                    clip_bound,
                    grad_mode,
                    self._commands[worker_id],
                    self._results_queue,
                ),
                daemon=True,
            )
            process.start()
            self._processes.append(process)

    # ------------------------------------------------------------------ #
    def _check_alive(self) -> None:
        for worker_id, process in enumerate(self._processes):
            if not process.is_alive():
                raise TrainingError(
                    f"gradient worker {worker_id} died "
                    f"(exit code {process.exitcode}); aborting the batch — "
                    "no partial gradient reduction is applied"
                )

    def compute(
        self, vector: np.ndarray, batch_indices: np.ndarray
    ) -> tuple[list[tuple[np.ndarray, float, float]], dict[str, int]]:
        count = len(batch_indices)
        if count > self.capacity:
            raise TrainingError(
                f"batch of {count} exceeds pool capacity {self.capacity}"
            )
        self._task_id += 1
        task_id = self._task_id
        self.weights[:] = vector
        self.indices[:count] = batch_indices
        chunks = [
            chunk
            for chunk in np.array_split(np.arange(count), min(self.workers, count))
            if len(chunk)
        ]
        pending: set[int] = set()
        for worker_id, chunk in enumerate(chunks):
            self._commands[worker_id].put((task_id, int(chunk[0]), int(chunk[-1]) + 1))
            pending.add(worker_id)
        stats: dict[str, int] = {}
        while pending:
            try:
                message = self._results_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                self._check_alive()
                continue
            kind, worker_id, received_task, payload = message
            if received_task != task_id:
                continue  # stale completion from an aborted earlier batch
            if kind == "error":
                raise TrainingError(f"gradient worker {worker_id} failed: {payload}")
            pending.discard(worker_id)
            _merge_stats(stats, payload)
        results: list[tuple[np.ndarray, float, float]] = []
        for row in range(count):
            data = self.results[row]
            results.append(
                (
                    data[: self.param_size].copy(),
                    float(data[self.param_size]),
                    float(data[self.param_size + 1]),
                )
            )
        return results, stats

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for commands in self._commands:
            try:
                commands.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for channel in [*self._commands, self._results_queue]:
            channel.close()
            channel.cancel_join_thread()
        # Drop our views before closing so the mmap has no exported pointers.
        self.weights = self.indices = self.results = None
        for segment in (self._weights_shm, self._indices_shm, self._results_shm):
            try:
                segment.close()
            except BufferError:  # pragma: no cover
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class GradientFanout:
    """Computes a batch of clipped per-subgraph gradients, maybe in parallel.

    ``workers == 1`` runs in-process with zero overhead (no pool is ever
    created).  For ``workers > 1`` a persistent shared-memory pool is
    created lazily on the first batch and reused across iterations; call
    :meth:`close` when training ends (the context-manager form does).
    Either way :meth:`compute` returns results in exact batch-index order
    together with the kernel-dispatch counter deltas of the batch.

    ``grad_mode`` selects the execution strategy per chunk (``"loop"`` or
    ``"vectorized"``); both are byte-equivalent.  ``max_batch`` presizes
    the pool's shared blocks (it grows automatically if exceeded, at the
    cost of a pool restart).
    """

    def __init__(
        self,
        model: GNN,
        plans: ComputePlanCache,
        loss_config: PenaltyLossConfig,
        clip_bound: float | None,
        workers: int,
        *,
        grad_mode: str = "loop",
        max_batch: int | None = None,
    ) -> None:
        if grad_mode not in GRAD_MODES:
            raise TrainingError(
                f"grad_mode must be one of {GRAD_MODES}, got {grad_mode!r}"
            )
        self.model = model
        self.plans = plans
        self.loss_config = loss_config
        self.clip_bound = clip_bound
        self.workers = resolve_workers(workers)
        self.grad_mode = grad_mode
        self.max_batch = max_batch
        self._pool: _ShmPool | None = None

    # ------------------------------------------------------------------ #
    def _ensure_pool(self, batch_size: int) -> _ShmPool:
        if self._pool is not None and self._pool.capacity < batch_size:
            # A bigger batch than ever seen: rebuild with room to spare.
            self._pool.close()
            self._pool = None
        if self._pool is None:
            capacity = max(batch_size, self.max_batch or 0)
            config = dataclasses.replace(self.model.config, rng=0)
            self._pool = _ShmPool(
                config,
                self.plans,
                self.loss_config,
                self.clip_bound,
                self.workers,
                self.model.parameter_vector().size,
                capacity,
                self.grad_mode,
            )
        return self._pool

    def _compute_local(
        self, indices: np.ndarray
    ) -> tuple[list[tuple[np.ndarray, float, float]], dict[str, int]]:
        before = kernels.kernel_stats()
        results = _compute_gradients(
            self.model,
            self.plans,
            indices,
            self.loss_config,
            self.clip_bound,
            self.grad_mode,
        )
        stats: dict[str, int] = {}
        for name, value in kernels.kernel_stats().items():
            delta = value - before.get(name, 0)
            if delta:
                stats[name] = delta
        return results, stats

    def compute(
        self, batch_indices
    ) -> tuple[list[tuple[np.ndarray, float, float]], dict[str, int]]:
        """Per-subgraph ``(gradient, loss, raw_norm)`` in batch-index order."""
        indices = np.asarray(batch_indices, dtype=np.int64)
        if self.workers == 1 or len(indices) <= 1:
            return self._compute_local(indices)
        pool = self._ensure_pool(len(indices))
        try:
            return pool.compute(self.model.parameter_vector(), indices)
        except TrainingError:
            # A dead or failing worker poisons the pool (its chunk may be
            # half-written); tear it down so a retry starts clean.
            self.close()
            raise

    def close(self) -> None:
        """Stop the workers and unlink shared memory (serial path: no-op)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "GradientFanout":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
