"""Per-layer tracing for the system-under-test process.

The tracer wraps public functions of each layer from outside ``src/``: it
replaces a class or module attribute with a timing or counting shim and
puts the original back on :meth:`Tracer.uninstall`.  Nothing is wrapped in
an untraced run.  Every shim appends one sample per call; an *op* (one HTTP
request, or one training step) closes with :meth:`Tracer.end_op`, which
sums each key's samples since the op began, so per-op medians and exact
per-forward counts come out of the same records.

A measurement point that the system no longer has (a module, class or
function renamed or removed) raises when the shims go in, so the traced
run fails instead of reporting zero for it.  A key counts as installed
only once its shim has replaced the original.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set

_clock = time.perf_counter


def _find(module: str, name: str = "") -> Any:
    """The module, or its attribute ``name``; raises when either is gone."""
    found = importlib.import_module(module)
    return getattr(found, name) if name else found


class Tracer:
    """Layer shims plus the samples they record.

    Each key keeps a list with one value per call (a duration, a count of
    one, or a weight such as MFLOP); ``list.append`` needs no lock, which
    keeps the per-call cost of the shims on hot tensor ops small.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._open_ops = 0
        self._idle = threading.Condition()
        self._patches: List[tuple] = []
        self.samples: Dict[str, List[float]] = {}
        #: Keys whose shim has replaced the original at least once.
        self.installed: Set[str] = set()
        self._op_start: Dict[str, int] = {}
        self.ops: List[Dict[str, float]] = []

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def _series(self, key: str) -> List[float]:
        return self.samples.setdefault(key, [])

    def begin_op(self) -> None:
        self._op_start = {key: len(values) for key, values in list(self.samples.items())}

    def end_op(self) -> None:
        """Close one op: each key's sum and call count since :meth:`begin_op`."""
        record: Dict[str, float] = {}
        for key, values in list(self.samples.items()):
            chunk = values[self._op_start.get(key, 0) : len(values)]
            record[key] = float(sum(chunk))
            record[key + ".calls"] = float(len(chunk))
        self.ops.append(record)

    def totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for key, values in list(self.samples.items()):
            totals[key] = float(sum(values))
            totals[key + ".calls"] = float(len(values))
        return totals

    def wait_idle(self, timeout: float) -> bool:
        """Wait until no request op is open: the last response reaches the
        client before its handler closes the op."""
        with self._idle:
            return self._idle.wait_for(lambda: self._open_ops == 0, timeout=timeout)

    def in_request(self) -> bool:
        return getattr(self._local, "request", False)

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _patch(self, owner: Any, name: str, key: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.name`` (defined on ``owner`` itself) with ``make(original)``."""
        original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if original is None:
            raise AttributeError(f"cannot trace {key}: {owner!r} defines no {name!r}")
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original))
        self.installed.add(key)

    def uninstall(self, keep: int = 0) -> None:
        """Restore every patched attribute but the first ``keep`` patches."""
        while len(self._patches) > keep:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def timed(self, owner: Any, name: str, key: str, only_in_request: bool = False) -> None:
        """Record each call's wall time under ``key``."""
        tracer, values = self, self._series(key)

        def make(original):
            def shim(*args, **kwargs):
                if only_in_request and not tracer.in_request():
                    return original(*args, **kwargs)
                start = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    values.append(_clock() - start)

            return shim

        self._patch(owner, name, key, make)

    def counted(self, owner: Any, name: str, key: str, weigh: Optional[Callable] = None) -> None:
        """Record each call under ``key``: ``weigh(result, args)``, else 1."""
        values = self._series(key)

        def make(original):
            def shim(*args, **kwargs):
                result = original(*args, **kwargs)
                values.append(1.0 if weigh is None else weigh(result, args))
                return result

            return shim

        self._patch(owner, name, key, make)

    def request_scope(self, owner: Any, name: str, key: str) -> None:
        """Make each call of a request handler one op, timed as ``key``.

        The handler's thread is marked as inside a request meanwhile, so
        shims with ``only_in_request`` count only what it waits on.
        """
        tracer, values = self, self._series(key)

        def make(original):
            def shim(*args, **kwargs):
                with tracer._idle:
                    tracer._open_ops += 1
                tracer.begin_op()
                tracer._local.request = True
                start = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    values.append(_clock() - start)
                    tracer._local.request = False
                    tracer.end_op()
                    with tracer._idle:
                        tracer._open_ops -= 1
                        tracer._idle.notify_all()

            return shim

        self._patch(owner, name, key, make)


def _matmul_mflop(result: Any, args: tuple) -> float:
    """Multiply-adds of one matmul from its shapes: 2 * output size * inner size."""
    left = args[0]
    inner = left.shape[-1] if getattr(left, "ndim", 0) >= 1 else 1
    return 2.0 * result.data.size * inner / 1e6


def install_model_layers(tracer: Tracer, model_class: type) -> None:
    """The models / nn / tensor layers every workload shares."""
    tensor = _find("repro.tensor.tensor", "Tensor")
    tracer.timed(model_class, "forward", "models.forward")
    tracer.counted(_find("repro.nn.dropout"), "dropout_mask", "nn.dropout_mask")
    tracer.counted(tensor, "matmul", "tensor.matmul", weigh=_matmul_mflop)
    tracer.counted(_find("repro.tensor.functional"), "cat", "tensor.cat")


def install_serving_layers(tracer: Tracer) -> None:
    """Gateway, serving, fleet and streaming layers of the HTTP workloads."""
    core = _find("repro.streaming.shard", "StreamCore")
    tracer.request_scope(_find("repro.gateway.gateway", "_Handler"), "_dispatch", "gateway.request")
    tracer.timed(_find("repro.fleet.runner", "StreamFleet"), "tick", "fleet.tick")
    tracer.timed(core, "resolve", "streaming.resolve")
    tracer.timed(core, "record", "streaming.record")
    tracer.counted(_find("repro.streaming.aci"), "norm_ppf", "streaming.norm_ppf")
    # Time the request thread spends in the serving layer: routing and
    # enqueueing, then blocked on the prediction futures.
    tracer.timed(
        _find("repro.serving.server", "InferenceServer"),
        "submit_many",
        "serving.blocked",
        only_in_request=True,
    )
    tracer.timed(concurrent.futures.Future, "result", "serving.blocked", only_in_request=True)


def install_fit_phases(tracer: Tracer) -> None:
    """The fit's three stages, each one long call."""
    tracer.timed(_find("repro.core.trainer", "Trainer"), "fit", "core.pretrain")
    tracer.timed(_find("repro.core.awa", "AWATrainer"), "retrain", "core.awa")
    tracer.timed(_find("repro.core.pipeline", "DeepSTUQPipeline"), "calibrate", "core.calibrate")


def install_step_layers(tracer: Tracer, model_class: type) -> None:
    """The layers inside one training step."""
    install_model_layers(tracer, model_class)
    tracer.timed(_find("repro.tensor.tensor", "Tensor"), "backward", "tensor.backward")


class StepClock:
    """Times training steps from ``zero_grad`` to the end of the optimizer step.

    Installed in every fit run, traced or not: it is how the fit workload's
    per-step latency is measured.  With a tracer, every second step is
    traced: the step's layer shims (:func:`install_step_layers`) go in at
    ``zero_grad`` and come out again after the step, which closes one
    tracer op.  Traced and untraced steps interleave, so their latencies
    give the tracing overhead on the same fit.
    """

    def __init__(self, tracer: Optional[Tracer] = None, model_class: Optional[type] = None) -> None:
        self.tracer = tracer
        self.model_class = model_class
        self.seconds: List[float] = []
        self.traced: List[bool] = []
        self._start: Optional[float] = None
        self._tracing = False
        self._keep = 0
        self._patches: List[tuple] = []

    def install(self) -> None:
        from repro.optim.adam import Adam
        from repro.optim.optimizer import Optimizer

        clock = self
        zero_grad, step = Optimizer.zero_grad, Adam.step

        def zero_grad_shim(optimizer, *args, **kwargs):
            tracing = clock.tracer is not None and len(clock.seconds) % 2 == 1
            if tracing:
                clock._keep = len(clock.tracer._patches)
                install_step_layers(clock.tracer, clock.model_class)
                clock.tracer.begin_op()
            clock._tracing = tracing
            clock._start = _clock()
            return zero_grad(optimizer, *args, **kwargs)

        def step_shim(optimizer, *args, **kwargs):
            update_start = _clock()
            try:
                return step(optimizer, *args, **kwargs)
            finally:
                end = _clock()
                if clock._start is not None:
                    clock.seconds.append(end - clock._start)
                    clock.traced.append(clock._tracing)
                    if clock._tracing:
                        clock.tracer._series("optim.step").append(end - update_start)
                        clock.tracer.end_op()
                        clock.tracer.uninstall(keep=clock._keep)
                clock._start = None

        Optimizer.zero_grad = zero_grad_shim
        Adam.step = step_shim
        if self.tracer is not None:
            self.tracer.installed.add("optim.step")
        self._patches = [(Optimizer, "zero_grad", zero_grad), (Adam, "step", step)]

    def uninstall(self) -> None:
        for owner, name, original in self._patches:
            setattr(owner, name, original)
        self._patches = []
