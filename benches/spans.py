"""Span tracing of previewnash from outside the library.

`Tracer.install()` rebinds every public function of the library's modules
to a wrapper that records one span per call: (name, start, end, parent
span, operation id).  A function is rebound in every namespace that holds
it, because modules import each other's functions by name (experiments
holds `cost_schedule` and `game_spec`, online and potential hold
`with_costs`, the package re-exports nearly everything); wrapping only the
defining module would miss those call sites.  `uninstall()` puts the
original objects back.

Spans live in flat arrays while the run goes on and are turned into
per-layer figures (`layer_metrics`) and written out (`save`) when it ends.
A span's self time is its duration minus the durations of its direct
children, so summing self times over a layer never counts a nested call
twice.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import statistics
import sys
import time
from array import array

import numpy as np

LAYERS = ("linalg", "game", "online", "potential", "experiments", "cli")
RUN_ONLINE_HORIZONS = (20, 50, 100, 200)


def _schedule_key(spec, *args, **kwargs) -> tuple[bytes, int]:
    """Digest of the Q/R1/R2 bytes a solve receives, and its stage count."""
    h = hashlib.blake2b(digest_size=16)
    for seq in (spec.costs.Q, spec.costs.R1, spec.costs.R2):
        for mat in seq:
            h.update(mat.tobytes())
    return h.digest(), spec.T - 1


def _horizon(spec, *args, **kwargs) -> int:
    return spec.T


# Per-call facts that a span alone cannot give: the schedule a solve
# received (for the unique-solve share) and the horizon of a run.
_TAGGERS = {
    "game.solve_feedback_nash": _schedule_key,
    "online.run_online": _horizon,
}


def _under(name: np.ndarray, parent: np.ndarray, anchor: int) -> np.ndarray:
    """Mask of the spans that are, or descend from, a span named `anchor`.

    A parent is always recorded before its children, so one pass in index
    order sees every parent's verdict first.
    """
    inside = np.zeros(len(name), dtype=bool)
    for i, (nm, par) in enumerate(zip(name.tolist(), parent.tolist())):
        inside[i] = nm == anchor or (par >= 0 and inside[par])
    return inside


class Tracer:
    """Span recorder for previewnash calls; one per run."""

    def __init__(self):
        self.op_id = -1
        self.names: list[str] = []
        self.name_idx = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, object] = {}
        self.errors = dict.fromkeys(LAYERS, 0)
        self._stack: list[int] = []
        self._last_exc = None
        self._bound: list[tuple] = []
        self._wrappers: dict[int, object] | None = None  # id(original) -> wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind the wrappers; spans are recorded until `uninstall()`."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "previewnash" or name.startswith("previewnash.")]
        if self._wrappers is None:
            self._wrappers = {}
            for layer in LAYERS:
                mod = sys.modules[f"previewnash.{layer}"]
                for attr in mod.__all__:
                    fn = getattr(mod, attr)
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        self._wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", layer, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._bound.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound.clear()

    @contextlib.contextmanager
    def recording(self, op_id: int):
        """Record the spans of one call under `op_id`."""
        self.op_id = op_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        self.names.append(name)
        nid = len(self.names) - 1
        tagger = _TAGGERS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            if tagger is not None:
                tracer.tags[idx] = tagger(*args, **kwargs)
            tracer.name_idx.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count a failure once, in the innermost layer it left
                if exc is not tracer._last_exc:
                    tracer._last_exc = exc
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer.end[idx] = perf()
                stack.pop()

        return wrapper

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        name = np.frombuffer(self.name_idx, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"name": name, "parent": parent, "start": start, "end": end,
                "op": np.frombuffer(self.op, dtype=np.int32).copy(),
                "dur": dur, "self": dur - child}

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=a["name"],
                            parent=a["parent"], start=a["start"], end=a["end"], op=a["op"])

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer figures; `ops` is the number of rows (or games) traced."""
        a = self.arrays()
        name, dur, self_t = a["name"], a["dur"], a["self"]
        nid = {n: i for i, n in enumerate(self.names)}
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int32)
        span_layer = layer_of[name]

        def mask(fn_name):
            return name == nid[fn_name]

        def count(fn_name):
            return int(mask(fn_name).sum())

        def self_ms(fn_name):
            return float(self_t[mask(fn_name)].sum()) * 1e3

        def per_call(total, fn_name):
            calls = count(fn_name)
            return total / calls if calls else 0.0

        out = {}
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.self_ms_per_op"] = float(self_t[span_layer == li].sum()) * 1e3 / ops
        out["linalg.calls_per_op"] = float((span_layer == LAYERS.index("linalg")).sum()) / ops
        for fn_name in ("linalg.cholesky_pd", "linalg.sym_eig", "game.solve_feedback_nash",
                        "online.predict_nash"):
            out[f"{fn_name}.calls_per_op"] = count(fn_name) / ops

        # a schedule counts as unique once per operation, so repeating
        # operations on the same inputs does not dilute the share
        solves = np.flatnonzero(mask("game.solve_feedback_nash")).tolist()
        solve_stages = sum(self.tags[i][1] for i in solves)
        out["game.stage_us"] = float(dur[solves].sum()) * 1e6 / solve_stages if solve_stages else 0.0
        unique = len({(int(a["op"][i]), self.tags[i][0]) for i in solves})
        out["game.unique_solve_frac"] = unique / len(solves) if solves else 0.0

        for fn_name in ("game.cost_schedule", "game.evaluate_cost", "online.pad_schedule",
                        "online.run_online", "potential.check_assumptions",
                        "potential.reduce_to_ocp", "potential.verify_equivalence",
                        "experiments.generate_game"):
            out[f"{fn_name}.self_ms_per_op"] = self_ms(fn_name) / ops

        runs = np.flatnonzero(mask("online.run_online"))
        for horizon in RUN_ONLINE_HORIZONS:
            durs = [float(dur[i]) for i in runs.tolist() if self.tags[i] == horizon]
            out[f"online.run_online.p50_ms.T{horizon}"] = statistics.median(durs) * 1e3 if durs else 0.0

        ctg = "online.compute_tracking_gain"
        in_ctg = _under(name, a["parent"], nid[ctg])
        solves_linear = int((in_ctg & mask("linalg.solve_linear")).sum())
        out[f"{ctg}.iterations"] = per_call(solves_linear, ctg) - 1.0 if count(ctg) else 0.0
        out[f"{ctg}.self_ms"] = per_call(self_ms(ctg), ctg)

        chk = "potential.check_assumptions"
        in_chk = _under(name, a["parent"], nid[chk])
        out[f"{chk}.solves_per_call"] = per_call(
            float((in_chk & mask("game.solve_feedback_nash")).sum()), chk)

        for fn_name in ("experiments.sweep", "experiments.emit_csv", "cli.main"):
            out[f"{fn_name}.self_ms"] = per_call(self_ms(fn_name), fn_name)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out
