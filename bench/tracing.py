"""Span tracing for the benchmark, installed from outside the package.

A `Tracer` replaces the public functions of the package's layer modules
(and the sampling methods of the noise sources) with timing wrappers, keeps
every span in memory, and puts every original attribute back on exit.
Nothing under `src/` knows it is being traced.

A span is (name, layer, start, end, parent).  Spans nest strictly because
the traced passes run on one worker in one thread, so a layer's self time is
its spans' durations minus the time their child spans cover, and the self
times of all layers add up to the root span's duration.

Noise spans are split by the `tag` every sampling call already passes:
prep (`/g1` width 2, `/g2`, `/mem`, `/hl` inside an ancilla group), round
(`/wait`, `/int`, `/am`, `/g1` width 4) and data (`chan`, `gap`, `corr`,
`pre`, `zg`, `enc`).  Tags that fit none of these land in `noise.other`.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYER_MODULES = ("cli", "circuit", "codebook", "engine", "analysis")
NOISE_SOURCES = {
    "StreamBank": "stream",
    "FaultPlanSource": "faultplan",
    "RecordingSource": "recording",
}
SAMPLERS = ("depolarize_steps", "cnot_pairs")
PACKAGE = "steane_mc"

_GROUP = re.compile(r"^g\d+[bp]\d+$")  # ancilla group component, e.g. g3p0
_PREP_SUBS = {"g2", "mem", "hl"}
_ROUND_SUBS = {"wait", "int", "am"}
_DATA_HEADS = ("chan", "gap", "corr", "pre", "zg", "enc")
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def tag_group(tag: str, width: int) -> tuple[str, str]:
    """(prep|round|data|other, sub-tag) for one noise call's tag and width."""
    parts = tag.split("/")
    for i, part in enumerate(parts):
        if _GROUP.match(part):
            sub = parts[i + 1] if i + 1 < len(parts) else ""
            if sub == "g1":
                return ("prep" if width == 2 else "round"), sub
            if sub in _PREP_SUBS:
                return "prep", sub
            if sub in _ROUND_SUBS:
                return "round", sub
            return "other", sub
    if "corr" in parts or parts[0].startswith(_DATA_HEADS):
        return "data", parts[0]
    return "other", parts[0]


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == PACKAGE]


def _public_functions(module):
    """Public functions defined in `module`, and public methods of its classes."""
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj))
        elif inspect.isclass(obj):
            for mname, meth in vars(obj).items():
                if not mname.startswith("_") and inspect.isfunction(meth):
                    found.append((obj, mname, meth))
    return found


class Tracer:
    """Context manager that wraps the package's layers and records spans.

    `modules` names the layer modules whose public functions get spans;
    `noise` adds spans and counts around the noise sources.  Worker pools
    and the chunks submitted to them are always counted.  A light tracer
    (`modules=("engine",)`, `noise=False`) times only the engine entry points.
    """

    def __init__(self, run_id: str, modules=LAYER_MODULES, noise=True):
        self.run_id = run_id
        self.modules = tuple(modules)
        self.noise = noise
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._banks: list[np.ndarray] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self) -> tuple[int, int | None, float]:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, t0, name, layer) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (name, layer, t0, t1, parent)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(*state, name, layer)

        return wrapper

    def _source_init(self, fn, cls_name, kind):
        tracer = self
        layer = "noise.keys" if kind == "stream" else f"noise.{kind}"

        @functools.wraps(fn)
        def wrapper(src, *args, **kwargs):
            state = tracer._open()
            try:
                fn(src, *args, **kwargs)
            finally:
                tracer._close(*state, f"{cls_name}.__init__", layer)
            tracer.counts["engine.batches"] += 1
            if kind == "stream":
                tracer._banks.append(src.counters)
            if kind != "recording":
                tracer.counts["noise.trials"] += src.size

        return wrapper

    def _sampler(self, fn, cls_name, kind, method):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(src, *args, **kwargs):
            bound = sig.bind(src, *args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            width = a.get("width", 1)
            group, sub = tag_group(a["tag"], width)
            layer = f"noise.{group}" if kind == "stream" else f"noise.{kind}"
            state = tracer._open()
            try:
                out = fn(*bound.args, **bound.kwargs)
            finally:
                tracer._close(*state, f"{cls_name}.{method}:{a['tag']}", layer)
            tracer._count_call(src, kind, a, group, sub, out)
            return out

        return wrapper

    def _count_call(self, src, kind, a, group, sub, out) -> None:
        c = self.counts
        c["engine.noise_calls"] += 1
        if out is not None:
            if isinstance(out, tuple):
                c["noise.faults"] += int(_POPCOUNT8[out[0] | out[1]].sum())
            else:
                c["noise.faults"] += int(np.count_nonzero(out))
        if group == "prep" and sub == "mem" and kind != "recording":
            if a["idx"] is None:
                c["engine.preps"] += src.size
            else:
                c["engine.prep_retries"] += len(a["idx"])

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.counts["pool.spawns"] += 1
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                tracer.counts["pool.chunks"] += 1
                return super().submit(*args, **kwargs)

        return CountingPool

    # -- install / restore ------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every package-module name bound to `original` at `replacement`."""
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, replacement)

    def _set(self, owner, name, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
        try:
            for short in self.modules:
                for owner, name, fn in _public_functions(mods[short]):
                    wrapped = self._timed(fn, f"{short}.{name}", short)
                    if inspect.ismodule(owner):
                        self._replace_everywhere(fn, wrapped)
                    else:
                        self._set(owner, name, wrapped)
            if self.noise:
                for cls_name, kind in NOISE_SOURCES.items():
                    cls = getattr(mods["noise"], cls_name)
                    self._set(cls, "__init__", self._source_init(cls.__init__, cls_name, kind))
                    for method in SAMPLERS:
                        fn = vars(cls)[method]
                        self._set(cls, method, self._sampler(fn, cls_name, kind, method))
            base = mods["engine"].ProcessPoolExecutor
            self._replace_everywhere(base, self._counting_pool(base))
        except BaseException:
            self.restore()
            raise
        self._root = self._open()
        return self

    def __exit__(self, *exc) -> None:
        self._close(*self._root, "pass", "harness")
        self.restore()

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for _, _, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (_, layer, t0, t1, _) in enumerate(self.spans):
            out[layer] += (t1 - t0) - child[i]
        return dict(out)

    def wall(self) -> float:
        _, _, t0, t1, _ = self.spans[0]
        return t1 - t0

    def outer_time(self, layer: str) -> float:
        """Total duration of the outermost spans of one layer."""
        total = 0.0
        for name, lay, t0, t1, parent in self.spans:
            if lay == layer and (parent is None or self.spans[parent][1] != layer):
                total += t1 - t0
        return total

    def deterministic_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same inputs."""
        out = dict(self.counts)
        out["noise.draws"] = int(sum(int(c.sum()) for c in self._banks))
        return out

    def span_records(self):
        for i, (name, layer, t0, t1, parent) in enumerate(self.spans):
            yield {
                "run": self.run_id, "id": i, "name": name, "layer": layer,
                "start": t0, "end": t1, "parent": parent,
            }
