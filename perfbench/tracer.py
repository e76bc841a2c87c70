"""Outside-in tracing of the `demix` package.

`Tracer.install` replaces every public function of every `demix` module with
a wrapper that records a span, at the defining module and at every other
`demix` module attribute bound to the same function object (so
`pipeline.load_archive` and `cli.load_archive` are traced along with
`tensor_store.load_archive`). `BoostedTreesRegressor.fit` and `.predict` are
patched on the class. `Tracer.restore` puts every original back. Nothing
under `src/` is changed.

A span is `[name, parent, start, end, op, counts]`: `name` is
`<module>.<function>`, `parent` the index of the enclosing traced span (-1 at
the top), `op` the index of the benchmark operation it belongs to, and
`counts` what the call did (rows predicted, bytes read, ...), or None.
Spans stay in memory and are written out with the worker's result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time

PACKAGE = "demix"
CLASS_METHODS = {"gbdt": {"BoostedTreesRegressor": ("fit", "predict")}}


def _stage_times(manifest) -> dict:
    counts = {"stages_recomputed": sum(bool(r.get("recomputed")) for r in manifest.stages.values())}
    for stage, record in manifest.stages.items():
        if record.get("recomputed") and "finished_at" in record:
            counts[f"stage_s.{stage}"] = record["finished_at"] - record["started_at"]
    return counts


# What each call did, from its bound arguments and its result.
COUNTERS = {
    "gbdt.BoostedTreesRegressor.predict": lambda a, r: {"rows": int(len(r))},
    "mixture_search.run_search": lambda a, r: {"evaluations": len(r[1].evaluations)},
    "merge_engine.merge": lambda a, r: {"values": r.num_values()},
    "merge_engine.merge_linear": lambda a, r: {"values": r.num_values()},
    "tensor_store.load_archive": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "tensor_store.save_archive": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "dedup.lsh_candidates": lambda a, r: {"pairs": len(r)},
    "pipeline.run_pipeline": lambda a, r: _stage_times(r),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span[5] = counter(bound, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every `demix` module."""
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            short = module.__name__.removeprefix(PACKAGE + ".")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
            for cls_name, methods in CLASS_METHODS.get(short, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(f"{short}.{cls_name}.{method}", original))
        # Rebind at every module that holds the same object, whatever name it
        # was imported under.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when every patched name holds its
        original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
            for owner, attr, original in self._patches
        )
        self._patches.clear()
        return ok


# --- aggregation (runs in the parent, on the spans a worker wrote) ---------


def aggregate(spans: list[list]) -> dict:
    """Per function: calls, inclusive time (outermost calls of that function
    only), self time (duration minus traced children) and summed counts.
    Per module: self time, and inclusive time, calls and counts of the spans
    that no other span of the same module encloses."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _op, _counts in spans:
        if parent >= 0:
            child[parent] += end - start

    def enclosed(i: int, same) -> bool:
        parent = spans[i][1]
        while parent >= 0:
            if same(spans[parent][0]):
                return True
            parent = spans[parent][1]
        return False

    functions: dict[str, dict] = {}
    modules: dict[str, dict] = {}
    for i, (name, _parent, start, end, _op, counts) in enumerate(spans):
        duration = end - start
        module = name.split(".")[0]
        fn = functions.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        mod = modules.setdefault(module, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        fn["calls"] += 1
        fn["self_s"] += duration - child[i]
        mod["self_s"] += duration - child[i]
        if not enclosed(i, lambda other: other == name):
            fn["incl_s"] += duration
        if not enclosed(i, lambda other: other.split(".")[0] == module):
            mod["calls"] += 1
            mod["incl_s"] += duration
            for key, value in (counts or {}).items():
                mod[key] = mod.get(key, 0) + value
        for key, value in (counts or {}).items():
            fn[key] = fn.get(key, 0) + value
    return {"functions": functions, "modules": modules}
