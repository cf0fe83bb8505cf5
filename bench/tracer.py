"""Outside-in tracing of seifknot's layers.

Each layer is one module of the package. `Tracer.install` replaces every
public function of a layer, and every public method and constructor of
its public classes, by a wrapper, in every module namespace that binds
it: `from .x import f` copies the reference, so the importing modules are
patched too. Methods of FreeWord and LaurentPoly are left alone, so their
time counts toward the layer that called them.

A span is recorded only where control crosses into another layer; a
call inside the same layer is counted but adds no span. Spans stay in
memory as (name, start, end, parent, op id) columns and can be written
out at the end. Counters are updated at the same boundaries, from the
arguments and results of named calls.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from time import perf_counter
from typing import Any, Callable

LAYERS = ("freegroup", "presentations", "homology", "knots11", "dunwoody", "foxcalc", "verify", "cli")
UNWRAPPED_CLASSES = ("FreeWord", "LaurentPoly")
HARNESS = "bench"  # pseudo-layer of the op span the benchmark opens around each op


def _letters(result: Any) -> int:
    """Reduced letters in a FreeWord, or in a list or tuple of them."""
    if isinstance(result, (list, tuple)):
        return sum(_letters(x) for x in result)
    syllables = getattr(result, "syllables", None)
    if syllables is None:
        return 0
    return sum(abs(e) for _, e in syllables)


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.layer_names = list(LAYERS) + [HARNESS]
        self.harness_layer = len(LAYERS)
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._span_stack = [-1]
        self._layer_stack = [-1]
        self.enabled = True
        self.counters: dict[str, float] = {}
        self.check_seconds: dict[str, float] = {}
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._package: Any = None  # the import of seifknot that _patches belong to
        self.current_op = -1
        self._op_name = self._name_id("bench.op", self.harness_layer)
        self.probes: dict[str, Callable[[tuple, dict, Any], None]] = {
            "dunwoody.GluedDiagram.__init__": self._on_diagram,
            "homology.first_homology": self._on_first_homology,
            "homology.cokernel": self._on_cokernel,
            "homology.smith_normal_form": self._on_snf,
            "knots11.reduce_to_lens": self._on_reduce,
            "knots11.knot_from_seifert": lambda a, k, r: self._add("knots11.covers", 1),
            "presentations.count_homomorphisms": self._on_search,
            "foxcalc.laurent_determinant": self._on_det,
            "verify.run_all": self._on_run_all,
        }

    # -- counters ---------------------------------------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _on_word(self, args: tuple, kwargs: dict, result: Any) -> None:
        self._add("freegroup.letters_out", _letters(result))

    def _on_diagram(self, args: tuple, kwargs: dict, result: Any) -> None:
        params = _arg(args, kwargs, 1, "params")
        self._add("dunwoody.diagrams", 1)
        self._add("dunwoody.glued_slots", params.n * (2 * params.a + params.b + params.c))

    def _on_first_homology(self, args: tuple, kwargs: dict, result: Any) -> None:
        pres = _arg(args, kwargs, 0, "pres")
        self._add("homology.matrix_cells", len(pres.relators) * len(pres.generators))

    def _on_cokernel(self, args: tuple, kwargs: dict, result: Any) -> None:
        rows = _arg(args, kwargs, 0, "rows")
        self._add("homology.matrix_cells", len(rows) * _arg(args, kwargs, 1, "num_columns"))

    def _on_snf(self, args: tuple, kwargs: dict, result: Any) -> None:
        mat = _arg(args, kwargs, 0, "mat")
        self._add("homology.matrix_cells", len(mat) * (len(mat[0]) if len(mat) else 0))

    def _on_reduce(self, args: tuple, kwargs: dict, result: Any) -> None:
        self._add("knots11.reductions", 1)
        self._add("knots11.trace_entries", len(result[1]))

    def _on_search(self, args: tuple, kwargs: dict, result: Any) -> None:
        self._add("presentations.searches", 1)
        self._add("presentations.homs_found", result)

    def _on_det(self, args: tuple, kwargs: dict, result: Any) -> None:
        self._add("foxcalc.det_calls", 1)
        dim = len(_arg(args, kwargs, 0, "matrix"))
        self.counters["foxcalc.det_dim_max"] = max(self.counters.get("foxcalc.det_dim_max", 0), dim)

    def _on_run_all(self, args: tuple, kwargs: dict, result: Any) -> None:
        for r in result:
            self.check_seconds[r.name] = self.check_seconds.get(r.name, 0.0) + r.seconds

    # -- spans ------------------------------------------------------------------

    def _name_id(self, name: str, layer: int) -> int:
        self.names.append(name)
        self.name_layer.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def _open(self, name_id: int, op_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._span_stack[-1])
        self.span_op.append(op_id)
        self.span_end.append(0.0)
        self.span_start.append(0.0)
        self._span_stack.append(idx)
        self._layer_stack.append(self.name_layer[name_id])
        return idx

    def _close(self) -> None:
        self._span_stack.pop()
        self._layer_stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.current_op = op_id
        idx = self._open(self._op_name, op_id)
        self.span_start[idx] = perf_counter()
        return idx

    def end_op(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._close()
        self.current_op = -1

    def _wrap(self, fn: Callable, qualname: str, layer: int) -> Callable:
        name_id = self._name_id(qualname, layer)
        probe = self.probes.get(qualname)
        if probe is None and LAYERS[layer] == "freegroup":
            probe = self._on_word
        calls = self.calls
        layer_stack = self._layer_stack
        starts, ends = self.span_start, self.span_end
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            calls[name_id] += 1
            if layer_stack[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = tracer._open(name_id, tracer.current_op)
                starts[idx] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = perf_counter()
                    tracer._close()
            if probe is not None:
                probe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Put the wrappers in place: the public API of every layer, in
        every namespace binding it. They are built on the first call, and
        again whenever the package has been imported anew since; counts
        and spans accumulate over installs."""
        package = importlib.import_module("seifknot")
        if package is not self._package:
            self._package = package
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build_patches(self) -> list[tuple[Any, str, Any, Any]]:
        package = importlib.import_module("seifknot")
        modules = [importlib.import_module(f"seifknot.{name}") for name in LAYERS]
        patches = []
        wrapped: dict[int, tuple[Any, Callable]] = {}
        for layer, mod in enumerate(modules):
            prefix = LAYERS[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{prefix}.{attr}", layer))
                elif inspect.isclass(obj) and attr not in UNWRAPPED_CLASSES:
                    patches += self._class_patches(obj, f"{prefix}.{attr}", layer)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj, hit[1]))
        return patches

    def _class_patches(self, cls: type, prefix: str, layer: int) -> list[tuple[Any, str, Any, Any]]:
        patches = []
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(obj, (staticmethod, classmethod)):
                new = type(obj)(self._wrap(obj.__func__, f"{prefix}.{attr}", layer))
            elif inspect.isfunction(obj):
                new = self._wrap(obj, f"{prefix}.{attr}", layer)
            else:
                continue
            patches.append((cls, attr, obj, new))
        return patches

    # -- results ----------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: its spans' time minus the time of their child spans."""
        out = [0.0] * len(self.layer_names)
        name_layer = self.name_layer
        names, parents = self.span_name, self.span_parent
        for i in range(len(self.span_start)):
            dur = self.span_end[i] - self.span_start[i]
            out[name_layer[names[i]]] += dur
            parent = parents[i]
            if parent >= 0:
                out[name_layer[names[parent]]] -= dur
        return dict(zip(self.layer_names, out))

    def layer_calls(self) -> dict[str, int]:
        out = dict.fromkeys(self.layer_names, 0)
        for name_id, count in enumerate(self.calls):
            out[self.layer_names[self.name_layer[name_id]]] += count
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
