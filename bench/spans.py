"""Span tracer patched around tribessel's module boundaries from outside.

``Tracer.install`` wraps the package's public functions, every function one
tribessel module imports from another, and the internal kernels named in
``LAYERS``. Each wrapper is bound in place of the original in every module
that holds it, so calls through any import path are seen. A span records
name, start, end, parent and one auxiliary count; spans stay in memory in
flat arrays and ``write`` saves them when the run ends. A name in
``LAYERS`` that the package no longer has is reported as absent.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("errors", "sphfun", "expint", "triple", "oracle", "errata", "cli")

# layer name -> (module, attribute) for the layers the benchmark reports on
LAYERS = {
    "cli.main": ("cli", "main"),
    "triple.reduce_orders": ("triple", "reduce_orders"),
    "triple.eval_definite": ("triple", "eval_definite"),
    "triple.eval_indefinite": ("triple", "eval_indefinite"),
    "triple.antiderivative_base": ("triple", "antiderivative_base"),
    "triple.integrand": ("triple", "integrand"),
    "expint.exp_integral_en": ("expint", "exp_integral_en"),
    "expint.lower_gamma": ("expint", "_lower_gamma_int"),
    "expint.z_antiderivative": ("expint", "z_antiderivative"),
    "sphfun.jl_vec": ("sphfun", "_jl_vec"),
    "oracle.quad_semi_infinite": ("oracle", "quad_semi_infinite"),
    "oracle.quad_finite": ("oracle", "quad_finite"),
    "oracle.gk_segment": ("oracle", "_gk_segment"),
    "oracle.period_tail": ("oracle", "_period_summation_tail"),
}

def _points(args, out):
    return float(np.size(args[-1]))


def _converged(args, out):
    return 1.0 if out.converged else 0.0


# auxiliary count recorded per span, by layer
_AUX = {
    "sphfun.jl_vec": _points,
    "oracle.quad_semi_infinite": _converged,
    "oracle.quad_finite": _converged,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.aux = array("d")
        self.stack = [-1]
        self.absent: list[str] = []
        self.op_index = -1  # set by the caller before each operation
        self.reductions: dict = {}  # reduction key -> first op reducing it
        self.repeats = 0              # key already reduced by an earlier call
        self.repeats_across_ops = 0   # ... first reduced by an earlier op
        self._patches: list = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, name: str, aux=None, result=None):
        """fn with a span around each call. aux(args, out) gives the span's
        count; result(out) may replace the return value."""
        sid = self._id(name)
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        aux_arr, stack, clock = self.aux, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(sid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            aux_arr.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if aux is not None:
                aux_arr[idx] = aux(args, out)
            return out if result is None else result(out)

        traced.__wrapped__ = fn
        return traced

    def _reduce_aux(self, args, out):
        s = args[0]
        key = (s.h, s.k, s.l, float(s.alpha), float(s.beta), float(s.mu))
        first = self.reductions.get(key)
        if first is None:
            self.reductions[key] = self.op_index
        else:
            self.repeats += 1
            self.repeats_across_ops += first != self.op_index
        return float(len(out))

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"tribessel.{short}")
            except ImportError:
                continue
        mods[""] = importlib.import_module("tribessel")
        # every binding of every tribessel function, by function object
        bindings: dict = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj)
                        and obj.__module__.startswith("tribessel.")):
                    bindings.setdefault(obj, []).append((short, attr))
        chosen = {}
        for layer, (short, attr) in LAYERS.items():
            obj = vars(mods[short]).get(attr) if short in mods else None
            if obj is None or obj not in bindings:
                self.absent.append(layer)
            else:
                chosen[obj] = layer
        public = set(getattr(mods[""], "__all__", ()))
        for obj, where in bindings.items():
            home = obj.__module__.rsplit(".", 1)[-1]
            shared = any(short not in ("", home) for short, _ in where)
            if obj in chosen or shared or obj.__name__ in public:
                chosen.setdefault(obj, f"{home}.{obj.__name__.lstrip('_')}")
        for obj, layer in chosen.items():
            if layer == "triple.integrand":
                # the factory's product is what the oracle calls
                wrapper = self.wrap(
                    obj, "triple.make_integrand",
                    result=lambda f: self.wrap(f, "triple.integrand", _points))
            elif layer == "triple.reduce_orders":
                wrapper = self.wrap(obj, layer, self._reduce_aux)
            else:
                wrapper = self.wrap(obj, layer, _AUX.get(layer))
            for short, attr in bindings[obj]:
                setattr(mods[short], attr, wrapper)
                self._patches.append((mods[short], attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        name = np.frombuffer(self.span_name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        aux = np.frombuffer(self.aux, dtype=np.float64)
        dur = (end - start).astype(np.float64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {"name": name, "parent": parent, "start": start, "end": end,
                "aux": aux, "self_ns": dur - covered}

    def summary(self) -> dict:
        """Per span name: calls, self time (ms), summed aux count, and the
        count of calls whose parent is not a span of the same module."""
        a = self.arrays()
        out = {}
        home = np.array([n.split(".")[0] for n in self.names] or [""])
        top = np.ones(len(a["name"]), dtype=bool)
        inner = a["parent"] >= 0
        top[inner] = home[a["name"][a["parent"][inner]]] != home[a["name"][inner]]
        for sid, name in enumerate(self.names):
            sel = a["name"] == sid
            out[name] = {
                "calls": int(sel.sum()),
                "self_ms": float(a["self_ns"][sel].sum()) / 1e6,
                "aux": float(a["aux"][sel].sum()),
                "top_calls": int((sel & top).sum()),
                "top_aux": float(a["aux"][sel & top].sum()),
            }
        return out

    def write(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)
