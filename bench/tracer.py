"""Spans around chansim's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
chansim module that holds it, under whatever name: ``runner.psd_sqrt``,
``xlmimo.psd_sqrt`` and ``metrics.log2_det_ipm`` are bindings made by
``from .linalg import ...`` and would miss calls if only the defining
module were patched.  A span records its layer, start, end, parent and,
for the eigen and quadrature layers, its flop; spans stay in memory
until ``summary`` or ``dump``.

A call into a layer from inside the same layer (``log2_det_ipm`` calling
``psd_eigvals``) is part of the outer span, so a layer's call count is
the number of times the layer was entered.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

# Layer name -> (module, function) pairs wrapped under it.
LAYERS = {
    "config.parse": [("config", "parse_config")],
    "runner": [("runner", "run_experiment")],
    "runner.trial": [("runner", "trial_value")],
    "runner.emit_csv": [("runner", "emit_csv")],
    "cbsm.build": [("cbsm", "exponential_correlation"),
                   ("cbsm", "exponential_with_shadowing"),
                   ("cbsm", "uncorrelated_with_shadowing")],
    "gbsm.ula_quadrature": [("gbsm", "onering_ula"), ("gbsm", "gaussian_ula_numeric")],
    "gbsm.ula_kernel": [("gbsm", "gaussian_ula_closed"), ("gbsm", "gaussian_ula_shadowed")],
    "gbsm.upa_quadrature": [("gbsm", "onering_upa"), ("gbsm", "gaussian_upa")],
    "linalg.sqrt": [("linalg", "psd_sqrt")],
    "linalg.eigvals": [("linalg", "psd_eigvals"), ("linalg", "log2_det_ipm")],
    "linalg.cond": [("linalg", "condition_number")],
    "xlmimo.scenario": [("xlmimo", "build_scenario")],
    "xlmimo.cluster_corr": [("xlmimo", "cluster_correlation_matrix")],
    "xlmimo.assemble": [("xlmimo", "assemble_channel_matrix")],
    "precoding": [("precoding", "cb_precoder"), ("precoding", "zf_precoder"),
                  ("precoding", "normalize_columns")],
    "metrics": [("metrics", "capacity_ub"), ("metrics", "capacity_single"),
                ("metrics", "sinr_per_user"), ("metrics", "correlation_coefficient"),
                ("metrics", "mean_with_stderr")],
}


# Floating-point work of one call, in flop, from its arguments.  Dense
# Hermitian eigen-work counts four real flop per complex one, times M^3:
# eigenvalues only 4 * 4/3; eigenvectors 4 * 9 plus 8 for U sqrt(L) U^H;
# singular values 4 * 8/3.  A quadrature build over N angle nodes costs
# 8 M^2 N for the rank-N update A diag(w) A^H.
_EIG_COEFF = {"linalg.eigvals": 16.0 / 3.0, "linalg.sqrt": 44.0, "linalg.cond": 32.0 / 3.0}
_QUADRATURE = {"gbsm.ula_quadrature": False, "gbsm.upa_quadrature": True}   # planar?


def _flop_counter(layer, fn):
    """A function of a call's arguments giving its flop, or None."""
    if layer in _EIG_COEFF:
        coeff = _EIG_COEFF[layer]
        return lambda args, kwargs: coeff * args[0].shape[0] ** 3
    if layer not in _QUADRATURE:
        return None
    planar = _QUADRATURE[layer]
    sig = inspect.signature(fn)

    def flop(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        nodes = bound.arguments["quad"].nodes_per_dim
        m = bound.arguments["geom"].m
        return 8.0 * m * m * (nodes * nodes if planar else nodes)
    return flop


class Tracer:
    """Records spans of the wrapped layers; one per process."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index, flop]
        self._stack = []         # indices of the open spans
        self.bindings = {}       # layer -> ["module.name", ...] patched

    def _wrap(self, layer, fn, flop):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            work = flop(args, kwargs) if flop else 0.0
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1, work])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every function of LAYERS in every loaded chansim module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "chansim" or name.startswith("chansim."))]
        for layer, targets in LAYERS.items():
            for mod_name, fn_name in targets:
                fn = getattr(sys.modules["chansim." + mod_name], fn_name)
                wrapper = self._wrap(layer, fn, _flop_counter(layer, fn))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self.bindings.setdefault(layer, []).append(
                                f"{mod.__name__}.{attr}")

    def summary(self) -> dict:
        """Per layer: calls, total and self seconds, and flop."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (layer, start, end, _, work) in enumerate(self.spans):
            s = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                       "flop": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["flop"] += work
        return out

    def dump(self, path):
        """Write the spans (layer, start, end, parent index, flop) and the
        patched bindings as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "flop"],
                       "bindings": self.bindings, "spans": self.spans}, fh)
