"""Traced runs: spans and counters at every layer boundary of contraction_lab.

``Tracer.install`` replaces each public function of a layer module (and the
public methods of its classes) with a wrapper that records one span per
call: name, parent span, operation id, start and end.  The same wrapper
object is bound under every name that held the original, so calls that go
through a ``from .x import y`` binding in another module are counted too.
The ``kernel`` pseudo-layer wraps the ``numpy.linalg`` factorizations that
every module calls and computes their operation counts from the shapes.

Spans stay in memory; ``Tracer.metrics`` derives self times from them (a
span's duration minus the durations of its direct children) when the run
ends.  Nothing here runs unless the benchmark is started with ``--trace 1``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from contraction_lab.harnack import INCONCLUSIVE, NOT_DOMINATED
from contraction_lab.linalg import DEFAULT_TOL

LAYERS = ("linalg", "contraction", "asymptotics", "shmulyan", "segments",
          "harnack", "schur", "corpus")
ALL_LAYERS = LAYERS + ("kernel",)

# Private functions worth their own span, under the name they are reported by.
PRIVATE = {"schur": {"_certified_sup": "certified_sup"}}

KERNEL_FUNCS = ("svd", "eigh", "eigvalsh", "eig", "eigvals", "qr", "norm")

# Names rebound by ``from .x import y`` that must resolve to the wrappers.
REBOUND = (("shmulyan", "radius_search"), ("shmulyan", "circle_max_norm"),
           ("schur", "radius_search"), ("schur", "circle_max_norm"),
           ("schur", "shmulyan_equivalent"), ("shmulyan", "asymptotic_limit"))


def _kernel_flops(name, args, kwargs):
    """Real floating-point operations of one call, from textbook counts.

    Golub & Van Loan operation counts for Householder-based LAPACK
    routines, times 4 for complex data and times the batch size for
    stacked inputs.  Returns (flops, is_svd, is_eig).
    """
    a = np.asarray(args[0])
    if a.ndim < 2:
        return 0.0, False, False
    m, n = a.shape[-2:]
    batch = math.prod(a.shape[:-2])
    big, small = max(m, n), min(m, n)
    scale = batch * (4.0 if np.iscomplexobj(a) else 1.0)
    if name == "norm":
        order = args[1] if len(args) > 1 else kwargs.get("ord")
        if order != 2 or a.ndim != 2:
            return 0.0, False, False
        return scale * (4 * big * small ** 2 - 4 * small ** 3 / 3), True, False
    if name == "svd":
        if not kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
            flops = 4 * big * small ** 2 - 4 * small ** 3 / 3
        elif kwargs.get("full_matrices", args[1] if len(args) > 1 else True):
            flops = 4 * big ** 2 * small + 8 * big * small ** 2 + 9 * small ** 3
        else:
            flops = 6 * big * small ** 2 + 11 * small ** 3
        return scale * flops, True, False
    if name in ("eigh", "eigvalsh"):
        return scale * (9 * n ** 3 if name == "eigh" else 4 * n ** 3 / 3), False, True
    if name in ("eig", "eigvals"):
        return scale * (25 * n ** 3 if name == "eig" else 10 * n ** 3), False, True
    if name == "qr":
        return scale * (4 * big * small ** 2 - 4 * small ** 3 / 3), False, False
    return 0.0, False, False


def _dim(x):
    mat = getattr(x, "mat", x)
    return int(np.shape(mat)[0]) if np.ndim(mat) >= 1 else 1


class Tracer:
    """Span recorder for one process; install once, then switch phases."""

    def __init__(self):
        self.spans = []      # [key, parent, op, phase, t0, t1]
        self.stack = []
        self.op = None
        self.phase = "setup"
        self.errors = Counter()     # (phase, layer) -> exceptions raised
        # filled by the observers below, during the timed pass only
        self.counts = Counter()
        self.per_call = defaultdict(list)  # (key, size label) -> durations
        self.limit_inputs = set()
        self.gram_dim_max = 0
        self.patches = []  # (owner, attribute, original) for uninstall

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every original function back."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- installation ---------------------------------------------------
    def install(self, package="contraction_lab"):
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[obj] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, layer)
            for private, label in PRIVATE.get(layer, {}).items():
                obj = getattr(mod, private)
                originals[obj] = self._wrap(obj, layer, label)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patch(mod, attr, originals[value])
        for mod_name, attr in REBOUND:
            bound = getattr(sys.modules[f"{package}.{mod_name}"], attr)
            if not getattr(bound, "_traced", False):
                raise RuntimeError(f"{mod_name}.{attr} escaped the tracer")
        linalg = np.linalg
        for name in KERNEL_FUNCS:
            self._patch(linalg, name, self._wrap(getattr(linalg, name), "kernel", name))

    def _wrap_methods(self, cls, layer):
        for name, value in list(vars(cls).items()):
            if not name.startswith("_") and inspect.isfunction(value):
                self._patch(cls, name, self._wrap(value, layer, f"{cls.__name__}.{name}"))

    def _wrap(self, fn, layer, name):
        key = f"{layer}.{name}"
        before = getattr(self, f"_before_{layer}_{name}", None)
        after = getattr(self, f"_after_{layer}_{name}", None)
        if layer == "kernel":
            after = functools.partial(self._after_kernel, name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [key, parent, self.op, self.phase, clock(), None]
            spans.append(span)
            stack.append(idx)
            state = before(args, kwargs) if before and self.phase == "pass" else None
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[(self.phase, layer)] += 1
                raise
            finally:
                span[5] = clock()
                stack.pop()
            if after and self.phase == "pass":
                after(args, kwargs, result, state, span)
            return result

        wrapper._traced = True
        return wrapper

    # -- observers: counters measured where the work happens --------------
    def _bump(self, name, value=1):
        self.counts[name] += value

    def _after_kernel(self, name, args, kwargs, result, state, span):
        flops, is_svd, is_eig = _kernel_flops(name, args, kwargs)
        self._bump("kernel.flops_computed", flops)
        self._bump("kernel.svd.calls", int(is_svd))
        self._bump("kernel.eig.calls", int(is_eig))

    def _before_contraction_defect_data(self, args, kwargs):
        tol = args[1] if len(args) > 1 else kwargs.get("tol", DEFAULT_TOL)
        return tol in args[0]._defect_cache

    def _after_contraction_defect_data(self, args, kwargs, result, hit, span):
        self._bump("contraction.defect_data.hits", int(hit))
        if not hit:
            self._per_call(span, f"d={_dim(args[0])}")

    def _after_shmulyan_shmulyan_dominates(self, args, kwargs, result, state, span):
        self._per_call(span, f"d={_dim(args[0])} dominates={result.dominates}")

    def _after_segments_radius_search(self, args, kwargs, result, state, span):
        samples = args[3] if len(args) > 3 else kwargs.get("samples", 128)
        exit_ = "floor" if result == 0.0 else "constant" if math.isinf(result) else "searched"
        self._per_call(span, f"d={_dim(args[0])} samples={samples} {exit_}")

    def _after_segments_circle_max_norm(self, args, kwargs, result, state, span):
        self._bump("segments.grid_points", args[3] if len(args) > 3 else kwargs["samples"])

    def _after_schur_certified_sup(self, args, kwargs, result, state, span):
        coeffs = args[0]
        shape = "x".join(str(s) for s in np.shape(coeffs[0]))
        self._per_call(span, f"shape={shape} degree={len(coeffs) - 1}")

    def _after_schur_connect_arc(self, args, kwargs, result, state, span):
        if result.status != "connected":
            return
        tol = args[2] if len(args) > 2 else kwargs.get("tol", DEFAULT_TOL)
        arcs = result.certificate.arcs
        self._bump("schur.connect_arc.hops", len(arcs))
        self._bump("schur.arcs", len(arcs))
        self._bump("schur.arcs_cert_failed", sum(
            arc.sup_norm_estimate > 1.0 + tol.contraction_slack for arc, _ in arcs))

    def _after_asymptotics_asymptotic_limit(self, args, kwargs, result, state, span):
        mat = np.ascontiguousarray(args[0].mat)
        self.limit_inputs.add(hashlib.blake2b(mat.tobytes(), digest_size=16).digest())

    def _after_harnack_harnack_dominates(self, args, kwargs, result, state, span):
        escaped = result.status == NOT_DOMINATED
        self._bump("harnack.levels", len(result.levels) + int(escaped))
        self._bump("harnack.escapes", int(escaped and result.witness is not None))
        self._bump("harnack.inconclusive", int(result.status == INCONCLUSIVE))
        self.gram_dim_max = max(self.gram_dim_max,
                                (result.levels_used + 1) * _dim(args[0]))

    def _per_call(self, span, label):
        self.per_call[(span[0], label)].append(span[5] - span[4])

    # -- derived metrics --------------------------------------------------
    def metrics(self):
        """Per-layer metrics of the timed pass; corpus figures come from set-up."""
        child = [0.0] * len(self.spans)
        for _key, parent, _op, _phase, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = Counter()
        calls = Counter()
        inclusive = Counter()
        for i, (key, _parent, _op, phase, t0, t1) in enumerate(self.spans):
            layer = key.split(".", 1)[0]
            if phase == ("setup" if layer == "corpus" else "pass"):
                inclusive[key] += t1 - t0
                for name in (layer, key):
                    calls[name] += 1
                    self_s[name] += t1 - t0 - child[i]
        c = self.counts.__getitem__

        def share(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in ALL_LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.errors"] = self.errors[("setup" if layer == "corpus" else "pass", layer)]
        for key in ("segments.circle_max_norm", "segments.radius_search",
                    "schur.certified_sup", "asymptotics.asymptotic_limit",
                    "contraction.defect_data", "shmulyan.shmulyan_dominates",
                    "corpus.generate"):
            out[f"{key}.calls"] = calls[key]
        hd_calls = calls["harnack.harnack_dominates"]
        out.update({
            "segments.grid_points": c("segments.grid_points"),
            "schur.connect_arc.hops": c("schur.connect_arc.hops"),
            "schur.arc_cert_fail_share": share(c("schur.arcs_cert_failed"), c("schur.arcs")),
            "harnack.levels": c("harnack.levels"),
            "harnack.gram_dim_max": self.gram_dim_max,
            "harnack.kernel_escape_share": share(c("harnack.escapes"), hd_calls),
            "harnack.inconclusive_share": share(c("harnack.inconclusive"), hd_calls),
            "asymptotics.limit_repeat_ratio":
                share(calls["asymptotics.asymptotic_limit"], len(self.limit_inputs)),
            "asymptotics.reducing_isometric_part.self_s":
                self_s["asymptotics.reducing_isometric_part"],
            # with its kernel calls: the full SVD lands in kernel.self_s
            "asymptotics.reducing_isometric_part.inclusive_s":
                inclusive["asymptotics.reducing_isometric_part"],
            "contraction.defect_data.hit_ratio":
                share(c("contraction.defect_data.hits"), calls["contraction.defect_data"]),
            "kernel.svd.calls": c("kernel.svd.calls"),
            "kernel.eig.calls": c("kernel.eig.calls"),
            "kernel.flops_computed": c("kernel.flops_computed"),
        })
        return out

    def baseline_table(self):
        """Median inclusive time per call, by call and input size.

        Covers the calls of the ROADMAP baseline table: shmulyan_dominates,
        radius_search, defect_data (cache misses) and the certified sup.
        """
        rows = []
        for (key, label), durations in sorted(self.per_call.items()):
            rows.append({"call": key, "size": label, "calls": len(durations),
                         "median_ms": statistics.median(durations) * 1e3})
        return rows
