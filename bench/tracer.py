"""In-memory span tracer for the fracineq layers.

``Tracer.install`` wraps every function that one fracineq module imports
from another, in the importing module's namespace (for example
``sweep.certify_s_convex`` or ``hhbounds.left_rl``) and in the package
namespace, so each call that crosses a layer boundary becomes a span:
layer, function, start, end and the index of the enclosing span.  The
layer is the module that defines the function.  Calls inside one module
are not spans.  Spans stay in memory until ``summary`` folds them into
per-layer counts and self times (a span's duration minus the part its
child spans cover).  ``uninstall`` restores the original functions, so
untraced work runs the package exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

MODULES = ("specfun", "quadrature", "fracint", "funclib", "hhbounds",
           "sweep", "cli")
LAYERS = ("specfun", "quadrature", "fracint", "funclib", "hhbounds", "sweep")
CERTIFIERS = ("certify_s_convex", "certify_s_concave", "certify_declared")
PARSERS = ("parse_config_text", "load_config")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [layer, function, start, end, parent]
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.evals = 0
        self.accuracy_errors = 0
        self.cert_triples = 0
        self.cert_passed = 0
        self.render_bytes = 0

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> "Tracer":
        import fracineq
        from fracineq.errors import AccuracyError
        self._accuracy_error = AccuracyError
        modules = [fracineq] + [importlib.import_module(f"fracineq.{m}")
                                for m in MODULES]
        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj)
                        and obj.__module__.startswith("fracineq.")
                        and obj.__module__ != mod.__name__):
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj)
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        return self

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[1]
        name = fn.__name__
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._accuracy_error as exc:
                if name == "integrate":
                    self.accuracy_errors += 1
                    self.evals += exc.evaluations
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if name == "integrate":
                self.evals += result.evaluations
            elif name in CERTIFIERS:
                self.cert_triples += result.checked
                self.cert_passed += bool(result.passed)
            elif name == "render_report":
                self.render_bytes += len(result)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """Per-layer counts and times over every span recorded so far, with
        the ratios of ``add_ratios``."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter()
        fn_calls = Counter()
        self_s = Counter()
        inclusive = Counter()
        for (layer, name, start, end, _), child in zip(self.spans, covered):
            calls[layer] += 1
            fn_calls[name] += 1
            self_s[layer] += (end - start) - child
            inclusive[name] += end - start
        cert_calls = sum(fn_calls[n] for n in CERTIFIERS)
        out = {f"{layer}.calls": calls[layer] for layer in LAYERS}
        out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
        out.update({
            "quadrature.evals": self.evals,
            "quadrature.accuracy_errors": self.accuracy_errors,
            "funclib.cert_calls": cert_calls,
            "funclib.cert_passed": self.cert_passed,
            "funclib.cert_triples": self.cert_triples,
            "hhbounds.weight_report_calls": fn_calls["weight_integral_report"],
            "hhbounds.weight_report_s": inclusive["weight_integral_report"],
            "sweep.render_s": inclusive["render_report"],
            "sweep.render_bytes": self.render_bytes,
            "sweep.parse_s": sum(inclusive[n] for n in PARSERS),
        })
        return add_ratios(out)


def add_ratios(counts: dict[str, float]) -> dict[str, float]:
    """Add evaluations per quadrature call and the share of certifications
    that passed, from the counts they divide."""
    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    counts["quadrature.evals_per_call"] = ratio("quadrature.evals",
                                                "quadrature.calls")
    counts["funclib.cert_pass_ratio"] = ratio("funclib.cert_passed",
                                              "funclib.cert_calls")
    return counts
