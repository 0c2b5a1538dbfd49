"""Per-layer attribution for the traced run.

The tracer wraps, from outside, every function and method that the
ncsolenoid modules define, and rebinds each name in every ncsolenoid module
namespace so that calls between modules go through the wrappers too.  A
wrapper entered from another layer (or from the benchmark) opens a span:
the layer's self time is the span's duration minus the spans of other
layers nested in it.  A call inside the same layer opens no span, so its
time stays with the enclosing span of that layer.  Standard-library and
numpy time therefore counts for the layer that called it.

Counters are attached at the same boundaries:
  exactnum.fractions_made   Fraction objects constructed while exactnum is the innermost layer
  padic.digits_expanded     digits produced by PAdic.from_rational (preperiod plus period)
  solenoid.alpha_at_calls   every call of solenoid.alpha_at
  morita.candidates_tried   projection_partner calls made inside certificate_search
  bimodule.kernel_evals     ModElem.eval plus SumKernel.eval calls
  bimodule.numpy_s          time inside numpy functions called from bimodule code
  bimodule.ctx_build_s      time inside BimCtx.build, nested layers included

Wrappers only record while `active` is set, so the benchmark's own checks,
which also call into the program, are not attributed.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import statistics
import subprocess
import sys
import time
import types

LAYERS = ("exactnum", "padic", "solenoid", "multiplier", "morita", "bimodule", "suite", "cli")
COUNTERS = (
    "exactnum.fractions_made",
    "padic.digits_expanded",
    "solenoid.alpha_at_calls",
    "morita.candidates_tried",
    "bimodule.kernel_evals",
)
SKIP = {"__setattr__", "__delattr__", "__getattribute__", "__getattr__", "__new__", "__init_subclass__", "__class_getitem__"}


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[list] = []  # [layer index, time spent in nested spans of other layers]
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.numpy_s = 0.0
        self.ctx_build_s = 0.0
        self.fn_self: dict[str, float] = {}
        self._in_search = 0
        self._in_build = 0
        self._undo: list = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, fn, li: int, name: str):
        stack, perf, fn_self = self.stack, time.perf_counter, self.fn_self
        fn_self.setdefault(name, 0.0)

        def span(*args, **kwargs):
            if not self.active or (stack and stack[-1][0] == li):
                return fn(*args, **kwargs)
            self.calls[li] += 1
            frame = [li, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                own = dt - frame[1]
                self.self_s[li] += own
                fn_self[name] += own
                if stack:
                    stack[-1][1] += dt

        return functools.update_wrapper(span, fn)

    def _counted(self, inner, qualname: str):
        """Add the named counter's hook around an already wrapped callable."""
        counts = self.counts
        if qualname == "solenoid.alpha_at":

            def hook(*a, **k):
                if self.active:
                    counts["solenoid.alpha_at_calls"] += 1
                return inner(*a, **k)

        elif qualname == "padic.PAdic.from_rational":

            def hook(*a, **k):
                out = inner(*a, **k)
                if self.active and not out.is_zero:
                    counts["padic.digits_expanded"] += len(out.pre) + len(out.per)
                return out

        elif qualname == "morita.certificate_search":

            def hook(*a, **k):
                self._in_search += 1
                try:
                    return inner(*a, **k)
                finally:
                    self._in_search -= 1

        elif qualname == "morita.projection_partner":

            def hook(*a, **k):
                if self.active and self._in_search:
                    counts["morita.candidates_tried"] += 1
                return inner(*a, **k)

        elif qualname in ("bimodule.ModElem.eval", "bimodule.SumKernel.eval"):

            def hook(*a, **k):
                if self.active:
                    counts["bimodule.kernel_evals"] += 1
                return inner(*a, **k)

        elif qualname == "bimodule.BimCtx.build":

            def hook(*a, **k):
                if not self.active or self._in_build:
                    return inner(*a, **k)
                self._in_build += 1
                t0 = time.perf_counter()
                try:
                    return inner(*a, **k)
                finally:
                    self.ctx_build_s += time.perf_counter() - t0
                    self._in_build -= 1

        else:
            return inner
        return functools.update_wrapper(hook, inner)

    def _wrap(self, fn, li: int, qualname: str):
        return self._counted(self._span(fn, li, qualname), qualname)

    # -- installation ------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"ncsolenoid.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}  # id(original function) -> wrapper
        for li, layer in enumerate(LAYERS):
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(obj, li, f"{layer}.{name}")
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, li, layer)
        for mod in [sys.modules["ncsolenoid"], *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])
        self._set(mods["bimodule"], "np", self._numpy_proxy(mods["bimodule"].np))
        self._count_fractions()

    def _wrap_class(self, cls: type, li: int, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name in SKIP:
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, types.FunctionType):
                new = self._wrap(attr, li, qualname)
            elif isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(attr.__func__, li, qualname))
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap(attr.__func__, li, qualname))
            elif isinstance(attr, property) and attr.fget is not None:
                new = property(self._wrap(attr.fget, li, qualname), attr.fset, attr.fdel, attr.__doc__)
            else:
                continue
            self._set(cls, name, new)

    def _numpy_proxy(self, np):
        """A stand-in for bimodule's `np` whose functions time themselves."""
        proxy = types.ModuleType("numpy")

        def timed(fn):
            def call(*a, **k):
                if not self.active:
                    return fn(*a, **k)
                t0 = time.perf_counter()
                try:
                    return fn(*a, **k)
                finally:
                    self.numpy_s += time.perf_counter() - t0

            return call

        def lookup(name):
            obj = getattr(np, name)
            value = timed(obj) if callable(obj) and not isinstance(obj, type) else obj
            setattr(proxy, name, value)
            return value

        proxy.__getattr__ = lookup
        return proxy

    def _count_fractions(self) -> None:
        Fraction = fractions.Fraction
        original = Fraction.__dict__["__new__"]
        new_fn = original.__func__ if isinstance(original, staticmethod) else original
        stack, counts, exactnum = self.stack, self.counts, LAYERS.index("exactnum")

        def counting_new(cls, *a, **k):
            if self.active and stack and stack[-1][0] == exactnum:
                counts["exactnum.fractions_made"] += 1
            return new_fn(cls, *a, **k)

        self._undo.append((Fraction, "__new__", original))
        Fraction.__new__ = staticmethod(counting_new)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- report ------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (self.calls[li], "count")
            out[f"{layer}.self_s"] = (self.self_s[li], "s")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        out["bimodule.numpy_s"] = (self.numpy_s, "s")
        out["bimodule.ctx_build_s"] = (self.ctx_build_s, "s")
        return out

    def top_functions(self, n: int = 15) -> list[tuple[str, float]]:
        return sorted(((k, v) for k, v in self.fn_self.items() if v), key=lambda kv: -kv[1])[:n]


def import_times(python: str, env: dict, cwd: str, repeats: int = 3) -> tuple[float, float]:
    """Median (cli import, numpy import) seconds from `python -X importtime -c "import ncsolenoid.cli"`.

    The cli figure sums the cumulative times of the top-level ncsolenoid
    entries: the package itself and then ncsolenoid.cli.
    """
    cli, numpy = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import ncsolenoid.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
        )
        total, np_us = 0, 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.strip() == "numpy":
                np_us = int(cumulative)
            if name.startswith(" ncsolenoid"):  # one space: imported at top level
                total += int(cumulative)
        cli.append(total / 1e6)
        numpy.append(np_us / 1e6)
    return statistics.median(cli), statistics.median(numpy)
