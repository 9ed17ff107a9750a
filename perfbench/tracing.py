"""Spans around calls into the package's public functions.

The package is not changed: ``Tracer.install`` rebinds each listed function
to a recording wrapper in every carlitzdigits module that imported it by
name (and on the class, for methods), and ``uninstall`` puts the originals
back.  Spans live in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

# module.function (or module.Class.method) for every wrapped call
TRACED = (
    "cli.main",
    "classnum.compute_report",
    "classnum.canonical_primitive_lift",
    "classnum.digit_polynomials",
    "classnum.h_plus_from_digits",
    "classnum.h_minus_from_digits",
    "classnum.h_from_char_sums",
    "classnum.point_count_class_number",
    "chars.build_context",
    "cycint.int_poly_resultant",
    "digits.digit_expand",
    "carlitz.carlitz_poly",
    "carlitz.AdditivePoly.apply",
    "polyring.is_irreducible",
    "polyring.parse_poly",
    "polyring.format_poly",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, child_s]
        self.stack: list[int] = []
        self.op: int | None = None
        self.paused = False
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            idx = len(spans)
            span = [name, clock(), None, parent, self.op, 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if parent is not None:
                    spans[parent][5] += span[2] - span[1]

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "carlitzdigits") -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name in TRACED:
            mod_name, *attr_path = name.split(".")
            owner = sys.modules[f"{package}.{mod_name}"]
            for attr in attr_path[:-1]:
                owner = getattr(owner, attr)
            original = owner.__dict__[attr_path[-1]]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._undo.append((owner, attr_path[-1], original))
                setattr(owner, attr_path[-1], wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside this block record no spans."""
        prev, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = prev

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def per_function(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self time excludes child spans."""
        out = {name: [0, 0.0] for name in TRACED}
        for name, start, end, _parent, _op, child_s in self.spans:
            rec = out[name]
            rec[0] += 1
            rec[1] += (end - start) - child_s
        return {name: (c, s) for name, (c, s) in out.items()}

    def write(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o, _ in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
