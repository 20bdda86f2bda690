"""Outside-in tracer: wraps the public functions of pfcurv's modules.

Nothing under ``src/`` is edited. :meth:`Tracer.install` replaces every
public function and public method defined in the traced modules with a
timing wrapper, then rebinds each module-level reference to an original
(``suites.deficit``, ``meshfile.build_complex``, ``pfcurv.read_mesh``,
the functions held in ``suites.SUITES``) so that calls through any of
them are seen. Span names are ``<module>.<function>``; a class
constructor written in the module is ``<module>.<Class>`` and a public
method is ``<module>.<method>``.

Each call records one span (name, start, end, parent span, op id) in
memory; :meth:`Tracer.dump` writes them out. Call counts and self times
(inclusive time minus the time of wrapped child calls) are accumulated
as the calls return, so they stay exact when the span buffer is full.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import time
import types
from array import array

import numpy as np

MODULES = ("cli", "meshfile", "complex", "geometry", "curvature", "dec", "suites", "meshgen")


def _hinge_index(h) -> int:
    return getattr(h, "simplex", h).index


class Tracer:
    """Span recorder for one process.

    ``begin_op``/``end_op`` bracket one benchmark op; spans record the op
    id that was current when they started.
    """

    def __init__(self, span_cap: int = 1_000_000):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.ids: dict[str, int] = {}
        # flat (span, name, parent, op, start, end) records, 48 bytes each
        self.spans = array("d")
        self.span_cap = span_cap
        self.n_spans = 0
        self.op = -1
        self.bytes_in = 0
        self.results = 0
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        # distinct-key counters: (metric serial, hinge, top) per dihedral
        # call and (metric serial, hinge) per deficit call
        self._serial: dict[int, int] = {}
        self._serials = itertools.count()
        self._keys: dict[str, set] = {
            "geometry.dihedral_angle": set(),
            "curvature.deficit": set(),
        }
        self.distinct = {name: 0 for name in self._keys}

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        now = time.perf_counter
        key_fn = self._key_fn(name)
        post = self._post_fn(name)
        keys = self._keys.get(name)

        def traced(*args, **kwargs):
            if key_fn is not None:
                try:
                    keys.add(key_fn(args))
                except (AttributeError, IndexError, TypeError):
                    pass  # signature changed; the ratio reads low, nothing breaks
            idx = self.n_spans
            self.n_spans = idx + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                self_s[nid] += dur - frame[0]
                calls[nid] += 1
                if stack:
                    stack[-1][0] += dur
                if idx < self.span_cap:
                    spans.extend((idx, nid, parent, self.op, t0, t1))
            if post is not None:
                post(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _key_fn(self, name: str):
        if name == "geometry.dihedral_angle":
            return lambda a: (self._serial.get(id(a[0])), a[1].index, a[2].index)
        if name == "curvature.deficit":
            return lambda a: (self._serial.get(id(a[0])), _hinge_index(a[1]))
        return None

    def _post_fn(self, name: str):
        if name == "geometry.MetricComplex":
            def post(args, out):
                self._serial[id(args[0])] = next(self._serials)
            return post
        if name in ("meshfile.read_mesh", "meshfile.read_cochain"):
            def post(args, out):
                if args and isinstance(args[0], (str, os.PathLike)):
                    self.bytes_in += os.path.getsize(args[0])
            return post
        if name in ("suites.volume_checks", "suites.dec_checks", "suites.curvature_checks"):
            def post(args, out):
                self.results += len(out)
            return post
        return None

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "pfcurv") -> None:
        """Wrap the public functions of ``package.<m>`` for m in MODULES.

        A module that does not import is skipped, so its spans read as
        absent.
        """
        wrapped: dict[types.FunctionType, object] = {}
        taken: set[str] = set()  # span names used in this install
        for mname in MODULES:
            try:
                mod = importlib.import_module(f"{package}.{mname}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[obj] = self._wrap(obj, f"{mname}.{attr}")
                    taken.add(f"{mname}.{attr}")
                elif isinstance(obj, type):
                    self._wrap_class(mname, mod, obj, taken)
        # rebind every reference held by a module of the package
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if isinstance(val, types.FunctionType) and val in wrapped:
                            self._restore.append((obj, key, val))
                            obj[key] = wrapped[val]

    def _wrap_class(self, mname: str, mod, cls: type, taken: set[str]) -> None:
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if attr == "__init__":
                # constructors written in the module, not generated ones
                if obj.__code__.co_filename != mod.__file__:
                    continue
                name = f"{mname}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{mname}.{attr}"
                if name in taken:
                    name = f"{mname}.{cls.__name__}.{attr}"
            taken.add(name)
            self._set(cls, attr, self._wrap(obj, name))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- ops and output --------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        # metric serials are fresh per op in every workload, so per-op
        # distinct sets add up to the distinct count of the whole run
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
            keys.clear()
        self.op = -1

    @property
    def kept(self) -> int:
        return len(self.spans) // 6

    def table(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
        }

    def dump(self, path: str) -> None:
        """Write the retained spans and the name table to ``path`` (.npz)."""
        arr = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, 6)
        np.savez_compressed(
            path,
            span=arr[:, 0].astype(np.int64),
            name=arr[:, 1].astype(np.int32),
            parent=arr[:, 2].astype(np.int64),
            op=arr[:, 3].astype(np.int32),
            start=arr[:, 4],
            end=arr[:, 5],
            names=np.array(self.names),
            dropped=np.array(self.n_spans - self.kept),
        )
