"""Spans around calls into wildcv's modules, recorded from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper
that, while ``tracer.active`` is true, records one span per call:

* ``calls``, inclusive seconds, self seconds (inclusive minus the time of
  traced child spans) and the number of calls that raised;
* the case it ran for: ``derive_case`` and ``oracle_verify`` set it for
  everything they call, on the calling thread;
* its *owner*: the nearest enclosing traced span that is not a ``polyring``
  primitive, so a stage called straight from ``derive_case`` can be told
  apart from the same function called inside another stage;
* for ``polyring.mul`` also the term-pair products tried and the terms kept.

Spans are kept in memory per thread (``cli verify`` derives on a thread
pool) and merged by ``table``.  A function is patched in every ``wildcv``
module namespace that holds it, so callers that imported it by name see the
wrapper too.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

# (span name, module, attribute path) -- the public functions of each layer,
# plus the pipeline internals that derive_case and oracle_verify call.
TRACED = (
    ("polyring.mul", "wildcv.polyring", "LaurentPoly.__mul__"),
    ("polyring.add", "wildcv.polyring", "LaurentPoly.__add__"),
    ("polyring.substitute", "wildcv.polyring", "LaurentPoly.substitute"),
    ("polyring.evaluate", "wildcv.polyring", "LaurentPoly.evaluate"),
    ("polyring.parse", "wildcv.polyring", "parse"),
    ("polyring.format", "wildcv.polyring", "format_poly"),
    ("stokes.matrices", "wildcv.stokes", "stokes_matrix"),
    ("stokes.det", "wildcv.stokes", "SymMat3.det"),
    ("model.case_spec", "wildcv.model", "case_spec"),
    ("model.validate_spec", "wildcv.model", "validate_spec"),
    ("monodromy.topological", "wildcv.monodromy", "topological_monodromy"),
    ("monodromy.closure", "wildcv.monodromy", "closure_equations"),
    ("invariants.rewrite", "wildcv.invariants", "rewrite_in_invariants"),
    ("pipeline.derive_case", "wildcv.pipeline", "derive_case"),
    ("pipeline.eliminate", "wildcv.pipeline", "_eliminate_with_solutions"),
    ("pipeline.normal_form", "wildcv.pipeline", "to_cubic_normal_form"),
    ("pipeline.oracle_verify", "wildcv.pipeline", "oracle_verify"),
    ("pipeline.oracle_trial", "wildcv.pipeline", "_oracle_trial"),
    ("pipeline.reconstruct", "wildcv.pipeline", "CubicSurface.reconstruct"),
    ("report.to_dict", "wildcv.report", "report_to_dict"),
    ("report.to_text", "wildcv.report", "report_to_text"),
    ("cli.main", "wildcv.cli", "main"),
)

# per-span record: calls, inclusive s, self s, errors, mul pairs, mul terms
_CALLS, _INCL, _SELF, _ERRORS, _PAIRS, _TERMS = range(6)


def _case_of(name, args, kwargs):
    if name == "pipeline.derive_case":
        return args[0] if args else kwargs["name"]
    return (args[0] if args else kwargs["report"]).name    # oracle_verify


class _ThreadState:
    __slots__ = ("children", "owner", "case", "stats")

    def __init__(self):
        self.children = []   # per open span: seconds spent in traced children
        self.owner = ""
        self.case = ""
        self.stats = {}


class Tracer:
    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name, fn):
        tracer = self
        primitive = name.startswith("polyring.")
        is_mul = name == "polyring.mul"
        sets_case = name in ("pipeline.derive_case", "pipeline.oracle_verify")

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            prev_owner, prev_case = st.owner, st.case
            if sets_case:
                st.case = _case_of(name, args, kwargs)
            key = (name, st.case, prev_owner)
            if not primitive:
                st.owner = name
            children = st.children
            children.append(0.0)
            errors = 0
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                errors = 1
                raise
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                st.owner, st.case = prev_owner, prev_case
                rec = st.stats.get(key)
                if rec is None:
                    rec = st.stats[key] = [0, 0.0, 0.0, 0, 0, 0]
                rec[_CALLS] += 1
                rec[_INCL] += dt
                rec[_SELF] += dt - inner
                rec[_ERRORS] += errors
                if is_mul and result is not None:
                    other = args[1]
                    rec[_PAIRS] += len(args[0].terms) * (
                        len(other.terms) if hasattr(other, "terms") else 1)
                    rec[_TERMS] += len(result.terms)

        return traced

    def install(self):
        """Patch every traced function; call once, before ``active`` is set."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wildcv" or n.startswith("wildcv."))]
        for name, modname, path in TRACED:
            owner = sys.modules.get(modname)
            if owner is None:     # not imported in this process, so never called
                continue
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                print(f"tracer: {modname}.{path} not found; {name} reads 0",
                      file=sys.stderr)
                continue
            wrapper = self._wrap(name, fn)
            if cls_path:
                # aliases such as __rmul__ = __mul__ share the wrapper
                for key, val in list(vars(owner).items()):
                    if val is fn:
                        self._patches.append((owner, key, fn))
                        setattr(owner, key, wrapper)
            else:
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._patches.append((mod, key, fn))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        self.active = False
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    def table(self) -> list:
        """Spans as JSON-ready rows: [name, case, owner, calls, incl, self,
        errors, pairs, terms]."""
        with self._lock:
            states = list(self._states)
        merged = merge_tables([[*key, *rec] for key, rec in st.stats.items()]
                              for st in states)
        return [[*key, *rec] for key, rec in sorted(merged.items())]


def merge_tables(tables) -> dict:
    """Sum span tables (as returned by ``Tracer.table``) into {key: record}."""
    merged: dict = {}
    for table in tables:
        for name, case, owner, *rec in table:
            acc = merged.setdefault((name, case, owner), [0, 0.0, 0.0, 0, 0, 0])
            for i, val in enumerate(rec):
                acc[i] += val
    return merged
