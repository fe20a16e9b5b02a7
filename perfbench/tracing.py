"""Per-layer spans, taken from outside the package.

`Tracer.install` replaces each boundary function with a wrapper, on the
module or class through which the package's own callers reach it (for
example `cohomology.kernel_dimension`, the name `gkm_dimension` looks up,
not `lattice.kernel_dimension`).  While a request is open, every wrapped
call records a span (request id, span id, parent id, name, start, end).
When the request closes, its spans are folded into self times (a span's
time minus that of its child spans) and dropped.  Counts are read from
arguments and results at the same boundaries.  Outside a request the
wrappers only pass calls through.

A boundary that no longer exists is reported as missing, by name, and the
metrics that depend on it get no value, so a rename cannot quietly empty a
layer.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


def _matrix_counts(fn_name):
    """Counter for rank / kernel_dimension / kernel_basis calls."""

    def count(args, kwargs, result):
        rows = args[0]
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        if ncols is None:
            ncols = len(rows[0])
        if fn_name == "rank":
            rank = result
        elif fn_name == "kernel_dimension":
            rank = ncols - result
        else:
            rank = ncols - len(result)
        return {
            "lattice.calls": 1,
            "lattice.rows": len(rows),
            "lattice.cols": ncols,
            "lattice.nonzeros": sum(1 for row in rows for x in row if x),
            "lattice.rank": rank,
        }

    return count


def _one(name):
    return lambda args, kwargs, result: {name: 1}


def _length_of_result(name, attr=None):
    def count(args, kwargs, result):
        return {name: len(getattr(result, attr) if attr else result)}

    return count


def _bytes(args, kwargs, result):
    text = result if isinstance(result, str) else args[0]
    return {"fileformat.bytes": len(text.encode())}


@dataclass(frozen=True)
class Boundary:
    """A wrapped function: its span name (None: counts only), where it is
    bound ("module:attribute path"), and the counts read at the call."""

    span: str | None
    target: str
    counts: tuple = ()
    counter: object = None

    def metrics(self):
        return ((self.span + "_ms",) if self.span else ()) + self.counts


_MATRIX = ("lattice.calls", "lattice.rows", "lattice.cols", "lattice.nonzeros", "lattice.rank")

BOUNDARIES = (
    Boundary("lattice.eliminate", "toric_origami.cohomology:rank", _MATRIX, _matrix_counts("rank")),
    Boundary("lattice.eliminate", "toric_origami.cohomology:kernel_dimension", _MATRIX,
             _matrix_counts("kernel_dimension")),
    Boundary("lattice.eliminate", "toric_origami.cohomology:kernel_basis", _MATRIX,
             _matrix_counts("kernel_basis")),
    # called C(m, n) times per polytope built: counted, not timed
    Boundary(None, "toric_origami.polytope:solve_square", ("lattice.solve_square_calls",),
             _one("lattice.solve_square_calls")),
    Boundary("cohomology.rows", "toric_origami.cohomology:_constraint_rows"),
    Boundary("cohomology.betti", "toric_origami.cohomology:betti_numbers"),
    Boundary("cohomology.hilbert", "toric_origami.cohomology:hilbert_function"),
    Boundary("cohomology.generators", "toric_origami.cohomology:generator_degrees"),
    Boundary("orbit_space.face_poset", "toric_origami.fileformat:face_poset", ("orbit_space.faces",),
             _length_of_result("orbit_space.faces")),
    Boundary("orbit_space.glued_facets", "toric_origami.orbit_space:glued_facets"),
    Boundary("fileformat.covers", "toric_origami.fileformat:face_poset_dot"),
    Boundary("fileformat.parse", "toric_origami.fileformat:parse", ("fileformat.bytes",), _bytes),
    Boundary("fileformat.serialize", "toric_origami.fileformat:serialize", ("fileformat.bytes",), _bytes),
    Boundary("polytope.construct", "toric_origami.polytope:DelzantPolytope.__init__",
             ("polytope.constructs",), _one("polytope.constructs")),
    Boundary("polytope.faces", "toric_origami.polytope:DelzantPolytope.faces"),
    Boundary("polytope.delzant", "toric_origami.polytope:DelzantPolytope.is_delzant"),
    Boundary("template.construct", "toric_origami.template:OrigamiTemplate.__init__"),
    Boundary("template.validate", "toric_origami.template:OrigamiTemplate.validate"),
    Boundary("template.cut", "toric_origami.template:OrigamiTemplate.cut_leaf"),
    Boundary("template.blow_up", "toric_origami.template:radial_blow_up"),
    Boundary("template.isomorphic", "toric_origami.template:isomorphic"),
    Boundary("gkm.fixed_points", "toric_origami.gkm:fixed_points"),
    Boundary("gkm.moment_graph", "toric_origami.gkm:moment_graph", ("gkm.edges",),
             _length_of_result("gkm.edges", "edges")),
)

# every layer metric, in a fixed order
METRICS = tuple(dict.fromkeys(m for b in BOUNDARIES for m in b.metrics()))


def _resolve(target):
    """(owner object, attribute name) for "module:Class.attr"; None if absent."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Spans and counts of the open request, folded into per-layer totals."""

    def __init__(self):
        self.request = None  # id of the open request, or None
        self.spans = []  # (request id, span id, parent id, name, start, end), open request
        self.stack = [0]  # ids of the open spans; 0 is the request itself
        self.next_id = 1
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.requests = 0
        self.request_s = 0.0
        self.uncovered_s = 0.0
        self.overruns = 0  # requests whose layer self times exceed the request's time
        self.missing = {}  # metric -> boundary targets that could not be found

    def install(self):
        for b in BOUNDARIES:
            found = _resolve(b.target)
            if found is None:
                for metric in b.metrics():
                    self.missing.setdefault(metric, []).append(b.target)
                continue
            owner, attr = found
            setattr(owner, attr, self._wrap(b.span, getattr(owner, attr), b.counter))

    def _wrap(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                sid = tracer.next_id
                tracer.next_id += 1
                parent = tracer.stack[-1]
                tracer.stack.append(sid)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    tracer.stack.pop()
                    tracer.spans.append((tracer.request, sid, parent, name, start, end))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[key] += value
            return result

        return wrapper

    def begin(self, request_id):
        self.request = request_id
        self.spans = []
        self.stack = [0]

    def end(self, request_s):
        """Close the open request, which took `request_s` seconds."""
        child_s = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            child_s[parent] += end - start
        covered = 0.0
        for _, sid, _, name, start, end in self.spans:
            own = end - start - child_s[sid]
            self.self_s[name] += own
            covered += own
        if covered > request_s:
            self.overruns += 1
        self.requests += 1
        self.request_s += request_s
        self.uncovered_s += request_s - child_s[0]
        self.request = None
        self.spans = []

    def metrics(self):
        """Per-request means: {name: (value, unit, missing targets or None)}.

        The value is None exactly when a boundary the metric needs is missing.
        """
        per = 1.0 / self.requests
        out = {}
        for metric in METRICS:
            if metric.endswith("_ms"):
                value, unit = self.self_s[metric[: -len("_ms")]] * 1000.0 * per, "ms"
            else:
                value, unit = self.counts[metric] * per, "count"
            missing = self.missing.get(metric)
            out[metric] = (None if missing else value, unit, missing)
        out["trace.uncovered_share"] = (100.0 * self.uncovered_s / self.request_s, "%", None)
        return out
