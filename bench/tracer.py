"""Outside-in span recorder for hhdeform.

The program itself is not instrumented.  `Tracer.install` wraps the public
functions of each module listed in TARGETS and rebinds every name that
refers to them, so that by-name imports (`from .resolution import
differential` and the like) see the wrapper too.  `uninstall` puts the
original objects back; untraced runs never call `install` and so run the
unwrapped functions.

Each wrapped call records one span: name, start, end, parent span and op
id, in flat arrays that stay in memory until `dump`.  A span's self time is
its duration minus the time covered by its direct child spans.  Counters
(cache hits, repeated arguments, matrix sizes) and the digests of the
exact-output guard are computed in hooks that run after the span has
closed, on a paused clock, so their cost is not charged to any span.

Hooks assume the call shapes the CLI uses: positional `(n, alg)` for
`differential`, `coboundary_matrix` and `bar_cohomology_dimension`, and
the matrix or map as the first positional argument elsewhere.
"""

import gzip
import hashlib
import importlib
import json
import sys
import time
from array import array
from collections import Counter

COBOUNDARY = "homcomplex.coboundary_matrix"
UNDERLYING = "resolution.underlying_matrix"
DIGEST_STREAMS = (COBOUNDARY, UNDERLYING)


def matrix_digest(mat):
    """Digest of shape, nnz and every nonzero entry in canonical order."""
    h = hashlib.blake2b(digest_size=12)
    h.update(f"{mat.rows}x{mat.cols}:{mat.nnz()}".encode())
    # the private sparse rows: the public dense `row` walk of a
    # 2944 x 2816 matrix costs seconds
    for row in mat._rows:
        items = sorted(row.items())
        h.update(repr([(c, v.numerator, v.denominator) for c, v in items]).encode())
    return h.hexdigest()


def text_digest(text):
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def _memo(tracer, name, args, result):
    """A memoised call returns the very object it returned before."""
    key = (name, args[0], id(args[1]))
    if tracer.seen.get(key) is result:
        tracer.counts[(name, "cache_hits")] += 1
    tracer.seen[key] = result


def _repeat(tracer, name, obj):
    key = (name, id(obj))
    if key in tracer.seen:
        tracer.counts[(name, "repeats")] += 1
    tracer.seen[key] = obj  # keeps obj alive, so its id is not reused


def _matrix_out(tracer, name, mat):
    tracer.counts[(name, "out_nnz")] += mat.nnz()
    tracer.counts[(name, "out_cells")] += mat.rows * mat.cols
    tracer.record_digest(name, mat)


def _coboundary(tracer, name, args, result):
    _memo(tracer, name, args, result)
    _matrix_out(tracer, name, result)


def _underlying(tracer, name, args, result):
    _repeat(tracer, name, args[0])
    _matrix_out(tracer, name, result)


def _rank(tracer, name, args, result):
    _repeat(tracer, name, args[0])
    tracer.counts[(name, "in_nnz")] += args[0].nnz()


def _matmul(tracer, name, args, result):
    tracer.counts[(name, "out_nnz")] += result.nnz()


def _bar_reach(tracer, name, args, result):
    """Sum of bar_cochain_dimension over the degrees the oracle reached:
    degree n needs the cochains of degrees n-1, n and n+1."""
    bar = importlib.import_module("hhdeform.bar")
    n, alg = args[0], args[1]
    for d in range(n + 2):
        key = ("bar", id(alg), d)
        if key not in tracer.seen:
            tracer.seen[key] = alg
            tracer.counts[("bar", "cochains")] += bar.bar_cochain_dimension(d, alg)


# (span name, module, attribute, hook).  A "Class.method" attribute is
# patched on the class.  The span of cli.run_check is named per check.
TARGETS = (
    ("algebra.build", "hhdeform.algebra", "Algebra.__init__", None),
    ("algebra.multiply", "hhdeform.algebra", "Algebra.multiply", None),
    ("algebra.monomial_multiply", "hhdeform.algebra", "Algebra.monomial_multiply", None),
    ("freepaths.g_generators", "hhdeform.freepaths", "g_generators", None),
    ("freepaths.verify_g_recursions", "hhdeform.freepaths", "verify_g_recursions", None),
    ("resolution.differential", "hhdeform.resolution", "differential", _memo),
    (UNDERLYING, "hhdeform.resolution", "underlying_matrix", _underlying),
    ("resolution.compose", "hhdeform.resolution", "compose", None),
    ("resolution.check_complex", "hhdeform.resolution", "check_complex", None),
    ("resolution.verify_exactness", "hhdeform.resolution", "verify_exactness", None),
    (COBOUNDARY, "hhdeform.homcomplex", "coboundary_matrix", _coboundary),
    ("homcomplex.kernel_image_dims", "hhdeform.homcomplex", "kernel_image_dims", None),
    ("linalg.rank", "hhdeform.linalg", "rank", _rank),
    ("linalg.matmul", "hhdeform.linalg", "Matrix.matmul", _matmul),
    ("linalg.rref", "hhdeform.linalg", "rref", None),
    ("linalg.kernel_basis", "hhdeform.linalg", "kernel_basis", None),
    ("linalg.solve", "hhdeform.linalg", "solve", None),
    ("ring.ring_report", "hhdeform.ring", "ring_report", None),
    ("ring.lift_cocycle", "hhdeform.ring", "lift_cocycle", None),
    ("ring.cup_product", "hhdeform.ring", "cup_product", None),
    ("ring.class_of", "hhdeform.ring", "class_of", None),
    ("bar.bar_cohomology_dimension", "hhdeform.bar", "bar_cohomology_dimension", _bar_reach),
    ("cli.run_check", "hhdeform.cli", "run_check", None),
    ("cli.degree_rows", "hhdeform.cli", "degree_rows", None),
    ("cli.emit", "hhdeform.cli", "emit", None),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._depth = []  # per name id: spans of that name now open
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op = -1
        self.paused = 0.0
        self.counts = Counter()
        self.seen = {}
        self._digest_of = {}
        self.streams = {}
        self.op_digests = []
        self._restore = []

    # --- spans ------------------------------------------------------------

    def now(self):
        return time.perf_counter() - self.paused

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def open(self, nid):
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.op_of.append(self.op)
        self.nested.append(self._depth[nid] > 0)
        self._depth[nid] += 1
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.now())
        return i

    def close(self, i):
        self.end[i] = self.now()
        self._stack.pop()
        self._depth[self.name_of[i]] -= 1

    def run_hook(self, hook, name, args, result):
        t0 = time.perf_counter()
        try:
            hook(self, name, args, result)
        finally:
            self.paused += time.perf_counter() - t0

    # --- ops and the exact-output guard ------------------------------------

    def begin_op(self, index):
        self.op = index
        self.seen.clear()
        self._digest_of.clear()
        self.streams = {name: [] for name in DIGEST_STREAMS}

    def record_digest(self, stream, mat):
        cached = self._digest_of.get(id(mat))
        if cached is None or cached[0] is not mat:
            cached = self._digest_of[id(mat)] = (mat, matrix_digest(mat))
        self.streams[stream].append(cached[1])

    def end_op(self, code, text):
        t0 = time.perf_counter()
        entry = {"payload": text_digest(f"{code}\n{text}")}
        for name, digests in self.streams.items():
            entry[name] = text_digest(f"{len(digests)}:" + ",".join(digests))
        self.op_digests.append(entry)
        self.seen.clear()
        self._digest_of.clear()
        self.op = -1
        self.paused += time.perf_counter() - t0

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self
        per_check = name == "cli.run_check"
        nid = None if per_check else self.name_id(name)

        def wrapper(*args, **kwargs):
            i = tracer.open(tracer.name_id(f"{name}.{args[0]}") if per_check else nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # linalg.solve reports an inconsistent system by raising
                if type(exc).__name__ == "InconsistentSystem":
                    tracer.counts[(name, "inconsistent")] += 1
                raise
            finally:
                tracer.close(i)
            if hook is not None:
                tracer.run_hook(hook, name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target and rebind all names that refer to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr, hook in TARGETS:
            # `from hhdeform import algebra` is the constructor function, not
            # the module, so modules are looked up by their full name
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._rebind(cls, method, self._wrap(name, cls.__dict__[method], hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "hhdeform" or mod_name.startswith("hhdeform.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # --- results ------------------------------------------------------------

    def span_stats(self):
        """{span name: [calls, self seconds, total seconds]}.  Total time
        skips spans nested in a span of the same name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {}
        for i in range(n):
            duration = self.end[i] - self.start[i]
            entry = stats.setdefault(self.names[self.name_of[i]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration - child[i]
            if not self.nested[i]:
                entry[2] += duration
        return stats

    def metric(self, metric, stats):
        """Value of a per-layer metric named "<span>.<stat>"."""
        span, _, stat = metric.rpartition(".")
        calls, self_s, total_s = stats.get(span, (0, 0.0, 0.0))
        if stat == "calls":
            return calls
        if stat == "self_s":
            return self_s
        if stat == "total_s":
            return total_s
        if stat == "repeat_ratio":
            return self.counts[(span, "repeats")] / calls if calls else 0.0
        return self.counts[(span, stat)]

    def dump(self, path):
        """Write every span, gzip-compressed JSON in columns."""
        spans = {
            "names": self.names,
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op_of.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(spans, handle)
