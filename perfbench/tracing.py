"""Per-layer tracing, installed from the benchmark's own files.

``Tracer.install`` wraps functions at the boundaries between rangemaj's
modules. Each wrapped call records a span (name, start, end, parent span,
op id) and adds its self time -- its duration minus the time covered by
its child spans -- and one call to a per-op-kind aggregate. Hooks on some
boundaries also count work (leaves visited, candidates verified, keys
moved). The program itself is not changed; ``uninstall`` puts every
original back.

A target that no longer exists is skipped, and every metric that needs
it is reported absent. A hook that fails at run time (an internal field
renamed) marks its counter absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time

RANK = (
    "counted_set.count_range",
    "counted_set.successor",
    "counted_set.predecessor",
    "counted_set.rank_lt",
    "counted_set.rank_le",
    "counted_set.__contains__",
)
COLOUR_ARRAY_OPS = (
    "colour_array.insert",
    "colour_array.delete",
    "colour_array.modify",
    "colour_array.query_counts",
)


# ---- counter hooks: (counter, pre(args) -> token, post(tr, args, rv, token, parent)) ----

def _stat_delta(counter, key):
    def pre(args):
        return args[0].stats[key]

    def post(tr, args, rv, token, parent):
        tr.count(counter, args[0].stats[key] - token)

    return (counter, pre, post)


def _attr_delta(counter, attr):
    def pre(args):
        return getattr(args[0], attr)

    def post(tr, args, rv, token, parent):
        tr.count(counter, getattr(args[0], attr) - token)

    return (counter, pre, post)


def _result_len_under(counter, parent_span):
    def post(tr, args, rv, token, parent):
        if parent is not None and tr.names[parent[1]] == parent_span:
            tr.count(counter, len(rv))

    return (counter, None, post)


def _verified(tr, args, rv, token, parent):
    # an exact per-colour count made by a 1-D query: any counted set the
    # query consults other than the index's own point set F
    if parent is not None and tr.names[parent[1]] == "tree._query_ids":
        if args[0] is not parent[3].F:
            tr.count("tree.candidates_verified", 1)


def _reported(tr, args, rv, token, parent):
    tr.count("tree.reported", len(rv))


def _remapped(tr, args, rv, token, parent):
    if rv:
        tr.count("registry.remaps", 1)


def _engine_update(tr, args, rv, token, parent):
    names = tr.names
    if any(names[e[1]] in COLOUR_ARRAY_OPS for e in tr.stack):
        tr.count("colour_array.engine_updates", 1)


_MOVES = _attr_delta("colour_array.moves", "moves")
_PRUNED = _stat_delta("tree.pruned_leaf_visits", "pruned_leaf_visits")

# (span name, module, attribute path, hooks)
TARGETS = [
    ("cli.main", "cli", "main", ()),
    ("snapshot.save", "snapshot", "save", ()),
    ("snapshot.load", "snapshot", "load", ()),
    ("tree.build", "tree", "MajorityIndex.build", ()),
    ("tree.insert", "tree", "MajorityIndex.insert",
     (("colour_array.engine_updates", None, _engine_update),)),
    ("tree.delete", "tree", "MajorityIndex.delete",
     (("colour_array.engine_updates", None, _engine_update),)),
    ("tree._query_ids", "tree", "MajorityIndex._query_ids",
     (_PRUNED, ("tree.reported", None, _reported))),
    ("tree._cover_node", "tree", "MajorityIndex._cover_node", ()),
    ("tree._find_leaf", "tree", "MajorityIndex._find_leaf", ()),
    ("tree._top_groups", "tree", "MajorityIndex._top_groups", ()),
    ("tree._accumulate", "tree", "MajorityIndex._accumulate", ()),
    ("tree.scan_pruned", "tree", "MajorityIndex.scan_pruned", ()),
    ("tree._collect", "tree", "MajorityIndex._collect", (_PRUNED,)),
    ("tree.rebuild_list", "tree", "MajorityIndex.rebuild_list",
     (_stat_delta("tree.rebuild_leaf_work", "rebuild_leaf_work"),)),
    ("tree._split", "tree", "MajorityIndex._split", ()),
    ("tree._fix_underflow", "tree", "MajorityIndex._fix_underflow", ()),
    ("navigation.findtop", "navigation", "findtop", ()),
    ("navigation.lca", "navigation", "lca", ()),
    ("registry.bump", "registry", "ScratchCounters.bump", ()),
    ("registry.drain", "registry", "ScratchCounters.drain",
     (_result_len_under("tree.candidates_drained", "tree._query_ids"),)),
    ("registry.intern", "registry", "ColourRegistry.intern", ()),
    ("registry.release", "registry", "ColourRegistry.release", ()),
    ("registry.maybe_remap", "registry", "ColourRegistry.maybe_remap",
     (("registry.remaps", None, _remapped),)),
    ("counted_set.count_range", "counted_set", "CountedOrderedSet.count_range",
     (("tree.candidates_verified", None, _verified),)),
    ("counted_set.successor", "counted_set", "CountedOrderedSet.successor", ()),
    ("counted_set.predecessor", "counted_set", "CountedOrderedSet.predecessor", ()),
    ("counted_set.rank_lt", "counted_set", "CountedOrderedSet.rank_lt", ()),
    ("counted_set.rank_le", "counted_set", "CountedOrderedSet.rank_le", ()),
    ("counted_set.__contains__", "counted_set", "CountedOrderedSet.__contains__", ()),
    ("counted_set.insert", "counted_set", "CountedOrderedSet.insert", ()),
    ("counted_set.delete", "counted_set", "CountedOrderedSet.delete", ()),
    ("counted_set.load_sorted", "counted_set", "CountedOrderedSet.load_sorted", ()),
    ("planar.query_counts", "planar", "MajorityIndex2D.query_counts", ()),
    ("planar.insert", "planar", "MajorityIndex2D.insert", ()),
    ("planar.delete", "planar", "MajorityIndex2D.delete", ()),
    ("planar._pieces", "planar", "MajorityIndex2D._pieces",
     (_result_len_under("planar.pieces", "planar.query_counts"),)),
    ("planar.rect_count", "planar", "MajorityIndex2D.rect_count", ()),
    ("planar._rect_cid_count", "planar", "MajorityIndex2D._rect_cid_count", ()),
    ("planar._rebuild_subtree", "planar", "MajorityIndex2D._rebuild_subtree",
     (_stat_delta("planar.rebuild_points", "rebuild_points"),)),
    ("colour_array.insert", "colour_array", "DynamicColourArray.insert", (_MOVES,)),
    ("colour_array.delete", "colour_array", "DynamicColourArray.delete", (_MOVES,)),
    ("colour_array.modify", "colour_array", "DynamicColourArray.modify", (_MOVES,)),
    ("colour_array.query_counts", "colour_array", "DynamicColourArray.query_counts", ()),
    ("colour_array._respread", "colour_array", "DynamicColourArray._respread", ()),
]

SELF, CALLS, COUNT, RATIO = "self", "calls", "count", "ratio"

# (metric, unit, better, op kind it is divided by, how, sources)
# ``how`` sums the self time or the calls of the named spans, reads a
# hook counter, or divides one counter by another over the whole run.
METRICS = [
    ("cli.parse_self_s", "s", "lower", "setup", SELF, ("cli.main",)),
    ("snapshot.save_s", "s", "lower", "setup", SELF, ("snapshot.save",)),
    ("snapshot.load_s", "s", "lower", "setup", SELF, ("snapshot.load",)),
    ("counted_set.rank_calls", "count/op", "lower", "query", CALLS, RANK),
    ("counted_set.rank_self_s", "s/op", "lower", "query", SELF, RANK),
    ("counted_set.update_calls", "count/op", "lower", "update", CALLS,
     ("counted_set.insert", "counted_set.delete")),
    ("counted_set.update_self_s", "s/op", "lower", "update", SELF,
     ("counted_set.insert", "counted_set.delete")),
    ("registry.tally_calls", "count/op", "lower", "query", CALLS,
     ("registry.bump", "registry.drain")),
    ("registry.tally_self_s", "s/op", "lower", "query", SELF,
     ("registry.bump", "registry.drain")),
    ("registry.intern_release_self_s", "s/op", "lower", "update", SELF,
     ("registry.intern", "registry.release", "registry.maybe_remap")),
    ("registry.remaps", "count/op", "lower", "update", COUNT, ("registry.remaps",)),
    ("tree.decompose_self_s", "s/op", "lower", "query", SELF,
     ("tree._cover_node", "tree._find_leaf", "tree._top_groups")),
    ("navigation.findtop_self_s", "s/op", "lower", "query", SELF,
     ("navigation.findtop", "navigation.lca")),
    ("navigation.lca_calls", "count/op", "lower", "query", CALLS, ("navigation.lca",)),
    ("tree.accumulate_self_s", "s/op", "lower", "query", SELF,
     ("tree._accumulate", "tree.scan_pruned")),
    ("tree.pruned_leaf_visits", "count/op", "lower", "query", COUNT,
     ("tree.pruned_leaf_visits",)),
    ("tree.candidates_drained", "count/op", "lower", "query", COUNT,
     ("tree.candidates_drained",)),
    ("tree.candidates_verified", "count/op", "lower", "query", COUNT,
     ("tree.candidates_verified",)),
    ("tree.reported", "count/op", "higher", "query", COUNT, ("tree.reported",)),
    ("tree.verify_yield", "ratio", "higher", "query", RATIO,
     ("tree.reported", "tree.candidates_verified")),
    ("tree.rebuild_calls", "count/op", "lower", "update", CALLS, ("tree.rebuild_list",)),
    ("tree.rebuild_leaf_work", "count/op", "lower", "update", COUNT,
     ("tree.rebuild_leaf_work",)),
    ("tree.rebuild_self_s", "s/op", "lower", "update", SELF, ("tree.rebuild_list",)),
    ("tree.restructure_calls", "count/op", "lower", "update", CALLS,
     ("tree._split", "tree._fix_underflow")),
    ("tree.restructure_self_s", "s/op", "lower", "update", SELF,
     ("tree._split", "tree._fix_underflow")),
    ("tree.build_self_s", "s/op", "lower", "update", SELF, ("tree.build",)),
    ("colour_array.moves", "count/op", "lower", "update", COUNT, ("colour_array.moves",)),
    ("colour_array.engine_updates", "count/op", "lower", "update", COUNT,
     ("colour_array.engine_updates",)),
    ("colour_array.respread_self_s", "s/op", "lower", "update", SELF,
     ("colour_array._respread",)),
    ("planar.pieces", "count/op", "lower", "query", COUNT, ("planar.pieces",)),
    ("planar.collect_self_s", "s/op", "lower", "query", SELF, ("tree._collect",)),
    ("planar.verify_self_s", "s/op", "lower", "query", SELF,
     ("planar.rect_count", "planar._rect_cid_count")),
    ("planar.rebuild_points", "count/op", "lower", "update", COUNT,
     ("planar.rebuild_points",)),
    ("planar.rebuild_self_s", "s/op", "lower", "update", SELF,
     ("planar._rebuild_subtree",)),
]


class Tracer:
    """In-memory spans and per-op-kind aggregates for one process.

    Spans past ``max_spans`` are counted as dropped; the aggregates
    cover every call.
    """

    def __init__(self, max_spans=200_000):
        self.names: list = []
        self.stack: list = []  # open spans: [span id, name id, child seconds, self arg]
        self.next_span = 0
        self.op = -1
        self.kind = None
        self._op_start = 0.0
        self.op_counts: dict = {}
        self.self_s: dict = {}
        self.calls: dict = {}
        self.counts: dict = {}
        self.cur_self: list = []
        self.cur_calls: list = []
        self.cur_counts: dict = {}
        self.spans: list = []
        self.max_spans = max_spans
        self.dropped = 0
        self.installed: set = set()
        self.broken: set = set()
        self._saved: list = []

    # ---- installation ----

    def install(self, package="rangemaj", skip_layers=()):
        """Wrap every target that exists, skipping the modules named in
        ``skip_layers``; calls made before the first op count as set-up."""
        for span, module, path, hooks in TARGETS:
            if module in skip_layers:
                continue
            try:
                mod = importlib.import_module(f"{package}.{module}")
            except ImportError:
                continue
            owner = mod
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not callable(fn):
                continue
            wrapped = self._wrap(self._name_id(span), fn, hooks)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, raw))
            if owner is mod:
                # modules that imported the function by name call their own copy
                for name, other in list(sys.modules.items()):
                    if name.startswith(package + ".") and other is not mod:
                        if vars(other).get(attr) is raw:
                            setattr(other, attr, wrapped)
                            self._saved.append((other, attr, raw))
            self.installed.add(span)
        self._use("setup")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _name_id(self, name) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, nid, fn, hooks):
        tr = self
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            tokens = None
            if hooks:
                tokens = []
                for counter, pre, _post in hooks:
                    try:
                        tokens.append(pre(args) if pre is not None else None)
                    except Exception:
                        tr.broken.add(counter)
                        tokens.append(None)
            sid = tr.next_span
            tr.next_span = sid + 1
            entry = [sid, nid, 0.0, args[0] if args else None]
            stack.append(entry)
            t0 = clock()
            try:
                rv = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                tr.cur_self[nid] += dur - entry[2]
                tr.cur_calls[nid] += 1
                if len(spans) < tr.max_spans:
                    spans.append((sid, nid, t0, t1, parent[0] if parent else -1, tr.op))
                else:
                    tr.dropped += 1
            if hooks:
                for (counter, pre, post), token in zip(hooks, tokens):
                    if counter in tr.broken:
                        continue
                    try:
                        post(tr, args, rv, token, parent)
                    except Exception:
                        tr.broken.add(counter)
            return rv

        return traced

    # ---- op boundaries ----

    def _use(self, kind) -> None:
        # room for the op.<kind> span names added after install
        size = len(self.names) + 8
        self.cur_self = self.self_s.setdefault(kind, [0.0] * size)
        self.cur_calls = self.calls.setdefault(kind, [0] * size)
        self.cur_counts = self.counts.setdefault(kind, {})
        self.kind = kind

    def begin(self, kind) -> None:
        """Open the root span of one set-up or one timed op of ``kind``."""
        if kind != self.kind:
            self._use(kind)
        self.op += 1
        self.op_counts[kind] = self.op_counts.get(kind, 0) + 1
        sid = self.next_span
        self.next_span = sid + 1
        self.stack.append([sid, self._name_id(f"op.{kind}"), 0.0, None])
        self._op_start = time.perf_counter()

    def end(self) -> None:
        t1 = time.perf_counter()
        sid, nid, _, _ = self.stack.pop()
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, nid, self._op_start, t1, -1, self.op))
        else:
            self.dropped += 1

    def count(self, counter, n) -> None:
        c = self.cur_counts
        c[counter] = c.get(counter, 0) + n

    # ---- results ----

    def _needs(self, how, sources):
        """Span names a metric depends on."""
        if how in (SELF, CALLS):
            return set(sources)
        return {span for span, _, _, hooks in TARGETS
                if any(h[0] in sources for h in hooks)}

    def metrics(self, time_scale=1.0):
        """Per-layer metrics and the names of those that are absent.

        Self times are multiplied by ``time_scale``, the run's median
        probe scale (see ``speed.py``), like the end-to-end times.
        """
        out, absent = {}, []
        timed = [k for k in self.op_counts if k != "setup"]
        for name, unit, _better, per, how, sources in METRICS:
            if not self._needs(how, sources) <= self.installed or (
                how in (COUNT, RATIO) and self.broken & set(sources)
            ):
                absent.append(name)
                continue
            # a workload with no op of the metric's kind reports the total
            # over all its timed ops: zero where that work cannot happen
            kinds = [per] if self.op_counts.get(per) else timed
            if how == RATIO:
                num, den = (self._total(COUNT, (s,), kinds) for s in sources)
                value = num / den if den else 0.0
            else:
                value = self._total(how, sources, kinds) / (self.op_counts.get(per) or 1)
                if how == SELF:
                    value *= time_scale
            out[name] = {"value": value, "unit": unit}
        return out, absent

    def _total(self, how, sources, kinds):
        if how == COUNT:
            return sum(self.counts.get(k, {}).get(s, 0) for k in kinds for s in sources)
        table = self.self_s if how == SELF else self.calls
        ids = [self.names.index(s) for s in sources if s in self.names]
        return sum(table[k][i] for k in kinds if k in table for i in ids)

    def save(self, path) -> None:
        """Write the kept spans to ``path`` as a numpy .npz archive."""
        import numpy as np

        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        np.savez_compressed(
            path,
            span=np.array(cols[0], dtype=np.int64),
            name=np.array(cols[1], dtype=np.int32),
            start=np.array(cols[2], dtype=np.float64),
            end=np.array(cols[3], dtype=np.float64),
            parent=np.array(cols[4], dtype=np.int64),
            op=np.array(cols[5], dtype=np.int64),
            names=np.array(self.names),
            dropped=np.array(self.dropped),
        )
