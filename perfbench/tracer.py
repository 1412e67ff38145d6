"""In-memory span tracer around the public functions of the symcat layers.

A layer is one package module.  `Tracer.install` wraps every public function
of every layer (a name without a leading underscore whose function object is
defined in that module) and puts the wrapper on *every* module binding of the
original object, so calls that reach a function through a `from .x import f`
name in another module are seen too.

Each wrapped call records a span (function, start, end, parent span, query
id).  Self time is a span's duration minus the time its child spans cover;
it is accumulated exactly for every call, while at most `MAX_SPANS` spans are
kept for the trace file.  Tiny hot primitives listed in `COUNT_ONLY` record a
call count only, so their time stays with the caller.
"""

import heapq
import importlib
import itertools
import json
import time
import tracemalloc
from array import array

LAYERS = ('combinatorics', 'symfunc', 'weyl', 'nilcoxeter', 'heisenberg',
          'bimodel', 'diagcat', 'cli')

# Primitives called millions of times in one run; a span each would
# dominate the traced wall time.
COUNT_ONLY = frozenset({
    'combinatorics.is_partition', 'combinatorics.partition_key',
    'combinatorics.conjugate', 'combinatorics.dominates',
    'combinatorics.identity_perm', 'combinatorics.is_permutation',
    'combinatorics.perm_mult', 'combinatorics.perm_inverse',
    'combinatorics.perm_length', 'combinatorics.perm_extend',
    'combinatorics.transposition', 'combinatorics.simple_transposition',
    'combinatorics.coset_rep', 'combinatorics.render_partition',
    'combinatorics.render_permutation',
})

# spans kept for the trace file; later calls still count in the totals
MAX_SPANS = 200_000

# the largest diagram_to_map calls, by output cells, are replayed under
# tracemalloc after the run
REPLAY_CALLS = 16


def result_size(value):
    """Number of terms in a returned value (0 when it has no terms)."""
    for attr in ('coeffs', 'terms'):
        inner = getattr(value, attr, None)
        if isinstance(inner, dict):
            return len(inner)
    if isinstance(value, (dict, list, tuple)):
        return len(value)
    return 0


class Tracer:
    """Spans and per-function totals for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock       # the clock spans are read from
        self.names = []          # function index -> 'layer.function'
        self.layer_of = []       # function index -> layer name
        self.self_s = []         # function index -> accumulated self seconds
        self.calls = []          # function index -> call count
        self.boundary_terms = []  # terms returned across a layer boundary
        self.span_fn = array('i')
        self.span_start = array('d')
        self.span_end = array('d')
        self.span_parent = array('i')
        self.span_query = array('i')
        self.stack = []          # open frames: [span index, fn index, child seconds]
        self.query_id = -1
        self.active = False
        self.map_realized = 0
        self.map_cells = 0
        self.map_replay = []     # heap of (cells, order, args, kwargs)
        self._map_order = itertools.count()
        self._map_fn = None

    # installation -----------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f'symcat.{layer}') for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith('_') or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, '__module__', None) != mod.__name__):
                    continue
                qual = f'{layer}.{name}'
                wrappers[id(obj)] = self._wrap(layer, qual, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _register(self, layer, qual):
        self.names.append(qual)
        self.layer_of.append(layer)
        self.self_s.append(0.0)
        self.calls.append(0)
        self.boundary_terms.append(0)
        return len(self.names) - 1

    def _wrap(self, layer, qual, fn):
        idx = self._register(layer, qual)
        calls = self.calls
        if qual in COUNT_ONLY:
            def counted(*args, **kwargs):
                if self.active:
                    calls[idx] += 1
                return fn(*args, **kwargs)
            return counted
        is_map = qual == 'bimodel.diagram_to_map'
        if is_map:
            self._map_fn = fn
        clock = self.clock
        stack = self.stack
        layer_of = self.layer_of

        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = len(self.span_fn)
            if span < MAX_SPANS:
                self.span_fn.append(idx)
                self.span_parent.append(parent[0] if parent else -1)
                self.span_query.append(self.query_id)
                self.span_end.append(0.0)
            else:
                span = -2
            frame = [span, idx, 0.0]
            stack.append(frame)
            start = clock()
            if span >= 0:
                self.span_start.append(start)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.self_s[idx] += duration - frame[2]
                calls[idx] += 1
                if span >= 0:
                    self.span_end[span] = end
                if parent is None or layer_of[parent[1]] != layer:
                    self.boundary_terms[idx] += result_size(result)
                if is_map:
                    self._record_map(args, kwargs, result)
        return spanned

    def _record_map(self, args, kwargs, rep):
        if rep is None:
            return
        self.map_realized += 1
        rows = len(rep.matrix)
        cells = rows * (len(rep.matrix[0]) if rows else 0)
        self.map_cells += cells
        entry = (cells, next(self._map_order), args, kwargs)
        if len(self.map_replay) < REPLAY_CALLS:
            heapq.heappush(self.map_replay, entry)
        elif cells > self.map_replay[0][0]:
            heapq.heapreplace(self.map_replay, entry)

    # results ------------------------------------------------------------

    def replay_peak_alloc_mb(self):
        """Largest allocation peak over the biggest realized diagram_to_map calls.

        Replayed after the timed phase, so tracemalloc slows no measured span.
        """
        peak = 0
        for _cells, _order, args, kwargs in self.map_replay:
            tracemalloc.start()
            try:
                self._map_fn(*args, **kwargs)
            finally:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return peak / 2 ** 20

    def totals(self, wall_s):
        """Per-layer and per-function aggregates for a run of wall_s seconds."""
        fn_self = dict(zip(self.names, self.self_s))
        fn_calls = dict(zip(self.names, self.calls))
        fn_terms = dict(zip(self.names, self.boundary_terms))
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        layer_terms = {layer: 0 for layer in LAYERS}
        for name, layer, s, c, t in zip(self.names, self.layer_of, self.self_s,
                                        self.calls, self.boundary_terms):
            layer_self[layer] += s
            layer_calls[layer] += c
            layer_terms[layer] += t
        traced = sum(layer_self.values())
        return {
            'wall_s': wall_s,
            'harness_self_s': wall_s - traced,
            'layer_self_s': layer_self,
            'layer_calls': layer_calls,
            'layer_terms_out': layer_terms,
            'fn_self_s': fn_self,
            'fn_calls': fn_calls,
            'fn_terms_out': fn_terms,
            'map_realized': self.map_realized,
            'map_cells': self.map_cells,
            'spans_kept': len(self.span_fn),
        }

    def write_spans(self, path):
        """One JSON line per kept span: function, start, end, parent, query."""
        with open(path, 'w') as out:
            for i in range(len(self.span_fn)):
                out.write(json.dumps([
                    i, self.names[self.span_fn[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i], self.span_query[i],
                ]) + '\n')
