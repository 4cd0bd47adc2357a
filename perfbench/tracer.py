"""In-memory span tracer for the benchmark's traced run.

Each wrapped call becomes a node with a name and a parent.  An ordinary call
is one span (id, name, start, end, parent).  A hot function, one called
hundreds of thousands of times, is aggregated instead: all its calls under
one parent share one node that holds the call count and the total time.
Nodes stay in memory until ``dump`` writes them out as JSON lines.

Self time of a node is its time minus the time of its child nodes.  Calls are
single threaded and nested, so the children never overlap.
"""

import functools
import json
import time
from collections import defaultdict

ROOT = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []                      # (id, name, start, end, parent)
        self.aggs = {}                       # (parent, name) -> [id, calls, total]
        self.raised = defaultdict(int)       # (name, exception type) -> count
        self.counters = defaultdict(float)   # (name, counter) -> sum
        self._stack = [ROOT]
        self._next_id = ROOT + 1

    def _new_id(self):
        self._next_id += 1
        return self._next_id - 1

    def wrap(self, name, fn, hot=False, count=None):
        """Return ``fn`` traced under ``name``.

        ``count(args, kwargs) -> {counter: amount}`` adds work counters on
        every call; an exception escaping ``fn`` is counted by type.
        """
        stack, clock = self._stack, self.clock

        def note(a, k, exc):
            if exc is not None:
                self.raised[(name, type(exc).__name__)] += 1
            if count is not None:
                for key, amount in count(a, k).items():
                    self.counters[(name, key)] += amount

        if hot:
            @functools.wraps(fn)
            def traced(*a, **k):
                key = (stack[-1], name)
                rec = self.aggs.get(key)
                if rec is None:
                    rec = self.aggs[key] = [self._new_id(), 0, 0.0]
                stack.append(rec[0])
                exc = None
                t0 = clock()
                try:
                    return fn(*a, **k)
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    rec[2] += clock() - t0
                    rec[1] += 1
                    stack.pop()
                    note(a, k, exc)
        else:
            @functools.wraps(fn)
            def traced(*a, **k):
                parent = stack[-1]
                sid = self._new_id()
                stack.append(sid)
                exc = None
                t0 = clock()
                try:
                    return fn(*a, **k)
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    self.spans.append((sid, name, t0, clock(), parent))
                    stack.pop()
                    note(a, k, exc)
        return traced

    def nodes(self):
        """Every node as (id, name, parent, calls, seconds)."""
        out = [(sid, name, parent, 1, end - start)
               for sid, name, start, end, parent in self.spans]
        out += [(nid, name, parent, calls, total)
                for (parent, name), (nid, calls, total) in self.aggs.items()]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            for (parent, name), (nid, calls, total) in self.aggs.items():
                fh.write(json.dumps({"id": nid, "name": name, "parent": parent,
                                     "calls": calls, "total": total}) + "\n")

    def summary(self):
        out = summarize(self.nodes())
        for (name, exc), n in self.raised.items():
            out.setdefault(name, _empty())["raised"][exc] = n
        for (name, key), v in self.counters.items():
            out.setdefault(name, _empty())["counters"][key] = v
        return out


def _empty():
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": {}, "counters": {}}


def summarize(nodes):
    """Per name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost call of a name, so a function
    that re-enters itself is not counted twice; self time is summed over
    every node.
    """
    by_id = {nid: (name, parent) for nid, name, parent, _, _ in nodes}
    child_time = defaultdict(float)
    for _, _, parent, _, secs in nodes:
        child_time[parent] += secs
    out = {}
    for nid, name, parent, calls, secs in nodes:
        rec = out.setdefault(name, _empty())
        rec["calls"] += calls
        rec["self_s"] += secs - child_time.get(nid, 0.0)
        p = parent
        while p in by_id and by_id[p][0] != name:
            p = by_id[p][1]
        if p not in by_id:
            rec["s"] += secs
    return out


def install(tracer, targets, modules):
    """Wrap each target in every module namespace that binds it.

    ``targets`` holds (owner, attribute, name, options): a module function is
    rebound wherever ``modules`` holds the same object, a method is replaced
    on its class.
    """
    for owner, attr, name, opts in targets:
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, **opts)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
