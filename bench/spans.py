"""In-memory span tracing around the public calls into each conelab module.

Wrappers are installed from the benchmark's side, at the name each caller
looks up (a module attribute or a `GeneralizedCone` method), so the program
itself is unchanged.  A span records its name, parent span, start and end;
counts are recorded at the same boundaries.  Spans stay in memory until the
traced pass ends and are then written out and reduced to per-layer numbers.
A layer is the module prefix of a span name (`cone.lookup` -> `cone`).
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cone", "model2d", "transport", "converge", "metricspace", "cli")
BUILDS = ("cone.lower", "cone.upper")
PIPELINES = ("tau", "geodesic", "tcbb", "ot", "tcd", "tmcp", "ellconv",
             "measured", "gh")


class Tracer:
    """Span recorder for one thread; spans nest through an explicit stack."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._undo = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, fn, name, note=None):
        """`fn` wrapped so that each call records a span.  `name` is a span
        name or a function of the call's arguments returning one; `note`, if
        given, is called as note(tracer, args, kwargs, result)."""
        clock = time.perf_counter
        parent, names, start, end = self.parent, self.name, self.start, self.end
        stack = self._stack
        fixed = None if callable(name) else self._name_id(name)

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(fixed if fixed is not None
                         else self._name_id(name(args, kwargs)))
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if note is not None:
                note(self, args, kwargs, result)
            return result
        return traced

    def wrap(self, owner, attr: str, name, note=None) -> None:
        """Replace owner.attr by its traced version; a missing attribute is
        recorded as absent instead of failing the run."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self.span(fn, name, note))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def arrays(self):
        """(parent, name id, start, end) as numpy arrays, one entry per span."""
        return (np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path: Path) -> None:
        """Write every span (parent, name, start, end) and the name table."""
        parent, name, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), parent=parent, name=name,
                 start=start, end=end)


# -- where the wrappers go ----------------------------------------------------------


def _table_entries(tr, args, kwargs, result):
    tr.count("cone.table_entries", int(result.size))


def _lp_vars(key):
    def note(tr, args, kwargs, result):
        tr.count(key, len(args[0]))
    return note


def _modulus_states(tr, args, kwargs, result):
    seq, i, k = args[0], args[1], args[2]
    level = seq.covers[i][k - 1]
    tr.count("converge.modulus_states",
             int(level.time_indices.size * level.fiber_idx.size))


def _tcbb_counts(tr, args, kwargs, result):
    counts = result["counts"]
    tr.count("model2d.draws", sum(counts.values()))
    tr.count("model2d.valid", counts["valid"])


def _gh_mode(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "heuristic")
    return f"metricspace.gh_{mode}"


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are taken at."""
    from conelab import cli, converge, metricspace, model2d, transport
    from conelab.cone import GeneralizedCone

    w = tracer.wrap
    # cone: table writes (the only seam for them today) and table reads
    w(GeneralizedCone, "_build_lower", "cone.lower", _table_entries)
    w(GeneralizedCone, "_build_upper", "cone.upper")
    w(GeneralizedCone, "signed_separation", "cone.lookup")
    w(GeneralizedCone, "signed_separation_upper", "cone.lookup")
    w(GeneralizedCone, "maximizer", "cone.maximizer")
    w(GeneralizedCone, "bracket_width", "cone.bracket_width")
    # model2d: the 4-point verifier, its enclosures and realizations
    w(model2d, "tcbb_verify", "model2d.tcbb", _tcbb_counts)
    w(model2d, "comparison_interval", "model2d.enclosure")
    w(model2d, "realize_comparison", "model2d.realize")
    # transport: separation matrices, the HiGHS LP and the verifiers
    w(transport, "separation_matrix", "transport.sepmat")
    w(transport, "linprog", "transport.lp", _lp_vars("transport.lp_vars"))
    w(transport, "solve_lp", "transport.coupling")
    w(transport, "check_cyclical_monotonicity", "transport.cyclical")
    w(transport, "build_dynamical_plan", "transport.plan")
    w(transport, "tcd_verify", "transport.tcd")
    w(transport, "tmcp_verify", "transport.tmcp")
    # converge: sequences, moduli and the W1 LP
    w(converge, "cone_sequence", "converge.sequence")
    w(converge, "uniform_modulus", "converge.modulus", _modulus_states)
    w(converge, "linprog", "converge.w1_lp", _lp_vars("converge.w1_lp_vars"))
    w(converge, "ell_converge_check", "converge.ellconv")
    w(converge, "measured_converge_check", "converge.measured")
    # metricspace: GH brackets, heuristic (from cone_sequence) and exact
    w(converge, "gh_distance", _gh_mode)
    w(metricspace, "gh_distance", _gh_mode)
    # cli: one span per pipeline; cli.main itself is wrapped by the caller
    for cmd in PIPELINES:
        w(cli, f"run_{cmd}", f"cli.{cmd}")


# -- reduction to per-layer numbers ---------------------------------------------------


def per_layer(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans, as {name: (value, unit)}.

    Span times (`*_s` other than `cli.<pipeline>_s`) leave out the cone
    table builds nested in them: tables are built lazily inside whichever
    call first reads them, and the builds are reported on their own.
    """
    parent, nid, start, end = tracer.arrays()
    names = tracer.names
    n, nn = len(start), len(names)
    dur = end - start
    has_parent = parent >= 0

    # self time: a span minus the time its child spans cover
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    # build time nested under each span: walk up from each (rare) build
    nested_build = np.zeros(n)
    build_ids = [names.index(b) for b in BUILDS if b in names]
    for i in np.flatnonzero(np.isin(nid, build_ids)):
        p = parent[i]
        while p >= 0:
            nested_build[p] += dur[i]
            p = parent[p]
    is_cli = np.array([nm.startswith("cli.") for nm in names], dtype=bool)
    own = np.where(is_cli[nid], dur, dur - nested_build)
    span_time = np.bincount(nid, weights=own, minlength=nn)
    span_calls = np.bincount(nid, minlength=nn)

    layer_of = np.array([nm.split(".", 1)[0] for nm in names])
    per_layer_spans, busy, selft = {}, {}, {}
    for layer in LAYERS:
        mask = np.isin(nid, np.flatnonzero(layer_of == layer))
        s, e = start[mask], end[mask]
        # spans nest, so in start order a span lies inside an earlier span
        # of its layer exactly when it ends before their latest end
        latest = np.maximum.accumulate(e) if e.size else e
        outer = np.ones(e.size, dtype=bool)
        outer[1:] = s[1:] >= latest[:-1]
        per_layer_spans[layer] = int(mask.sum())
        busy[layer] = float((e - s)[outer].sum())
        selft[layer] = float((dur - child)[mask].sum())

    t = lambda nm: float(span_time[names.index(nm)]) if nm in names else 0.0
    c = lambda nm: int(span_calls[names.index(nm)]) if nm in names else 0
    k = lambda key: tracer.counters.get(key, 0)
    entries = k("cone.table_entries")
    draws = k("model2d.draws")
    out = {
        "cone.lower_s": (t("cone.lower"), "s"),
        "cone.upper_s": (t("cone.upper"), "s"),
        "cone.builds": (c("cone.lower"), "count"),
        "cone.table_entries": (entries, "count"),
        "cone.table_mb": (entries * 8 * 2 / 1e6, "MB"),
        "cone.lookup_calls": (c("cone.lookup"), "count"),
        "cone.lookup_s": (t("cone.lookup"), "s"),
        "cone.maximizer_calls": (c("cone.maximizer"), "count"),
        "cone.maximizer_s": (t("cone.maximizer"), "s"),
        "cone.bracket_width_s": (t("cone.bracket_width"), "s"),
        "model2d.tcbb_s": (t("model2d.tcbb"), "s"),
        "model2d.draws": (draws, "count"),
        "model2d.valid_ratio": (k("model2d.valid") / draws if draws else 0.0,
                                "ratio"),
        "model2d.enclosure_calls": (c("model2d.enclosure"), "count"),
        "model2d.enclosure_s": (t("model2d.enclosure"), "s"),
        "model2d.realize_s": (t("model2d.realize"), "s"),
        "transport.sepmat_s": (t("transport.sepmat"), "s"),
        "transport.lp_calls": (c("transport.lp"), "count"),
        "transport.lp_vars": (k("transport.lp_vars"), "count"),
        "transport.lp_s": (t("transport.lp"), "s"),
        "transport.plan_s": (t("transport.plan"), "s"),
        "transport.cyclical_s": (t("transport.cyclical"), "s"),
        "converge.sequence_s": (t("converge.sequence"), "s"),
        "converge.modulus_calls": (c("converge.modulus"), "count"),
        "converge.modulus_states": (k("converge.modulus_states"), "count"),
        "converge.modulus_s": (t("converge.modulus"), "s"),
        "converge.w1_lp_calls": (c("converge.w1_lp"), "count"),
        "converge.w1_lp_vars": (k("converge.w1_lp_vars"), "count"),
        "converge.w1_lp_s": (t("converge.w1_lp"), "s"),
        "metricspace.gh_exact_calls": (c("metricspace.gh_exact"), "count"),
        "metricspace.gh_exact_s": (t("metricspace.gh_exact"), "s"),
        "metricspace.gh_heuristic_s": (t("metricspace.gh_heuristic"), "s"),
    }
    for cmd in PIPELINES:
        out[f"cli.{cmd}_s"] = (t(f"cli.{cmd}"), "s")
    for layer in LAYERS:
        out[f"{layer}.spans"] = (per_layer_spans[layer], "count")
        out[f"{layer}.busy_s"] = (busy[layer], "s")
        out[f"{layer}.self_s"] = (selft[layer], "s")
    out["trace.spans"] = (n, "count")
    return out
