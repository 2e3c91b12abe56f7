"""Spans around the calls into each degseq layer, recorded from outside it.

``Tracer.install()`` wraps the public functions listed in ``LAYERS`` in every
``degseq`` module namespace that binds them (``degseq.graphicality.is_graphic``
and ``degseq.cli.is_graphic`` alike), so calls between modules are seen
too.  Each call leaves a span ``(layer, start_ns, end_ns, op, payload)``
where ``op`` is the index of the CLI op that caused it and ``payload`` is a
count read from the public return value.  A generator is timed per resume,
one span each, so its spans cover only the time it actually ran.

Only the traced worker process imports this module; the untraced run has
no wrappers at all.  ``summarize`` turns the spans into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer name -> (module, attribute path, payload reader)
LAYERS = {
    "graphicality.is_graphic": ("degseq.graphicality", "is_graphic",
                                lambda r: len(r.checked_ks)),
    "graphicality.is_graphic_tv": ("degseq.graphicality", "is_graphic_tv",
                                   lambda r: len(r.checked_ks)),
    "graphicality.region_fully_graphic": ("degseq.graphicality", "region_fully_graphic", None),
    "graphicality.very_simple_region_fully_graphic": (
        "degseq.graphicality", "very_simple_region_fully_graphic", None),
    "enumeration.count": ("degseq.enumeration", "RealizationCounter.count",
                          lambda r: [r.nodes_explored, int(r.from_cache)]),
    "enumeration.p_measure": ("degseq.enumeration", "p_measure", None),
    "enumeration.verify_family_bounds": ("degseq.enumeration", "verify_family_bounds", None),
    "enumeration.enumerate": ("degseq.enumeration", "enumerate_realizations", None),
    "mcmc.sample": ("degseq.mcmc", "sample",
                    lambda r: [r.metadata["steps"], r.metadata["burn_in"],
                               r.metadata["accepted"], len(r.histogram)]),
    "mcmc.switch_connected": ("degseq.mcmc", "switch_connected", None),
    "mcmc.tv": ("degseq.mcmc", "tv_distance_to_uniform", None),
    "splitgraph.split_witness": ("degseq.splitgraph", "split_witness", None),
    "splitgraph.nonstability_witness": ("degseq.splitgraph", "nonstability_witness", None),
    "splitgraph.verify_multiplicativity": ("degseq.splitgraph", "verify_multiplicativity", None),
}
GENERATORS = {"enumeration.enumerate"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1

    def install(self) -> None:
        for layer, (module_name, path, payload) in LAYERS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if layer in GENERATORS:
                wrapper = self._wrap_generator(layer, original)
            else:
                wrapper = self._wrap(layer, original, payload)
            if outer:  # a method: patch the class once
                setattr(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name == "degseq" or name.startswith("degseq."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def _wrap(self, layer, fn, payload):
        spans = self.spans
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                value = payload(result) if payload and result is not None else None
                spans.append((layer, start, end, self.op, value))

        return wrapper

    def _wrap_generator(self, layer, fn):
        spans = self.spans
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    start = now()
                    try:
                        item = next(inner)
                    except StopIteration:
                        spans.append((layer, start, now(), self.op, 0))
                        return
                    spans.append((layer, start, now(), self.op, 1))
                    yield item
            finally:
                inner.close()

        return wrapper


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def _covered_ns(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(spans, ops) -> dict[str, float]:
    """Per-layer metrics.  ``ops`` holds (start_ns, end_ns, envelope_bytes) per
    traced op; ``.s`` metrics are the union of a layer's spans in seconds."""
    by_layer: dict[str, list] = {layer: [] for layer in LAYERS}
    by_op: dict[int, list] = {}
    for layer, start, end, op, payload in spans:
        by_layer[layer].append((start, end, payload))
        by_op.setdefault(op, []).append((start, end))

    def seconds(layer):
        return _covered_ns((s, e) for s, e, _ in by_layer[layer]) / 1e9

    def payloads(layer):
        return [p for _, _, p in by_layer[layer] if p is not None]

    ks = sum(payloads("graphicality.is_graphic")) + sum(payloads("graphicality.is_graphic_tv"))
    eg_s = seconds("graphicality.is_graphic") + seconds("graphicality.is_graphic_tv")
    counts = payloads("enumeration.count")
    nodes = sum(p[0] for p in counts)
    chains = payloads("mcmc.sample")
    steps = sum(p[0] for p in chains)
    executed = sum(p[0] + p[1] for p in chains)
    graphs = sum(payloads("enumeration.enumerate"))

    self_ns = 0
    for index, (start, end, _) in enumerate(ops):
        inside = [(max(s, start), min(e, end)) for s, e in by_op.get(index, [])]
        self_ns += (end - start) - _covered_ns(i for i in inside if i[0] < i[1])

    return {
        "graphicality.is_graphic.calls": len(by_layer["graphicality.is_graphic"]),
        "graphicality.is_graphic.s": seconds("graphicality.is_graphic"),
        "graphicality.eg_ks_checked": ks,
        "graphicality.us_per_k": _ratio(eg_s * 1e6, ks),
        "graphicality.region_fully_graphic.calls":
            len(by_layer["graphicality.region_fully_graphic"]),
        "graphicality.very_simple_region_fully_graphic.s":
            seconds("graphicality.very_simple_region_fully_graphic"),
        "enumeration.count.calls": len(by_layer["enumeration.count"]),
        "enumeration.count.s": seconds("enumeration.count"),
        "enumeration.nodes": nodes,
        "enumeration.us_per_node": _ratio(seconds("enumeration.count") * 1e6, nodes),
        "enumeration.count.from_cache_ratio": _ratio(sum(p[1] for p in counts), len(counts)),
        "enumeration.p_measure.s": seconds("enumeration.p_measure"),
        "enumeration.verify_family_bounds.s": seconds("enumeration.verify_family_bounds"),
        "enumeration.enumerate.graphs": graphs,
        "enumeration.enumerate.graphs_per_s": _ratio(graphs, seconds("enumeration.enumerate")),
        "mcmc.switch_connected.s": seconds("mcmc.switch_connected"),
        "mcmc.tv.s": seconds("mcmc.tv"),
        "mcmc.sample.s": seconds("mcmc.sample"),
        "mcmc.steps": steps,
        "mcmc.steps_per_s": _ratio(executed, seconds("mcmc.sample")),
        "mcmc.accept_ratio": _ratio(sum(p[2] for p in chains), executed),
        "mcmc.distinct_states": sum(p[3] for p in chains),
        "splitgraph.split_witness.s": seconds("splitgraph.split_witness"),
        "splitgraph.nonstability_witness.s": seconds("splitgraph.nonstability_witness"),
        "splitgraph.verify_multiplicativity.s": seconds("splitgraph.verify_multiplicativity"),
        "cli.self_s": self_ns / 1e9,
        "cli.envelope_bytes": sum(size for _, _, size in ops),
    }


# Units of the per-layer metrics (``summarize`` plus ``trace.overhead``),
# as BENCHMARK.json lists them.
UNITS = {
    "graphicality.is_graphic.calls": "count",
    "graphicality.is_graphic.s": "s",
    "graphicality.eg_ks_checked": "count",
    "graphicality.us_per_k": "us",
    "graphicality.region_fully_graphic.calls": "count",
    "graphicality.very_simple_region_fully_graphic.s": "s",
    "enumeration.count.calls": "count",
    "enumeration.count.s": "s",
    "enumeration.nodes": "count",
    "enumeration.us_per_node": "us",
    "enumeration.count.from_cache_ratio": "ratio",
    "enumeration.p_measure.s": "s",
    "enumeration.verify_family_bounds.s": "s",
    "enumeration.enumerate.graphs": "count",
    "enumeration.enumerate.graphs_per_s": "1/s",
    "mcmc.switch_connected.s": "s",
    "mcmc.tv.s": "s",
    "mcmc.sample.s": "s",
    "mcmc.steps": "count",
    "mcmc.steps_per_s": "1/s",
    "mcmc.accept_ratio": "ratio",
    "mcmc.distinct_states": "count",
    "splitgraph.split_witness.s": "s",
    "splitgraph.nonstability_witness.s": "s",
    "splitgraph.verify_multiplicativity.s": "s",
    "cli.self_s": "s",
    "cli.envelope_bytes": "bytes",
    "trace.overhead": "ratio",
}
