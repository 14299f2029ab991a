"""In-memory spans around gaussqt's function-level entry points.

A traced worker replaces chosen module attributes with wrappers that record
one span per call: (id, name, start, end, parent span id, op index).  Spans
stay in memory and are written when the worker exits; `layer_metrics` turns
them into the per-layer metrics.  Only whole-function entry points are wrapped, never
per-element helpers such as `core.fmt17`.
"""

from __future__ import annotations

import functools
import resource
import sys
from collections import defaultdict

import numpy as np

GUARD_BAND = 1e-10

# span name -> layer it is charged to; a layer's time is the self time of its
# spans (duration minus the wrapped calls made inside them)
LAYER_OF = {
    "cli.build_parser": "cli.parse",
    "cli.parse_args": "cli.parse",
    "cli._analysis_json": "cli.emit",
    "cli._analysis_csv": "cli.emit",
    "cli._emit": "cli.emit",
    "criteria.report_to_json": "cli.emit",
    "core.load_covmat": "core.load",
    "core.validate": "core.spectrum",
    "core.require_physical": "core.spectrum",
    "core.symplectic_eigenvalues": "core.spectrum",
    "core.ppt_nu_minus": "core.spectrum",
    "core.to_canonical": "core.canonical",
    "core.simon_inseparable": "core.canonical",
    "criteria.classify": "criteria.classify",
    "resources.tmst": "resources.build",
    "resources.tmst_covmat": "resources.build",
    "resources.bs_resource": "resources.build",
    "resources.bs_covmat": "resources.build",
    "sweep.run_sweep": "criteria.sweep_self",
    "sweep.RegionGrid.to_text": "sweep.format",
    "sweep.RegionGrid.to_csv": "sweep.format",
    "sweep.RegionGrid.to_json": "sweep.format",
    "sweep.RegionGrid.write": "sweep.write",
    "oracle.fidelity_by_quadrature": "oracle.integrate",
    "oracle._nodes": "oracle.integrate",
}

SPECTRUM = {name for name, layer in LAYER_OF.items() if layer == "core.spectrum"}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans and counters for one worker process."""

    def __init__(self, clock):
        self.clock = clock
        # finished spans as (id, name, start, end, parent id, op) tuples: a
        # tuple of atoms is soon untracked by the garbage collector, so a
        # long run does not make every collection slower
        self.spans: list = []
        self.stack: list = []
        self.next_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self.op = -1
        self.on = True
        self.missing: list[str] = []

    def begin(self, name: str) -> None:
        if not self.on:
            return
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append((sid, name, self.clock(), parent))

    def end(self) -> None:
        if not self.on:
            return
        sid, name, start, parent = self.stack.pop()
        self.spans.append((sid, name, start, self.clock(), parent, self.op))

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if observe is not None and self.on:
                observe(self, result)
            return result

        return traced

    def gauge_first(self, key: str, value: float) -> None:
        self.gauges.setdefault(key, value)


def _observe_ppt(tracer: Tracer, result) -> None:
    nu = np.asarray(result, dtype=float)
    tracer.counts["core.ppt_inputs"] += nu.size
    tracer.counts["core.guard_band"] += int(np.count_nonzero(np.abs(nu - 0.5) <= GUARD_BAND))


def _observe_nodes(tracer: Tracer, result) -> None:
    x = result[0]
    tracer.counts["oracle.nodes"] += len(x) ** 2


def _rss_gauge(key: str):
    # ru_maxrss only grows, so only the first reading (in the first traced op,
    # before any op has formatted a grid) separates compute from formatting
    def observe(tracer: Tracer, result) -> None:
        tracer.gauge_first(key, _peak_rss_mb())

    return observe


# (module, attribute) of each wrapped entry point, with an optional observer
# that counts work at the same boundary
_FUNCTIONS = [
    ("core", "load_covmat", None),
    ("core", "validate", None),
    ("core", "require_physical", None),
    ("core", "symplectic_eigenvalues", None),
    ("core", "ppt_nu_minus", _observe_ppt),
    ("core", "to_canonical", None),
    ("core", "simon_inseparable", None),
    ("criteria", "classify", None),
    ("criteria", "report_to_json", None),
    ("resources", "tmst", None),
    ("resources", "tmst_covmat", None),
    ("resources", "bs_resource", None),
    ("resources", "bs_covmat", None),
    ("sweep", "run_sweep", _rss_gauge("sweep.rss_after_compute_mb")),
    ("oracle", "fidelity_by_quadrature", None),
    ("oracle", "_nodes", _observe_nodes),
    ("cli", "_analysis_json", None),
    ("cli", "_analysis_csv", None),
    ("cli", "_emit", None),
]

_REGION_GRID_METHODS = [
    ("to_text", _rss_gauge("sweep.rss_after_format_mb")),
    ("to_csv", None),
    ("to_json", None),
    ("write", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every entry point in every gaussqt module that holds it.

    A name imported with ``from .core import ...`` is a second reference to
    the same function, so each loaded gaussqt module is searched for the
    original object and every reference is replaced.  Entry points a later
    version of the program no longer has are listed in ``tracer.missing``.
    """
    import gaussqt

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "gaussqt" or n.startswith("gaussqt."))]
    for mod_name, attr, observe in _FUNCTIONS:
        mod = sys.modules.get(f"gaussqt.{mod_name}")
        original = getattr(mod, attr, None)
        if original is None:
            tracer.missing.append(f"{mod_name}.{attr}")
            continue
        wrapper = tracer.wrap(f"{mod_name}.{attr}", original, observe)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)

    grid_cls = getattr(gaussqt.sweep, "RegionGrid", None)
    for attr, observe in _REGION_GRID_METHODS:
        original = getattr(grid_cls, attr, None)
        if original is None:
            tracer.missing.append(f"sweep.RegionGrid.{attr}")
            continue
        setattr(grid_cls, attr, tracer.wrap(f"sweep.RegionGrid.{attr}", original, observe))

    cli = gaussqt.cli
    build_parser = getattr(cli, "build_parser", None)
    if build_parser is None:
        tracer.missing.append("cli.build_parser")
        return

    def build_and_wrap(*args, **kwargs):
        parser = build_parser(*args, **kwargs)
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
        return parser

    cli.build_parser = tracer.wrap("cli.build_parser", build_and_wrap)


def layer_metrics(spans, counts, gauges, n_ops: int, output_bytes: float) -> dict:
    """Per-layer metrics, in seconds per op unless the name says otherwise.

    A layer that does no work on a workload reads 0.
    """
    n_ops = max(n_ops, 1)
    children = defaultdict(float)
    for _sid, _name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent] += end - start
    layer = defaultdict(float)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    for sid, name, start, end, _parent, _op in spans:
        inclusive[name] += end - start
        calls[name] += 1
        if name in LAYER_OF:
            layer[LAYER_OF[name]] += (end - start) - children[sid]

    format_s = layer["sweep.format"]
    integrate_s = layer["oracle.integrate"]
    ppt_inputs = counts.get("core.ppt_inputs", 0.0)
    guard = counts.get("core.guard_band", 0.0)
    nodes = counts.get("oracle.nodes", 0.0)
    return {
        "resources.build_s": layer["resources.build"] / n_ops,
        "core.spectrum_s": layer["core.spectrum"] / n_ops,
        "core.spectrum_calls_per_op": sum(calls[n] for n in SPECTRUM) / n_ops,
        "core.guard_band_share": guard / ppt_inputs if ppt_inputs else 0.0,
        "core.load_s": layer["core.load"] / n_ops,
        "core.canonical_s": layer["core.canonical"] / n_ops,
        "criteria.classify_s": layer["criteria.classify"] / n_ops,
        "criteria.sweep_self_s": layer["criteria.sweep_self"] / n_ops,
        "sweep.compute_s": inclusive["sweep.run_sweep"] / n_ops,
        "sweep.format_s": format_s / n_ops,
        "sweep.format_mb_per_s": output_bytes * n_ops / format_s / 1e6 if format_s else 0.0,
        "sweep.write_s": layer["sweep.write"] / n_ops,
        "sweep.output_bytes": output_bytes if format_s else 0.0,
        "sweep.rss_after_compute_mb": gauges.get("sweep.rss_after_compute_mb", 0.0),
        "sweep.rss_after_format_mb": gauges.get("sweep.rss_after_format_mb", 0.0),
        "oracle.integrate_s": integrate_s / n_ops,
        "oracle.nodes_per_op": nodes / n_ops,
        "oracle.nodes_per_s": nodes / integrate_s if integrate_s else 0.0,
        "cli.parse_s": layer["cli.parse"] / n_ops,
        "cli.emit_s": layer["cli.emit"] / n_ops,
    }
