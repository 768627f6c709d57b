"""Traced in-process run of one sipcraft command, in a fresh interpreter.

Usage: ``PYTHONPATH=src python3 perfbench/trace_child.py --out FILE --seconds S -- ARGV...``

Imports ``sipcraft.cli``, runs ``cli.main(ARGV)`` once untraced, notes
whether numpy got loaded, then alternates untraced and traced calls until
S seconds have passed (at least two of each). Traced calls go through wrappers installed on the module
attributes listed in ``WRAPPED``; the package source is not modified. Each
wrapper records a span (name, start, end, parent, horizon label, counts) in
memory. The spans, the wall times of the untraced calls and the output bytes
are written to FILE as JSON when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import time

# (module, attribute) -> span name; the span name's prefix is the layer
WRAPPED = {
    ("sipcraft.cli", "parse_series"): "timeseries.parse_series",
    ("sipcraft.cli", "load_schedule_overrides"): "schedule.load_schedule_overrides",
    ("sipcraft.cli", "build_schedule"): "schedule.build_schedule",
    ("sipcraft.cli", "paired_run"): "engine.paired_run",
    ("sipcraft.cli", "run_battery"): "stats.battery.run",
    ("sipcraft.cli", "boxplot_summary"): "report.boxplot_summary",
    ("sipcraft.cli", "render_bundle"): "report.render_bundle",
    ("sipcraft.cli", "file_sha256"): "report.file_sha256",
    ("sipcraft.stats.battery", "paired_t_one_tailed"): "stats.paired.t",
    ("sipcraft.stats.battery", "wilcoxon_signed_rank"): "stats.paired.wilcoxon",
    ("sipcraft.stats.battery", "cohens_d"): "stats.paired.effect",
    ("sipcraft.stats.battery", "hedges_g"): "stats.paired.effect",
    ("sipcraft.stats.battery", "classify_effect"): "stats.paired.effect",
    ("sipcraft.stats.battery", "bootstrap_bca"): "stats.bootstrap.bca",
    ("sipcraft.stats.battery", "ks_two_sample"): "stats.dominance.ks",
    ("sipcraft.stats.battery", "check_fsd"): "stats.dominance.fsd_ssd",
    ("sipcraft.stats.battery", "check_ssd"): "stats.dominance.fsd_ssd",
}


def _counts(name: str, result) -> dict[str, int]:
    """Work done by one call, read from its return value."""
    if name == "timeseries.parse_series":
        return {"rows": len(result)}
    if name == "schedule.build_schedule":
        table, anomalies = result
        sources = [src for _, e in table.items() for src in (e.ftd_source, e.expiry_source)]
        return {"months": len(table), "anchors_override": sources.count("override"),
                "anchors_computed": sources.count("computed"), "anomalies": len(anomalies)}
    if name == "engine.paired_run":
        _, outcomes = result
        return {"windows": len(outcomes),
                "installments": sum(24 * o.window.years for o in outcomes)}
    if name == "stats.bootstrap.bca":
        return {"calls": 1, "resamples": 0 if result.degenerate else result.resamples}
    if name == "stats.battery.run":
        return {"cells_na": len(result.not_applicable)}
    return {}


class Tracer:
    """Span recorder: wrappers append spans while ``spans`` is a list, else pass through."""

    def __init__(self):
        self.spans: list[dict] | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            spans = self.spans
            if spans is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            if name == "engine.paired_run":
                label = f"{args[0] if args else kwargs['duration']}y"
            elif name == "stats.battery.run":
                label = kwargs.get("label", "")
            else:
                label = spans[parent]["label"] if parent is not None else ""
            span = {"name": name, "parent": parent, "label": label, "counts": {}}
            spans.append(span)
            self._stack.append(len(spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["counts"] = _counts(name, result)
            return result
        return traced

    def begin(self) -> None:
        self.spans = [{"name": "cli.main", "parent": None, "label": "", "counts": {},
                       "start": time.perf_counter()}]
        self._stack = [0]

    def finish(self) -> list[dict]:
        spans, self.spans = self.spans, None
        spans[0]["end"] = time.perf_counter()
        return spans

    def install(self) -> list[str]:
        """Wrap every attribute in WRAPPED that exists; return the missing ones."""
        missing = []
        for (module_name, attr), name in WRAPPED.items():
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(getattr(module, attr), name))
            else:
                missing.append(f"{module_name}.{attr}")
        return missing


def _call(main, argv: list[str]) -> tuple[int, bytes, bytes, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue().encode(), err.getvalue().encode(), elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("argv", nargs="+")
    args = parser.parse_args()

    from sipcraft import cli

    # the first call runs before any wrapper imports a module of its own
    rc, out, err, _ = _call(cli.main, args.argv)
    numpy_loaded = int("numpy" in sys.modules)
    tracer = Tracer()
    missing = tracer.install()
    untraced, traced, mismatches = [], [], 0
    deadline = time.perf_counter() + args.seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        got = _call(cli.main, args.argv)
        untraced.append(got[3])
        tracer.begin()
        traced_got = _call(cli.main, args.argv)
        traced.append(tracer.finish())
        mismatches += (got[:3] != (rc, out, err)) + (traced_got[:3] != (rc, out, err))

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "rc": rc,
            "stderr": err.decode(),
            "out_sha256": hashlib.sha256(out).hexdigest(),
            "out_bytes": len(out),
            "numpy_loaded": numpy_loaded,
            "missing": missing,
            "mismatches": mismatches,
            "untraced_s": untraced,
            "traced": traced,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
