"""Spans around the calls into castlab's layers, recorded from outside.

:func:`install` replaces public functions and methods of castlab's modules
with timing wrappers, in every module namespace the callers look them up
in. A span records its inclusive time and the time of the spans nested in
it on the same thread, so self time is inclusive minus children. Spans stay
in memory; :meth:`Tracer.layer_metrics` turns one round's spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            # name -> [calls, inclusive seconds, child seconds, raised]
            self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
            self.counts: dict[str, float] = defaultdict(float)
            self.fits: list[dict] = []

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def keep_fit(self, model, series, horizon: int) -> None:
        """Keep a fitted linear model with its input for the loss check."""
        with self._lock:
            self.fits.append({"model": model, "series": series, "horizon": horizon})

    def wrap(self, fn, name: str, after=None):
        """``fn`` timed as span ``name``; ``after(result, args)`` runs untimed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            children = [0.0]
            stack.append(children)
            raised = 0
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            except Exception:
                raised = 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    span = self.spans[name]
                    span[0] += 1
                    span[1] += elapsed
                    span[2] += children[0]
                    span[3] += raised
            if after is not None:
                after(return_value, args)
            return return_value

        return traced

    def inclusive(self, *names: str) -> float:
        return sum(self.spans[n][1] for n in names)

    def self_time(self, name: str) -> float:
        return self.spans[name][1] - self.spans[name][2]

    def layer_metrics(self, stub=None) -> dict[str, float]:
        """Per-layer metrics of the spans and counts since the last reset."""
        s, c = self.spans, self.counts
        calls = stub.calls if stub is not None else 0
        fit_self = self.inclusive("linear.fit") - self.inclusive("windowing.make_windows")
        forecaster_time = sum(v[1] for k, v in s.items() if k.startswith("forecaster."))
        decode = s["llm.decode.decode_response"]
        return {
            "data_io.load_csv_calls": s["data_io.load_csv"][0],
            "data_io.load_csv_s": self.inclusive("data_io.load_csv"),
            "series.split_standardize_s": self.inclusive(
                "series.chronological_split", "series.channel_stats", "series.standardize"),
            "noise.inject_s": self.inclusive("noise.inject"),
            "noise.filter_s": self.inclusive("noise.filter"),
            "windowing.windows": c["windowing.windows"],
            "windowing.make_windows_s": self.inclusive("windowing.make_windows"),
            "linear.fits": c["linear.fits"],
            "linear.epochs": c["linear.epochs"],
            "linear.fit_s": self.inclusive("linear.fit"),
            "linear.epoch_ms": 1000.0 * fit_self / c["linear.epochs"] if c["linear.epochs"] else 0.0,
            "linear.predict_s": self.inclusive("linear.predict"),
            "forecasters.baseline_predict_s": sum(
                v[1] for k, v in s.items() if k.startswith("forecaster.baseline.")),
            "eval.windows": c["eval.windows"],
            "eval.protocol_s": self.inclusive("eval.protocol"),
            "eval.overhead_s": self.inclusive("eval.protocol") - forecaster_time,
            "runner.cells": c["runner.cells"],
            "runner.write_s": self.self_time("runner.run_experiment"),
            "llm.prompts.built": c["llm.prompts.built"],
            "llm.prompts.chars": c["llm.prompts.chars"],
            "llm.prompts.build_s": self.inclusive("llm.prompts.build"),
            "llm.sampling.calls": calls,
            "llm.sampling.decode_failures": decode[3],
            "llm.sampling.useful_ratio": (decode[0] - decode[3]) / calls if calls else 0.0,
            "llm.sampling.in_flight_max": stub.in_flight_max if stub is not None else 0,
            "llm.sampling.s": self.inclusive("llm.sampling"),
            "llm.decode.s": self.inclusive("llm.decode.decode_response", "llm.decode.aggregate_median"),
            "llm.adapters.transcript_records": s["llm.adapters.transcript"][0],
            "llm.adapters.transcript_s": self.inclusive("llm.adapters.transcript"),
            "llm.adapters.stub_delay_s": stub.delay_total if stub is not None else 0.0,
        }


def _patch(owners, attr: str, wrapper) -> None:
    for owner in owners:
        setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap castlab's layer entry points. Call once, before any round runs."""
    from castlab import data_io, eval as ev, forecasters as fc, linear, runner, series
    from castlab.llm import adapters, sampling

    t = tracer

    _patch([runner], "load_csv", t.wrap(data_io.load_csv, "data_io.load_csv"))

    _patch([ev], "chronological_split", t.wrap(series.chronological_split, "series.chronological_split"))
    _patch([ev], "standardize", t.wrap(series.standardize, "series.standardize"))
    stats_from = series.ChannelStats.from_series.__func__
    series.ChannelStats.from_series = classmethod(t.wrap(stats_from, "series.channel_stats"))

    _patch([ev], "inject_noise", t.wrap(ev.inject_noise, "noise.inject"))
    _patch([ev], "apply_filter", t.wrap(ev.apply_filter, "noise.filter"))

    _patch([linear], "make_windows", t.wrap(
        linear.make_windows, "windowing.make_windows",
        after=lambda ws, args: t.count("windowing.windows", ws.size)))

    def record_fit(model, args):
        t.count("linear.fits")
        t.count("linear.epochs", model.training_stats.epochs_run)
        t.keep_fit(model, args[0].values, args[1].output_length)

    _patch([fc], "fit_single_shot", t.wrap(fc.fit_single_shot, "linear.fit", after=record_fit))
    _patch([fc], "linear_predict", t.wrap(fc.linear_predict, "linear.predict"))

    for cls, kind in ((fc.LastValueForecaster, "baseline"), (fc.SeasonalRepeatForecaster, "baseline"),
                      (fc.PolynomialExtrapolator, "baseline"), (fc.LinearSingleShotForecaster, "linear"),
                      (fc.LlmPromptForecaster, "llm")):
        cls.predict = t.wrap(cls.predict, f"forecaster.{kind}.{cls.__name__}.predict")
        if "fit" in vars(cls):
            cls.fit = t.wrap(cls.fit, f"forecaster.{kind}.{cls.__name__}.fit")

    def record_report(report, args):
        t.count("eval.windows", report.window_count)

    for name in ("run_sliding", "run_last_sample"):
        _patch([ev, runner], name, t.wrap(getattr(ev, name), "eval.protocol", after=record_report))

    _patch([runner], "run_experiment", t.wrap(
        runner.run_experiment, "runner.run_experiment",
        after=lambda result, args: t.count("runner.cells", len(result.results))))

    def record_prompt(bundle, args):
        t.count("llm.prompts.built")
        t.count("llm.prompts.chars", len(bundle.system_text) + len(bundle.user_text))

    _patch([fc], "build_prompt", t.wrap(fc.build_prompt, "llm.prompts.build", after=record_prompt))
    _patch([fc], "sample_forecasts", t.wrap(fc.sample_forecasts, "llm.sampling"))
    _patch([sampling], "decode_response", t.wrap(sampling.decode_response, "llm.decode.decode_response"))
    _patch([fc], "aggregate_median", t.wrap(fc.aggregate_median, "llm.decode.aggregate_median"))
    adapters.TranscriptWriter.record = t.wrap(adapters.TranscriptWriter.record, "llm.adapters.transcript")
