"""Per-layer tracing by wrapping motesim's entry points from outside the package.

``Tracer`` replaces functions and methods where their callers look them up,
counts calls and sums host time per layer, and restores the originals on
exit. The layers are motesim's modules: engine, energy, medium, protocols
(codecs and state machines), powertrace and harness.

Spans are inclusive unless a metric says otherwise: ``medium.broadcast_s``
contains the ``hear`` calls it makes, and every callback span contains the
``call_at`` calls it makes. Engine dispatch overhead is the ``Engine.run``
span minus the spans of the callbacks it dispatched.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from motesim import harness
from motesim.energy import EnergestLedger
from motesim.engine import Engine
from motesim.medium import Node, RadioMedium, StreamTransport
from motesim.protocols import messages

# Callbacks handed to Engine.call_at, named as the benchmark reports them.
SCHEDULED = ("run_check", "maybe_radio_off", "cpu_window_end", "start_tx", "end_tx",
             "deliver", "dispatch_frame", "timer_fired", "on_rto", "sample")

# harness binds these by name at import and ProtocolRuntime stores them, so
# they are replaced in the harness namespace.
CLIENT_STEPS = ("mqtt_client_step", "mqttsn_client_step", "coap_exchange", "http_step")
DECODERS = ("decode", "mqtt_decode_prefix", "http_decode_prefix")
REPORT_CALLS = ("compare", "write_report_csv", "emit_plot_data")

_clock = time.perf_counter


class Tracer:
    """Context manager that instruments motesim while it is active."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.run_events: list[int] = []  # events dispatched by each Engine.run
        self._saved: list = []
        self._sent_segments: set = set()
        self._in_ledger = False
        self._running = ""  # the engine callback being dispatched

    def reset(self) -> None:
        self.counts.clear()
        self.seconds.clear()
        self.run_events.clear()

    def __enter__(self) -> "Tracer":
        self._patch(Engine, "call_at", self._call_at)
        self._patch(Engine, "cancel", self._cancel)
        self._patch(Engine, "run", self._run)
        for name in ("transition", "settle"):
            self._patch(EnergestLedger, name, lambda fn, n=name: self._ledger(f"energy.{n}", fn))
        self._patch(RadioMedium, "broadcast", lambda fn: self._span("medium.broadcast", fn))
        for name in ("hear", "deliver", "send_frame"):
            self._patch(Node, name, lambda fn, n=name: self._span(f"medium.{n}", fn))
        self._patch(StreamTransport, "_put_on_air", self._put_on_air)
        for name in CLIENT_STEPS:
            self._patch(harness, name, lambda fn: self._span("protocols.step", fn))
        self._patch(harness, "_server_step",
                    lambda fn: lambda handler: self._span("protocols.step", fn(handler)))
        self._patch(messages, "encode", lambda fn: self._span("protocols.encode", fn))
        for name in DECODERS:
            self._patch(messages, name, lambda fn: self._span("protocols.decode", fn))
        self._patch(harness, "take_sample", lambda fn: self._span("powertrace.sample", fn))
        self._patch(harness, "simulate", self._simulate)
        self._patch(harness, "load_scenario", lambda fn: self._span("harness.load_scenario", fn))
        self._patch(harness, "write_csv", lambda fn: self._span("harness.csv_write", fn))
        self._patch(harness, "parse_trace_csv", lambda fn: self._span("harness.csv_parse", fn))
        for name in REPORT_CALLS:
            self._patch(harness, name, lambda fn: self._span("harness.compare", fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, make) -> None:
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    # -- wrappers -----------------------------------------------------------

    def _span(self, key: str, fn):
        counts, seconds = self.counts, self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += _clock() - started
                counts[key] += 1

        return wrapper

    def _ledger(self, key: str, fn):
        """Count every ledger call; time only the outermost (transition settles)."""
        counts, seconds = self.counts, self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if self._in_ledger:
                return fn(*args, **kwargs)
            self._in_ledger = True
            started = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds["energy.ledger"] += _clock() - started
                self._in_ledger = False

        return wrapper

    def _call_at(self, original):
        counts, seconds = self.counts, self.seconds

        def call_at(engine, fire_at, fn, *args):
            name = fn.__name__.lstrip("_")
            counts[f"engine.sched.{name}"] += 1
            # A duty check schedules its own end; other radio-off calls end receptions.
            ends_check = self._running == "run_check" and name == "maybe_radio_off"
            span = "check_end" if ends_check else name
            callback = self._callback(span, fn)
            started = _clock()
            try:
                return original(engine, fire_at, callback, *args)
            finally:
                seconds["engine.call_at"] += _clock() - started

        return call_at

    def _callback(self, name: str, fn):
        seconds = self.seconds

        def callback(*args):
            self._running = name
            started = _clock()
            try:
                return fn(*args)
            finally:
                elapsed = _clock() - started
                self._running = ""
                seconds[f"engine.callback.{name}"] += elapsed
                seconds["engine.callbacks"] += elapsed

        return callback

    def _cancel(self, original):
        def cancel(engine, event_id):
            cancelled = original(engine, event_id)
            self.counts["engine.cancels"] += cancelled
            return cancelled

        return cancel

    def _run(self, original):
        def run(engine, until):
            started = _clock()
            summary = original(engine, until)
            self.seconds["engine.run"] += _clock() - started
            self.counts["engine.events"] += summary.events_dispatched
            self.run_events.append(summary.events_dispatched)
            return summary

        return run

    def _put_on_air(self, original):
        """Count stream segments sent again: same sender, connection, kind, seq."""

        def put_on_air(transport, conn, seg):
            key = (transport.node.node_id, seg.conn_id, seg.kind, seg.seq)
            if key in self._sent_segments:
                self.counts["medium.stream_retx"] += 1
            self._sent_segments.add(key)
            return original(transport, conn, seg)

        return put_on_air

    def _simulate(self, original):
        def simulate(config):
            self._sent_segments.clear()  # connection ids restart in every run
            started = _clock()
            try:
                return original(config)
            finally:
                self.seconds["harness.simulate"] += _clock() - started

        return simulate

    # -- report -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and host seconds accumulated since the last reset."""
        c, s = self.counts, self.seconds
        events = c["engine.events"]
        sent = c["medium.broadcast"]
        run_self = s["engine.run"] - s["engine.callbacks"]
        metrics = {"engine.events": events}
        for name in SCHEDULED:
            metrics[f"engine.sched.{name}"] = c[f"engine.sched.{name}"]
        metrics.update({
            "engine.cancels": c["engine.cancels"],
            "engine.call_at_s": s["engine.call_at"],
            "engine.run_self_s": run_self,
            "engine.us_per_event": (s["engine.call_at"] + run_self) / events * 1e6
                                   if events else 0.0,
            "energy.transitions": c["energy.transition"],
            "energy.settles": c["energy.settle"],
            "energy.ledger_s": s["energy.ledger"],
            "medium.frames_sent": sent,
            "medium.frames_delivered": c["medium.deliver"],
            "medium.delivery_frac": c["medium.deliver"] / sent if sent else 0.0,
            "medium.listeners_per_frame": c["medium.hear"] / sent if sent else 0.0,
            "medium.tx_deferrals": c["engine.sched.start_tx"] - sent,
            "medium.stream_retx": c["medium.stream_retx"],
            "medium.broadcast_s": s["medium.broadcast"],
            "medium.hear_s": s["medium.hear"],
            "medium.deliver_s": s["medium.deliver"],
            "medium.send_frame_s": s["medium.send_frame"],
            "medium.duty_s": s["engine.callback.run_check"] + s["engine.callback.check_end"],
            "protocols.steps": c["protocols.step"],
            "protocols.step_s": s["protocols.step"],
            "protocols.encode_calls": c["protocols.encode"],
            "protocols.encode_s": s["protocols.encode"],
            "protocols.decode_calls": c["protocols.decode"],
            "protocols.decode_s": s["protocols.decode"],
            "powertrace.samples": c["powertrace.sample"],
            "powertrace.sample_s": s["powertrace.sample"],
            "harness.build_s": s["harness.simulate"] - s["engine.run"],
            "harness.csv_write_s": s["harness.csv_write"],
            "harness.csv_parse_s": s["harness.csv_parse"],
            "harness.compare_s": s["harness.compare"],
        })
        return metrics

    def event_census(self) -> dict[str, int]:
        """Every count, including callbacks outside SCHEDULED; for fingerprints."""
        return dict(sorted(self.counts.items()))
