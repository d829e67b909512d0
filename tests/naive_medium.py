"""The naive medium: one engine event per state change, the oracle of motesim.medium.

Like Contiki's Energest, it books each state change as it happens, with none
of motesim's replayed queues, engine marks or grouped wake-ups. Each idle
check, and each end of a listen window, a receive hold or a CPU busy window,
is an event; every radio change is an EnergestLedger.transition. It shares
only the engine, the ledger, LinkModel and the transports with motesim. Patch
harness.Node and harness.RadioMedium with NaiveNode and NaiveMedium to run a
whole simulation on it.
"""

import math
from collections import deque

from motesim.energy import EnergestLedger, RadioState
from motesim.engine import RTIMER_HZ
from motesim.medium import (CpuCostModel, DatagramTransport, DutyCycleConfig, FrameTooLarge,
                            RadioMedium, StreamSegment, StreamTransport, airtime_ticks)

RX, TX, OFF = RadioState.RX, RadioState.TX, RadioState.OFF


class NaiveMedium(RadioMedium):
    """Registers nodes like RadioMedium; each frame reaches its listeners afresh."""

    def broadcast(self, frame, now, air):
        """Every node in range of the sender hears the frame, in registration order;
        return the addressee if it heard the frame and the tx and rx draws pass."""
        positions, link, rng = self.link.positions, self.link, self.engine.rng
        tx_ok = link.tx_passes(rng)
        return [node for node_id, node in self.nodes.items()
                if node_id != frame.src
                and math.dist(positions[frame.src], positions[node_id]) <= link.range_m
                and node.hear(now, air) and node_id == frame.dst
                and tx_ok and link.rx_passes(rng)]


class NaiveNode:
    """A radio endpoint that books every state change when it happens.

    A frame out takes the CPU for its cost, then the radio for its airtime,
    one at a time; a frame in takes the same CPU cost before its payload
    reaches a transport. A duty-cycled check opens a listen window if the
    pipeline is idle and the radio off. The radio goes off at the end of a
    window or a receive hold unless the other is open, and after a TX unless
    either is.
    """

    def __init__(self, node_id, engine, medium, duty=DutyCycleConfig(), cpu_cost=CpuCostModel()):
        self.node_id, self.engine, self.medium = node_id, engine, medium
        self.duty, self.cpu_cost = duty, cpu_cost
        self.ledger = EnergestLedger(radio_state=OFF if duty.enabled else RX,
                                     settled_at=engine.now, last_radio_change=engine.now)
        self.sent_frames = []
        self.streams = StreamTransport(self)
        self.datagrams = DatagramTransport(self)
        self._outbox = deque()
        self._pipeline_busy = False
        self._tx_until = self._check_until = self._rx_hold_until = self._cpu_busy_until = 0
        self._cpu_since = None  # start of the open busy window; None while idle
        self._cpu_ticks = 0  # ticks of the closed busy windows
        medium.add_node(self)
        if duty.enabled:
            self._check_period = RTIMER_HZ // duty.check_rate_hz
            engine.call_at(engine.now, self._check)

    def settle(self, now):
        open_window = 0 if self._cpu_since is None else now - self._cpu_since
        return self.ledger.settle(now, self._cpu_ticks + open_window)

    def _cost(self, frame):
        return self.cpu_cost.frame_cost(frame, self.medium.overheads.link_bytes)

    def send_frame(self, frame):
        if frame.length_bytes > self.medium.overheads.mtu_bytes:
            raise FrameTooLarge(f"frame of {frame.length_bytes} B exceeds the MTU")
        self._outbox.append(frame)
        self._pump()

    def _pump(self):
        if self._pipeline_busy or not self._outbox:
            return
        self._pipeline_busy = True
        frame = self._outbox.popleft()
        self.engine.call_at(self.charge_cpu(self._cost(frame)), self._start_tx, frame)

    def _start_tx(self, frame):
        now = self.engine.now
        if self._rx_hold_until > now:  # a frame is on air: try again when it ends
            self.engine.call_at(self._rx_hold_until, self._start_tx, frame)
            return
        air = airtime_ticks(frame.length_bytes)
        self._check_until = min(self._check_until, now)  # abort any idle check
        self.ledger.transition(TX, now)
        self._tx_until = now + air
        self.sent_frames.append(frame)
        receivers = self.medium.broadcast(frame, now, air)
        self.engine.call_at(self._tx_until, self._end_tx, frame, receivers)

    def _end_tx(self, frame, receivers):
        for node in receivers:
            node.deliver(frame)
        now = self.engine.now
        listening = (not self.duty.enabled or self._check_until > now
                     or self._rx_hold_until > now)
        self.ledger.transition(RX if listening else OFF, now)
        self._pipeline_busy = False
        self._pump()

    def hear(self, now, air):
        """Listen to a frame spanning [now, now + air); False if deaf (mid-TX)."""
        if self._tx_until > now:
            return False
        self.ledger.transition(RX, now)
        if now + air >= self._rx_hold_until:
            self._rx_hold_until = now + air
            if self.duty.enabled:
                self.engine.call_at(now + air, self._radio_off)
        return True

    def deliver(self, frame):
        self.engine.call_at(self.charge_cpu(self._cost(frame)), self._dispatch_frame, frame)

    def _dispatch_frame(self, frame):
        if isinstance(frame.payload, StreamSegment):
            self.streams.on_segment(frame.src, frame.payload)
        elif self.datagrams.on_datagram is not None:
            self.datagrams.on_datagram(frame.src, frame.payload)

    def _check(self):
        now = self.engine.now
        self.engine.call_at(now + self._check_period, self._check)
        if self._pipeline_busy or self.ledger.radio_state is not OFF:
            return  # preempted by outbound traffic, or already listening
        self.ledger.transition(RX, now)
        self._check_until = now + self.duty.check_duration_ticks
        self.engine.call_at(self._check_until, self._radio_off)

    def _radio_off(self):
        now = self.engine.now
        if (self.ledger.radio_state is RX and self._check_until <= now
                and self._rx_hold_until <= now):
            self.ledger.transition(OFF, now)

    def charge_cpu(self, ticks):
        """Occupy the CPU for ticks after its current busy window; return the end."""
        now = self.engine.now
        if self._cpu_since is None:
            self._cpu_since = self._cpu_busy_until = now
        self._cpu_busy_until += ticks
        self.engine.call_at(self._cpu_busy_until, self._cpu_window_end)
        return self._cpu_busy_until

    def _cpu_window_end(self):
        now = self.engine.now
        if self._cpu_since is not None and self._cpu_busy_until <= now:
            self._cpu_ticks += now - self._cpu_since
            self._cpu_since = None
