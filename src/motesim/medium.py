"""Unit-disk radio medium, link framing, duty cycling, and transport services.

Two transports ride on the raw frame layer: a connection-oriented reliable
stream (stop-and-wait with retransmission) and a fire-and-forget datagram
service. Every frame burns sender TX airtime and listener RX airtime whether
or not it is delivered.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Callable, NamedTuple, Optional

from .energy import EnergestLedger, RadioState
from .engine import RTIMER_HZ, Engine, Mark, TickTime, seconds_to_ticks

# CC2420-class radio bit rate.
RADIO_RATE_BPS = 250_000

# Stream transport: retransmission timeout and retries after the first send.
STREAM_RTO_TICKS = seconds_to_ticks(0.5)
STREAM_MAX_RETRIES = 3

# A duty-cycled node's own points, queued in Node._heard in place of a frame's
# airtime: a settle, the pipeline turning busy, a TX's end and start.
SETTLE, BUSY, TX_END, TX_START = -1, -2, -3, -4


class FrameTooLarge(ValueError):
    pass


class StreamStateError(RuntimeError):
    pass


def _ignore(*args) -> None:
    """A transport callback's default: nothing listens."""


def airtime_ticks(length_bytes: int) -> int:
    """On-air duration of a frame in ticks at 250 kbps, rounded up; 0 bytes -> 0."""
    if length_bytes < 0:
        raise ValueError("length_bytes must be non-negative")
    return -(-(length_bytes * 8 * RTIMER_HZ) // RADIO_RATE_BPS)


class Overheads(NamedTuple):
    """Per-frame byte overheads; sizes matter relatively, not absolutely."""

    link_bytes: int = 9
    datagram_bytes: int = 21
    stream_bytes: int = 41
    mtu_bytes: int = 127


class DutyCycleConfig(NamedTuple):
    """Periodic radio wake-ups: check_rate_hz listen windows per second."""

    enabled: bool = True
    check_rate_hz: int = 8
    check_duration_ticks: int = 32


class CpuCostModel(NamedTuple):
    """CPU-active ticks charged per frame processed, on send and on receive."""

    ticks_per_message: int = 30
    ticks_per_byte: int = 2

    def frame_cost(self, frame: "RadioFrame", link_overhead_bytes: int) -> int:
        pdu = frame.length_bytes - link_overhead_bytes
        return self.ticks_per_message + self.ticks_per_byte * pdu


class LinkModel:
    """Unit disk graph: delivery is possible only within range_m.

    A success probability of 1.0 (or 0.0) passes (or fails) without a random
    draw, so loss-free runs are reproducible independently of the RNG stream.
    """

    def __init__(self, range_m: float, tx_success: float, rx_success: float,
                 positions: dict[str, tuple[float, float]]):
        self.range_m = range_m
        self.tx_success = tx_success
        self.rx_success = rx_success
        self.positions = positions

    def tx_passes(self, rng) -> bool:
        p = self.tx_success
        return p >= 1.0 or (p > 0.0 and rng.random() < p)

    def rx_passes(self, rng) -> bool:
        p = self.rx_success
        return p >= 1.0 or (p > 0.0 and rng.random() < p)


class RadioFrame(NamedTuple):
    """One on-air frame; length_bytes includes the link-layer overhead."""

    src: str
    dst: str
    length_bytes: int
    payload: object  # a StreamSegment, or the bytes of a datagram


class StreamSegment:
    """Stream transport unit: control (syn/synack/ack/fin) or data."""

    __slots__ = ("kind", "conn_id", "seq", "data")

    def __init__(self, kind: str, conn_id: int, seq: int = 0, data: bytes = b""):
        self.kind = kind
        self.conn_id = conn_id
        self.seq = seq
        self.data = data


HANDSHAKE_ACK = -1


class StreamConn:
    """Stop-and-wait connection endpoint state: SYN_SENT at its opener and
    SYN_RCVD at its listener (RFC 793's names), then ESTABLISHED, CLOSING
    and CLOSED."""

    def __init__(self, conn_id: int, peer: str, state: str):
        self.conn_id = conn_id
        self.peer = peer
        self.state = state
        self.send_seq = 0
        self.recv_next = 0
        self.inflight: Optional[StreamSegment] = None
        self.retries_left = 0
        self.rto_event = 0
        self.sendq: list[StreamSegment] = []  # short; an empty deque is 10x a list


class ListenerGroup:
    """Duty-cycled nodes with one check round, listen width and closed
    neighbourhood (a node and its listeners) hear the frames sent from inside
    it, but their own, and no other. Each is logged once, as (tick, air,
    round_ran, sender, addressee) numbered from 0, until every member replays
    it (`pos`: each one's next frame). If shared, the log is replayed for a
    member that never sends, its pipeline idle or busy: `refs[busy][i]` is its
    ((state, since, until, after, next check), RX ticks) before frame base + i.
    """

    __slots__ = ("mark", "width", "log", "base", "pos", "refs")

    def __init__(self, mark: Mark, width: int):
        self.mark, self.width, self.base, self.pos = mark, width, 0, {}
        self.log: list[tuple[TickTime, int, bool, str, str]] = []
        start = ((RadioState.OFF, 0, 0, True, 0), 0)  # any state will do
        self.refs = ([start], [start])

    def join(self, node: "Node") -> None:
        node._group, self.pos[node.node_id] = self, self.base

    def caught_up(self, node_id: str, pos: int) -> None:
        """Move a member on to frame pos; drop what all members have replayed."""
        self.pos[node_id] = pos
        drop = min(self.pos.values()) - self.base
        if drop > 0:
            del self.log[:drop]
            for ref in self.refs:  # one not run that far goes on from there as it stands
                del ref[:min(drop, len(ref) - 1)]
            self.base += drop

    def replay(self, st: tuple, pos: int, heard: list[tuple], me: Optional[str]) -> tuple:
        """Replay, from the state st (state, since, until, after, next check,
        busy, RX ticks, TX ticks), the log from frame pos with the entries of
        member me, each (frame number, tick, air or point, round_ran) placed
        before that frame and the last a settle, and the checks and radio ends
        due among them; return st and the next frame's number. A member skips
        the frames that name it as sender or addressee: it has entries for
        them. Over a stretch with none, one in the state of the reference for
        its pipeline takes its RX ticks at once; me None records a reference.

        A check at tick t is due if t < now, or t == now and the check round
        for now has run. It opens a window [t, t + D) only if the pipeline is
        idle and the radio is off. A listening radio has one end, the later of
        its window's end and its receive hold's end, where it goes off. An end
        queued at tick q for a check tick e precedes that check, as an event
        would, iff e - q > P, or e - q == P and the round at q had not run when
        it was queued; so a window's end (D <= P) never does. Of two ends at one
        tick the one queued first stays, as it never sorts after the other.
        Ends commute with every other event at their tick, so an end at now is
        due unless a check at now comes first.

        An entry queued at tick s applies where it was queued: after the
        checks and the end due then (the check at s iff its round had run),
        and before the next one. A frame turns the radio on and may move its
        end later. The node's own points change its state there, exactly as a
        replay up to the point followed by the change would: BUSY makes the
        pipeline busy; TX_START books the radio up to s, puts it in TX and
        aborts any open window; TX_END books the TX, leaves the radio in RX if
        its end lies past s and off if not, and makes the pipeline idle.
        """
        state, since, until, after, check, busy, rx, tx = st
        log, base = self.log, self.base
        record = self.refs[busy] if me is None else None
        refs = self.refs if me is not None and len(self.pos) > 1 else None
        period, width = self.mark.period, self.width
        RX, TX, OFF = RadioState.RX, RadioState.TX, RadioState.OFF
        hi, k = 0, heard[0][0]
        while True:
            if record is not None and pos - base == len(record):
                record.append(((state, since, until, after, check), rx))
            if pos < k:
                start, air, ran, src, dst = log[pos - base]
                pos += 1
                if src == me or dst == me:
                    continue
                if refs is not None:
                    ref = refs[busy]
                    if len(ref) <= k - base:  # run it on to the log's end; a settle
                        known, ref_rx = ref[-1]  # at tick -1 replays no check
                        self.replay((*known, busy, ref_rx, 0), base + len(ref) - 1,
                                    [(base + len(log), -1, SETTLE, False)], None)
                    known, rx0 = ref[pos - 1 - base]
                    if known == (state, since, until, after, check):
                        (state, since, until, after, check), rx1 = ref[k - base]
                        rx, pos = rx + rx1 - rx0, k
                        continue
            else:
                _, start, air, ran = heard[hi]
                hi += 1
                if air != SETTLE:
                    k = heard[hi][0]
            last_check = start if ran else start - 1
            while True:
                if (state is RX and until <= start
                        and (until < check or (until == check and not after))):
                    rx += until - since
                    state, since = OFF, until
                if check > last_check:
                    break
                if busy or state is not OFF:
                    check += period  # preempted by outbound traffic, or already listening
                    continue
                if width < period:
                    # Each window closes before the next check, so all due
                    # windows but the last add D at once.
                    closed = (last_check - check) // period
                    rx += closed * width
                    check += closed * period
                state, since = RX, check
                until, after = check + width, True
                check += period
            if air >= 0:
                if state is not RX:
                    if state is TX:  # heard at the tick its own TX ends
                        tx += start - since
                    state, since = RX, start
                if start + air > until:
                    until, after = start + air, air < period or (air == period and ran)
            elif air == BUSY:
                busy = True
            elif air == SETTLE:
                break
            else:
                if state is RX:
                    rx += start - since
                elif state is TX:
                    tx += start - since
                if air == TX_START:
                    state = TX
                    until = min(until, start)  # abort any open window
                else:
                    state = RX if until > start else OFF
                    busy = False
                since = start
        return (state, since, until, after, check, busy, rx, tx), pos


class RadioMedium:
    """Node registry plus the broadcast propagation rule.

    Nodes join before the first frame and positions never move, so each node's
    in-range listeners and group are computed once, in registration order.
    """

    def __init__(self, engine: Engine, link: LinkModel, overheads: Overheads = Overheads()):
        self.engine = engine
        self.link = link
        self.overheads = overheads
        self.nodes: dict[str, "Node"] = {}
        self.conn_ids = itertools.count(1)
        self._in_range: dict[str, tuple] = {}  # listeners, them by id, groups logging it
        # The newest group of deferred senders: (tick, event id, [(node, frame)])
        self._deferred: Optional[tuple[TickTime, int, list]] = None

    def add_node(self, node: "Node") -> None:
        if node.node_id not in self.link.positions:
            raise ValueError(f"no position for node {node.node_id!r}")
        if self._in_range:  # filled by the first frame
            raise ValueError(f"node {node.node_id!r} joins after the first frame")
        self.nodes[node.node_id] = node

    def detach(self) -> None:
        """Forget every node, and drop each node's transports.

        Their callbacks lead back to the node, so a finished run calls this
        to leave no reference cycle behind. A detached node keeps its ledger,
        its sent frames and settle(), but can no longer send or receive.
        """
        for node in self.nodes.values():
            node.streams = node.datagrams = None
        self.nodes.clear()
        self._in_range.clear()
        self._deferred = None

    def _layout(self) -> dict:
        """Cache each node's listeners, the nodes in range of it in registration
        order, and put the duty-cycled nodes into groups, made in that order."""
        positions, range_m = self.link.positions, self.link.range_m
        groups: dict[tuple, ListenerGroup] = {}
        for src, node in self.nodes.items():
            listeners = [other for other_id, other in self.nodes.items() if other_id != src
                         and math.dist(positions[src], positions[other_id]) <= range_m]
            by_id = {other.node_id: other for other in listeners}
            self._in_range[src] = (listeners, by_id, [])
            if node._round is not None:
                key = (node._round, node.duty.check_duration_ticks, *sorted([src, *by_id]))
                groups.setdefault(key, ListenerGroup(*key[:2])).join(node)
        for (_, _, *near), group in groups.items():
            for node_id in near:
                self._in_range[node_id][2].append(group)
        return self._in_range

    def broadcast(self, frame: RadioFrame, now: TickTime, air: int) -> list["Node"]:
        """Propagate a frame of air ticks already on air; return the nodes that receive it.

        Every in-range listener accrues RX for the airtime span and holds its
        radio on, and any TX of its own, until the frame's end: range is
        symmetric, so no node hears while it sends. Only the addressee, found
        by id, hears the frame now (Node.hear), and receives it if the success
        draws pass: one tx draw, then its rx draw if that passed. Loss burns
        energy on both sides. The frame schedules no event: the sender's end
        of TX delivers it. Each group it reaches logs it once for the replay,
        with its sender, addressee and whether the group's round at now ran.
        """
        listeners, by_id, groups = self._in_range.get(frame.src) or self._layout()[frame.src]
        link, rng = self.link, self.engine.rng
        tx_ok = link.tx_passes(rng)
        target = by_id.get(frame.dst)
        if target is not None:
            target.hear(now, air)
        receivers = [target] if target is not None and tx_ok and link.rx_passes(rng) else []
        end = now + air
        for node in listeners:
            if end > node._rx_hold_until:
                node._rx_hold_until = end
        for group in groups:
            group.log.append((now, air, group.mark.last == now, frame.src, frame.dst))
        return receivers

    def defer_tx(self, node: "Node", frame: RadioFrame, until: TickTime) -> None:
        """Start node's TX of frame at tick until, when the frames it hears end.

        Senders that defer to one tick one after another, with no engine seq
        taken in between, share one event that starts them in that order:
        nothing could sort between their own events, as with Engine.mark.
        That event, _start_deferred, sends each waiter still held back here.
        """
        group = self._deferred
        if group is not None and group[0] == until and self.engine.is_newest(group[1]):
            group[2].append((node, frame))
        else:
            self._new_group(until, [(node, frame)])

    def _new_group(self, until: TickTime, waiting: list[tuple["Node", RadioFrame]]) -> None:
        """Make waiting the newest group, started by one event at tick until."""
        self._deferred = (until, self.engine.call_at(until, self._start_deferred, waiting),
                          waiting)

    def _start_deferred(self, waiting: list[tuple["Node", RadioFrame]]) -> None:
        """Start the waiters in the order they deferred; a waiter still held
        goes straight back to defer_tx, without a Node._start_tx call.

        A waiter that transmits takes the newest seq for its end of TX. So if
        every waiter after it is held to one tick, deferring them one by one
        would start a new group with the first and join the rest to it: the
        rest of the list becomes that group at once, with one call_at. If
        their holds differ, each goes back to defer_tx on its own.
        """
        now = self.engine.now
        last = len(waiting) - 1
        for i, (node, frame) in enumerate(waiting):
            until = node._rx_hold_until
            if until > now:
                self.defer_tx(node, frame, until)
                continue
            node._start_tx(frame)
            if i < last:
                until = waiting[i + 1][0]._rx_hold_until
                if until > now:
                    for j in range(i + 2, last + 1):
                        if waiting[j][0]._rx_hold_until != until:
                            break
                    else:
                        self._new_group(until, waiting[i + 1:])
                        return


class Node:
    """A radio endpoint: energy ledger, duty cycling, send pipeline, transports.

    Outbound frames are serialized: each one first occupies the CPU for its
    processing cost, then the radio for its airtime. Inbound frames charge the
    same CPU cost at delivery before the payload reaches a transport.

    With duty cycling, the radio wakes every check period P for a window of
    D <= P ticks if the send pipeline is idle and the radio is off. No state
    ends by an event: frames overheard go into its ListenerGroup's log, those
    addressed to it and its own changes into _heard, and settle() has
    _catch_up() replay both with the checks and radio ends due among them. A
    listening radio has one end, the later of its window's and its receive
    hold's. The receive hold, _rx_hold_until, is the end of the latest frame
    heard, so a sender that must wait for it defers without a replay.

    The CPU, and a radio without duty cycling, change no ledger state: their
    busy spans never overlap, so their ACTIVE and TX ticks are the charged
    ticks and the airtime sent, less the part still to come, and settle()
    writes them with the rest of the elapsed time as LPM and RX. Read the
    counters through settle(); the ledger alone lags, a duty-cycled radio's
    state tag included.
    """

    def __init__(
        self,
        node_id: str,
        engine: Engine,
        medium: RadioMedium,
        duty: DutyCycleConfig = DutyCycleConfig(),
        cpu_cost: CpuCostModel = CpuCostModel(),
    ):
        self.node_id = node_id
        self.engine = engine
        self.medium = medium
        self.duty = duty
        self.cpu_cost = cpu_cost
        self.ledger = EnergestLedger(
            radio_state=RadioState.OFF if duty.enabled else RadioState.RX,
            settled_at=engine.now, last_radio_change=engine.now)
        self.sent_frames: list[RadioFrame] = []
        self.streams = StreamTransport(self)
        self.datagrams = DatagramTransport(self)
        self._outbox: deque[RadioFrame] = deque()
        self._pipeline_busy = False
        self._cpu_busy_until: TickTime = 0
        self._cpu_charged = 0  # ticks charged since creation
        self._tx_until: TickTime = 0
        self._tx_airtime = 0  # airtime sent since creation, without duty cycling
        self._rx_hold_until: TickTime = 0  # end of the latest frame heard or queued
        self._round: Optional[Mark] = None  # the check round, with duty cycling
        if duty.enabled:
            if duty.check_rate_hz <= 0 or RTIMER_HZ % duty.check_rate_hz != 0:
                raise ValueError("check_rate_hz must evenly divide the tick rate")
            period = RTIMER_HZ // duty.check_rate_hz
            if not 0 <= duty.check_duration_ticks <= period:
                raise ValueError("check_duration_ticks must lie in [0, the check period]")
        medium.add_node(self)
        if duty.enabled:
            self._round = engine.mark(period)
            # As replayed: where a listening radio goes off, whether that end sorts
            # after a check at its tick, the next check, and whether the pipeline is busy
            self._replayed = (0, True, engine.now, False)
            self._heard: list[tuple] = []  # (group frame number, tick, air or point, round_ran)
            # An empty group of its own until RadioMedium._layout(): no frame precedes its notes
            ListenerGroup(self._round, duty.check_duration_ticks).join(self)

    def settle(self, now: TickTime) -> EnergestLedger:
        """Bring the ledger up to now; read counters after this.

        A duty-cycled radio first replays its group's frames and its own
        entries since the last settle, with the state ends due among them
        (see _catch_up). The CPU's ACTIVE ticks, and an always-on radio's TX
        ticks, are the sums charged and sent less what lies past now; the
        rest of the time is LPM and RX.
        """
        cpu = self._cpu_charged - max(0, self._cpu_busy_until - now)
        if self._round is None:
            return self.ledger.settle(now, cpu, self._tx_airtime - max(0, self._tx_until - now))
        self._catch_up(now)
        return self.ledger.settle(now, cpu)

    # -- outbound pipeline ------------------------------------------------

    def send_frame(self, frame: RadioFrame) -> None:
        if frame.length_bytes > self.medium.overheads.mtu_bytes:
            raise FrameTooLarge(
                f"frame of {frame.length_bytes} B exceeds MTU "
                f"{self.medium.overheads.mtu_bytes} B"
            )
        if self._pipeline_busy:
            self._outbox.append(frame)
        else:
            self._process(frame)

    def _process(self, frame: RadioFrame) -> None:
        """Take frame into the idle pipeline: book it busy, charge the CPU
        the frame's cost, and start its TX when that charge completes."""
        if self._round is not None:
            self._note(self.engine.now, BUSY)
        self._pipeline_busy = True
        end = self.charge_cpu(self.cpu_cost.frame_cost(frame, self.medium.overheads.link_bytes))
        self.engine.call_at(end, self._start_tx, frame)

    def _start_tx(self, frame: RadioFrame) -> None:
        """Put frame on air, or defer it to the end of the frames heard.

        A duty-cycled sender queues its TX start, which also aborts an idle
        check, for the replay, which skips the frame in the group's log by its
        sender, not by its place; a deferring one queues nothing.
        """
        now = self.engine.now
        if self._rx_hold_until > now:
            self.medium.defer_tx(self, frame, self._rx_hold_until)
            return
        air = airtime_ticks(frame.length_bytes)
        if self._round is None:
            self._tx_airtime += air
        else:
            self._note(now, TX_START)
        self._tx_until = now + air
        self.sent_frames.append(frame)
        receivers = self.medium.broadcast(frame, now, air)
        self.engine.call_at(self._tx_until, self._end_tx, frame, receivers)

    def _end_tx(self, frame: RadioFrame, receivers: list["Node"]) -> None:
        for node in receivers:
            node.deliver(frame)  # the frame ends with the TX, before anything else at this tick
        if self._round is not None:
            self._note(self.engine.now, TX_END)
        if self._outbox:
            self._process(self._outbox.popleft())
        else:
            self._pipeline_busy = False

    # -- inbound path ------------------------------------------------------

    def hear(self, now: TickTime, air: int) -> None:
        """Hear a frame spanning [now, now + air); never called while sending.

        The radio is held on until the frame ends. A duty-cycled node only
        queues the frame in its own queue, for settle() to replay; the replay
        skips the group log's copy, which names it as addressee. An always-on
        radio is in RX whenever it is not sending; only its receive hold moves.
        """
        end = now + air
        if end > self._rx_hold_until:
            self._rx_hold_until = end
        if self._round is not None:
            self._note(now, air)

    def deliver(self, frame: RadioFrame) -> None:
        """Frame fully received: charge CPU, then hand the payload up."""
        cost = self.cpu_cost.frame_cost(frame, self.medium.overheads.link_bytes)
        end = self.charge_cpu(cost)
        self.engine.call_at(end, self._dispatch_frame, frame)

    def _dispatch_frame(self, frame: RadioFrame) -> None:
        payload = frame.payload
        if isinstance(payload, StreamSegment):
            self.streams.on_segment(frame.src, payload)
        else:
            self.datagrams.on_datagram(frame.src, payload)

    # -- duty cycling ------------------------------------------------------

    def _note(self, now: TickTime, point: int) -> None:
        """Queue a frame heard (its air) or own point at now, before the group's next frame."""
        group = self._group
        self._heard.append((group.base + len(group.log), now, point, self._round.last == now))

    def _catch_up(self, now: TickTime) -> None:
        """Replay the group's log and own entries up to now into the ledger."""
        self._note(now, SETTLE)
        group, heard, ledger = self._group, self._heard, self.ledger
        (state, since, *replayed, rx, tx), pos = group.replay(
            (ledger.radio_state, ledger.last_radio_change, *self._replayed, ledger.rx_ticks,
             ledger.tx_ticks), group.pos[self.node_id], heard, self.node_id)
        self._replayed = tuple(replayed)
        heard.clear()
        group.caught_up(self.node_id, pos)
        ledger.replayed_radio(state, since, rx, tx)

    # -- CPU accounting ----------------------------------------------------

    def charge_cpu(self, ticks: int) -> TickTime:
        """Occupy the CPU for `ticks`, queued behind any current busy window.

        Returns the tick at which this charge completes. Windows coalesce, so
        the CPU is ACTIVE for exactly the ticks charged; settle() counts them
        without any state change here.
        """
        busy, now = self._cpu_busy_until, self.engine.now
        self._cpu_busy_until = busy = (busy if busy > now else now) + ticks
        self._cpu_charged += ticks
        return busy


class DatagramTransport:
    """Connectionless send/receive; no acknowledgment, no retransmission."""

    def __init__(self, node: Node):
        self.node = node
        self.on_datagram: Callable[[str, bytes], None] = _ignore

    def send(self, dst: str, payload: bytes) -> None:
        over = self.node.medium.overheads
        length = len(payload) + over.datagram_bytes + over.link_bytes
        self.node.send_frame(RadioFrame(self.node.node_id, dst, length, payload))


class StreamTransport:
    """Reliable in-order byte stream: 3-segment handshake, stop-and-wait data
    with per-segment ACKs, fixed retransmission timeout, FIN/ACK close."""

    def __init__(self, node: Node):
        self.node = node
        self.conns: dict[int, StreamConn] = {}
        self.on_established: Callable[[StreamConn], None] = _ignore
        self.on_data: Callable[[StreamConn, bytes], None] = _ignore
        self.on_closed: Callable[[StreamConn], None] = _ignore
        self.on_failed: Callable[[StreamConn, str], None] = _ignore

    # -- application surface ------------------------------------------------

    def connect(self, dst: str) -> StreamConn:
        conn = StreamConn(next(self.node.medium.conn_ids), dst, "SYN_SENT")
        self.conns[conn.conn_id] = conn
        syn = StreamSegment("syn", conn.conn_id)
        conn.sendq.append(syn)
        self._try_send(conn)
        return conn

    def send(self, conn: StreamConn, payload: bytes) -> None:
        if conn.state != "ESTABLISHED":
            raise StreamStateError(f"send on {conn.state} connection")
        over = self.node.medium.overheads
        mss = over.mtu_bytes - over.link_bytes - over.stream_bytes
        for start in range(0, len(payload), mss):
            seg = StreamSegment(
                "data", conn.conn_id, conn.send_seq, payload[start : start + mss]
            )
            conn.send_seq += 1
            conn.sendq.append(seg)
        self._try_send(conn)

    def close(self, conn: StreamConn) -> None:
        if conn.state in ("CLOSING", "CLOSED"):
            return
        conn.state = "CLOSING"
        fin = StreamSegment("fin", conn.conn_id, conn.send_seq)
        conn.send_seq += 1
        conn.sendq.append(fin)
        self._try_send(conn)

    # -- reliable machinery --------------------------------------------------

    def _try_send(self, conn: StreamConn) -> None:
        if conn.inflight is not None or not conn.sendq:
            return
        seg = conn.sendq.pop(0)
        conn.inflight = seg
        conn.retries_left = STREAM_MAX_RETRIES
        self._transmit(conn, seg)

    def _transmit(self, conn: StreamConn, seg: StreamSegment) -> None:
        self._put_on_air(conn, seg)
        engine = self.node.engine
        conn.rto_event = engine.call_at(engine.now + STREAM_RTO_TICKS, self._on_rto, conn, seg)

    def _put_on_air(self, conn: StreamConn, seg: StreamSegment) -> None:
        over = self.node.medium.overheads
        length = len(seg.data) + over.stream_bytes + over.link_bytes
        self.node.send_frame(RadioFrame(self.node.node_id, conn.peer, length, seg))

    def _on_rto(self, conn: StreamConn, seg: StreamSegment) -> None:
        if conn.inflight is not seg:
            return
        if conn.retries_left <= 0:
            conn.inflight = None
            conn.state = "CLOSED"
            self.on_failed(conn, "retry-exhausted")
            return
        conn.retries_left -= 1
        self._transmit(conn, seg)

    def _ack_inflight(self, conn: StreamConn) -> None:
        self.node.engine.cancel(conn.rto_event)
        conn.inflight = None

    def _establish(self, conn: StreamConn) -> None:
        conn.state = "ESTABLISHED"
        self.on_established(conn)

    def _send_ctrl(self, conn: StreamConn, kind: str, seq: int = 0) -> None:
        self._put_on_air(conn, StreamSegment(kind, conn.conn_id, seq))

    # -- inbound segments ------------------------------------------------------

    def on_segment(self, src: str, seg: StreamSegment) -> None:
        conn = self.conns.get(seg.conn_id)
        if seg.kind == "syn":
            if conn is None:
                conn = self.conns[seg.conn_id] = StreamConn(seg.conn_id, src, "SYN_RCVD")
            self._send_ctrl(conn, "synack")
        elif conn is None:
            return  # stale segment for a forgotten connection
        elif seg.kind == "synack":  # only ever reaches the opener; a duplicate is re-acked
            self._send_ctrl(conn, "ack", HANDSHAKE_ACK)
            if conn.state == "SYN_SENT":
                self._ack_inflight(conn)
                self._establish(conn)
        else:
            if conn.state == "SYN_RCVD":  # the handshake ACK, or data if that was lost
                self._establish(conn)
            if seg.kind == "ack":
                self._handle_ack(conn, seg)
            else:
                self._handle_data(conn, seg)

    def _handle_ack(self, conn: StreamConn, seg: StreamSegment) -> None:
        inflight = conn.inflight  # never the syn: what is acked here goes out after the synack
        if inflight is None or inflight.seq != seg.seq:
            return  # the handshake ACK, or a stale one
        self._ack_inflight(conn)
        if inflight.kind == "fin":
            conn.state = "CLOSED"
            self.on_closed(conn)
        else:
            self._try_send(conn)

    def _handle_data(self, conn: StreamConn, seg: StreamSegment) -> None:
        if conn.state not in ("ESTABLISHED", "CLOSING"):
            return
        if seg.seq == conn.recv_next:
            conn.recv_next += 1
            self._send_ctrl(conn, "ack", seg.seq)
            if seg.kind == "data":
                self.on_data(conn, seg.data)
            else:
                conn.state = "CLOSED"
                self.on_closed(conn)
        elif seg.seq < conn.recv_next:
            self._send_ctrl(conn, "ack", seg.seq)  # duplicate; re-ack only
