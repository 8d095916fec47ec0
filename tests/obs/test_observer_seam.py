"""The one observer seam, and the records its subscribers keep.

``GatewayWorker`` tells ``observers`` what it did (``on_packet`` /
``on_flush`` / ``on_mode`` / ``on_retire``), every other emitter tells
its own ``observers`` through ``on_event``, and none of them knows
``repro.obs``; ``FlowTracer`` and ``SpanTracker`` subscribe.  These
tests pin the contract from the outside: the stage and event sets are closed, each call's trace events
follow one grammar, the span books balance against the live engines
after every step, what the subscribers retain is invisible to the
garbage collector, and the layering holds (no ``repro.obs`` import below
the harness worlds).
"""

import ast
import gc
import inspect
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.core import (
    EVENTS,
    STAGES,
    Bound,
    GatewayConfig,
    GatewayWorker,
    PXGateway,
    WorkerMode,
    WorkerObserver,
    encode_caravan,
)
from repro.net import Topology
from repro.obs import FlowTracer, Observability, SpanTracker
from repro.packet import PX_CARAVAN_TOS, FlowKey, ICMPMessage, TCPFlags
from repro.packet.builder import build_icmp, build_tcp, build_udp

INSIDE, OUTSIDE = "10.1.0.1", "198.51.100.7"

#: What the tracer may record between ``classify`` and the ``egress`` run.
STAGE_EVENT = {"merge": "merge", "split": "split", "caravan": "caravan-built",
               "caravan-open": "caravan-opened"}


class Checker(WorkerObserver):
    """Asserts the seam's contract on every event (attach it last)."""

    def __init__(self, tracer, spans):
        self.tracer, self.spans = tracer, spans
        self.mark = 0
        self.stages = set()
        self.calls = 0

    def _new_events(self):
        assert self.tracer.dropped == 0
        events = self.tracer.events()[self.mark:]
        self.mark = self.tracer.recorded
        return events

    def _books(self, worker):
        spans = self.spans
        assert spans.balanced and spans.anomalies == 0
        assert spans.pending_merge_bytes() == worker.merge.pending_bytes()
        assert (spans.pending_caravan_datagrams()
                == worker.caravan_merge.pending_packets())

    def on_packet(self, worker, now, ingress_at, packet, size, bound, key,
                  state, stage, outputs):
        self.calls += 1
        assert stage in STAGES
        self.stages.add(stage)
        assert key == packet.flow_key()
        assert (state is None) == (key is None or worker.mode == WorkerMode.BYPASS)
        events = self._new_events()
        kinds = [event["kind"] for event in events]
        expected = ["ingress"] + ["classify"] * (state is not None)
        middle = kinds[len(expected):len(kinds) - len(outputs)]
        assert set(middle) <= {STAGE_EVENT.get(stage)}
        if stage == "merge":
            assert len(middle) == len(outputs)
        elif stage == "split":
            assert len(middle) == (worker.mode != WorkerMode.BYPASS)
        elif stage == "caravan-open":
            assert len(middle) == 1
        assert kinds == expected + middle + ["egress"] * len(outputs)
        assert events[0]["bytes"] == size and events[0]["bound"] == bound
        assert all(event["time"] == now for event in events)
        for event, out in zip(events[len(kinds) - len(outputs):], outputs):
            assert event["bytes"] == out.total_len and event["bound"] == bound
        if stage in ("mss", "hairpin", "forward", "passthrough"):
            assert outputs == [packet]
        elif stage == "malformed-caravan":
            assert outputs == []
        self._books(worker)

    def on_flush(self, worker, now, flushed, batch):
        kinds = [event["kind"] for event in self._new_events()]
        assert kinds == ["flush"] * (batch and bool(flushed)) + ["egress"] * len(flushed)
        self._books(worker)

    def on_mode(self, worker, now, old, new):
        assert worker.mode == old != new
        (event,) = self._new_events()
        assert (event["kind"], event["from_mode"], event["to_mode"]) == (
            "mode-transition", old, new)


# ----------------------------------------------------------------------
# (i) The packet zoo
# ----------------------------------------------------------------------
class Zoo:
    """Builds packets that stay plausible across steps (per-flow seq)."""

    def __init__(self):
        self.seq = {}

    def tcp_in(self, flow, payload, flags=TCPFlags.ACK):
        seq = self.seq.get(flow, 1000)
        self.seq[flow] = seq + payload
        return build_tcp(OUTSIDE, INSIDE, 4000 + flow, 80, payload=b"d" * payload,
                         seq=seq, ack=1, flags=flags), Bound.INBOUND

    def packet(self, action, flow, bound):
        if action == "tcp-data":
            return self.tcp_in(flow, 1448)
        if action == "tcp-fin":
            return self.tcp_in(flow, 100, TCPFlags.ACK | TCPFlags.FIN)
        if action == "tcp-ack":
            return self.tcp_in(flow, 0)
        if action == "tcp-syn":
            return build_tcp(OUTSIDE, INSIDE, 4000 + flow, 80, flags=TCPFlags.SYN,
                             mss=1460), bound
        if action == "tcp-jumbo":
            return build_tcp(INSIDE, OUTSIDE, 80, 4000 + flow, payload=b"j" * 8000,
                             seq=1, ack=1, flags=TCPFlags.ACK), Bound.OUTBOUND
        if action == "udp-small":
            return build_udp(OUTSIDE, INSIDE, 5000 + flow, 53, payload=b"u" * 300), bound
        if action == "caravan":
            inner = [build_udp(INSIDE, OUTSIDE, 53, 5000 + flow, payload=b"c" * 200)
                     for _ in range(3)]
            return encode_caravan(inner), Bound.OUTBOUND
        if action == "garbled-caravan":
            return build_udp(INSIDE, OUTSIDE, 53, 5000 + flow, payload=b"\xff" * 9,
                             tos=PX_CARAVAN_TOS), Bound.OUTBOUND
        assert action == "icmp"
        return build_icmp(OUTSIDE, INSIDE, ICMPMessage.echo_request(1, flow)), bound


PACKETS = ("tcp-data", "tcp-fin", "tcp-ack", "tcp-syn", "tcp-jumbo", "udp-small",
           "caravan", "garbled-caravan", "icmp")

#: From any state, reaches every stage: merge needs NORMAL and an
#: elephant, hairpin a mouse, passthrough DEGRADED, and so on.
TOUR = (
    [("mode", WorkerMode.NORMAL)]
    + [("tcp-data", 9, None)] * 8 + [("tcp-ack", 9, None), ("tcp-syn", 9, Bound.INBOUND)]
    + [("udp-small", 9, Bound.INBOUND)] * 8
    + [("tcp-jumbo", 9, None), ("caravan", 9, None), ("garbled-caravan", 9, None)]
    + [("udp-small", 8, Bound.OUTBOUND), ("icmp", 9, Bound.INBOUND), ("batch",)]
    + [("mode", WorkerMode.DEGRADED), ("tcp-data", 9, None), ("udp-small", 9, Bound.INBOUND)]
    + [("mode", WorkerMode.BYPASS), ("tcp-jumbo", 9, None), ("tcp-syn", 9, Bound.OUTBOUND),
       ("caravan", 9, None), ("tcp-data", 9, None)]
)

steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(PACKETS), st.integers(0, 3),
                  st.sampled_from([Bound.INBOUND, Bound.OUTBOUND])),
        st.tuples(st.just("batch")),
        st.tuples(st.just("mode"), st.sampled_from(WorkerMode.ALL)),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=steps)
def test_every_call_follows_the_event_grammar_and_the_books_balance(steps):
    worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=4))
    tracer, spans = FlowTracer(capacity=1 << 20), SpanTracker()
    checker = Checker(tracer, spans)
    worker.observers = (tracer, spans, checker)
    zoo, now, calls = Zoo(), 0.0, 0
    for step in steps + TOUR:
        now += 2e-4
        if step[0] == "batch":
            worker.end_batch(now)
        elif step[0] == "mode":
            worker.set_mode(step[1], now)
        else:
            packet, bound = zoo.packet(*step)
            worker.process(packet, bound, now)
            calls += 1
    worker.set_mode(WorkerMode.DEGRADED, now)  # flush what is still buffered
    assert checker.calls == calls
    assert checker.stages == STAGES
    assert len(tracer.events("egress")) == worker.stats.tx_packets
    assert len(tracer.events("ingress")) == worker.stats.rx_packets
    assert spans.open_count() == 0
    assert not worker.stats.conservation_errors()


# ----------------------------------------------------------------------
# (ii) Span records are atoms the collector forgets
# ----------------------------------------------------------------------
def test_finished_span_records_are_untracked_after_collection():
    worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=4))
    spans, tracer = SpanTracker(), FlowTracer()
    worker.observers = (spans, tracer)
    zoo, now = Zoo(), 0.0
    for step in TOUR * 3:
        now += 2e-4
        if step[0] == "batch":
            worker.end_batch(now)
        elif step[0] == "mode":
            worker.set_mode(step[1], now)
        else:
            worker.process(*zoo.packet(*step), now)
    key = FlowKey(6, 1, 2, 3, 4)
    sid = spans.open(now, kind="probe", flow=key)
    spans.close(sid, now + 1.0, outcome="report")
    spans.sync_drop(now, now, "no-route", flow=key)
    gc.collect()
    gc.collect()
    assert len(spans.finished()) > 100 and len(tracer._events) > 100
    for ring in (spans._done, tracer._events):
        assert all(type(record) is bytes for record in ring)
        assert not any(gc.is_tracked(record) for record in ring)
    assert {event["flow"] for event in tracer.events("classify")} <= {
        str(span.flow) for span in spans.finished()}
    flows = {type(span.flow) for span in spans.finished()}
    assert flows == {FlowKey, type(None)}
    assert spans.finished("probe")[0].flow == key
    assert {type(span.flow) for span in spans.finished("merged")} == {FlowKey}


def test_non_flowkey_flows_raise_and_the_ring_stays_bounded():
    spans, tracer = SpanTracker(capacity=4), FlowTracer(capacity=4)
    worker = GatewayWorker(GatewayConfig())
    packet, bound = Zoo().tcp_in(0, 1448)
    five = (6, 1, 2, 3, 4)  # shaped like a key, but not one
    for flow in ("flowA", five, 17):
        with pytest.raises(TypeError):
            spans.sync(0.0, 0.5, "forward", flow=flow)
        with pytest.raises(TypeError):
            spans.open(1.0, flow=flow)
        for stage in ("forward", "merge", "split"):
            with pytest.raises(TypeError):
                spans.on_packet(worker, 1.0, None, packet, 0, bound, flow, None, stage, ())
        with pytest.raises(TypeError):
            tracer.on_packet(worker, 1.0, None, packet, 0, bound, flow, None, "forward", ())
    assert (spans.opened, len(spans.finished()), spans.open_count()) == (0, 0, 0)
    assert (tracer.recorded, len(tracer)) == (0, 0)
    # A merged output settles its parent and itself as one two-span entry.
    for _ in range(3):
        spans.sync(0.0, 0.5, "forward", flow=None)
    key = packet.flow_key()
    spans.on_packet(worker, 1.0, None, packet, 0, bound, key, None, "merge", ())
    spans.on_flush(worker, 2.0, [packet], False)
    assert [(s.kind, s.flow, s.outcome) for s in spans.finished()[-2:]] == [
        ("packet", key, "merged"), ("merged", key, "egress")]
    assert len(spans.finished()) == 4 and spans.shed == 1
    assert spans.balanced and spans.closed == 5
    assert f'"flow":"{key}"' in spans.to_jsonl(limit=1)


# ----------------------------------------------------------------------
# (iii) Positional and keyword events in one ring
# ----------------------------------------------------------------------
def test_positional_and_keyword_events_render_alike():
    config = GatewayConfig(elephant_threshold_packets=1, hairpin_small_flows=False)
    seamed, reference = FlowTracer(), FlowTracer()
    worker = GatewayWorker(config, index=3)
    worker.observers = (seamed,)
    zoo = Zoo()
    packet, bound = zoo.tcp_in(0, 1448)
    key = packet.flow_key()

    for tracer in (seamed, reference):
        tracer.on_event(None, 0.5, "stall", gateway="pxgw", until=0.75)
    worker.process(packet, bound, now=1.0)
    reference.on_event(None, 1.0, "ingress", worker=3, bound=bound, proto=6,
                       bytes=packet.total_len, flow=key)
    reference.on_event(None, 1.0, "classify", worker=3, flow=key, elephant=True)
    for tracer in (seamed, reference):
        tracer.on_event(None, 1.5, "pmtud-probe", probe_id=1, dst=0x0A000001, size=9000)
    (merged,) = worker.end_batch(now=2.0)
    reference.on_event(None, 2.0, "flush", worker=3, packets=1)
    reference.on_event(None, 2.0, "egress", worker=3, bound=Bound.INBOUND,
                       bytes=merged.total_len)
    worker.set_mode(WorkerMode.BYPASS, now=3.0)
    reference.on_event(None, 3.0, "mode-transition", worker=3,
                       from_mode="normal", to_mode="bypass")

    assert seamed._events == reference._events  # the same records, byte for byte
    assert seamed.events() == reference.events()
    assert seamed.events()[1]["flow"] == str(key)
    assert seamed.events("ingress") == reference.events("ingress")
    assert seamed.kinds() == reference.kinds()
    assert seamed.to_json() == reference.to_json()
    assert (seamed.recorded, len(seamed)) == (reference.recorded, 7)


# ----------------------------------------------------------------------
# (iv) Empty by default; nothing below the harness worlds knows obs
# ----------------------------------------------------------------------
def drive_every_emitter(subscriber=None):
    """A bare world that makes every emitter say everything it can say.

    Self-contained (its own imports, nothing from ``repro.obs``) so the
    import-hygiene test can run its source in a fresh interpreter.
    """
    from repro.core import Bound, GatewayConfig, GatewayWorker, PXGateway
    from repro.net import Topology
    from repro.packet.builder import build_tcp
    from repro.pmtud import FPmtudDaemon, FPmtudProber
    from repro.pmtud.fpmtud import _pack_report

    def subscribe(*emitters):
        for emitter in emitters:
            assert emitter.observers == ()
            if subscriber is not None:
                emitter.observers = (subscriber,)

    def segment(flow):
        return build_tcp("198.51.100.7", "10.1.0.1", 4000 + flow, 80, payload=b"x" * 1000)

    worker = GatewayWorker(GatewayConfig())
    worker.process(segment(0), Bound.INBOUND, 0.0)
    worker.end_batch(1.0)
    worker.set_mode("bypass", 1.0)
    worker.retire(1.0)

    # One border: a stall (health excursion and back), a probe answered,
    # a probe nobody answers, a forged report, an unroutable packet, a
    # peer that takes jumbos whole.
    topo = Topology()
    inside, outside = topo.add_host("inside"), topo.add_host("outside")
    gateway = PXGateway(topo.sim, "pxgw", config=GatewayConfig())
    topo.add_node(gateway)
    topo.link(inside, gateway, mtu=9000)
    topo.link(gateway, outside, mtu=1500)
    topo.build_routes()
    inside.routes.add_default(inside.interfaces[0])
    gateway.mark_internal(gateway.interfaces[0])
    monitor = gateway.enable_resilience()
    FPmtudDaemon(outside)
    prober = FPmtudProber(inside)
    unanswered = FPmtudProber(inside, src_port=52001, daemon_port=9)
    subscribe(gateway, monitor, prober, unanswered)
    results = []
    prober.probe(outside.ip, 9000, results.append)
    unanswered.probe(outside.ip, 1400, results.append, timeout=0.2)
    outside.send_udp(inside.ip, 7837, 52000, _pack_report(4242, [1400]))
    inside.send_udp(0xCB007109, 9, 9, b"nowhere")
    topo.sim.schedule_at(0.05, gateway.stall, 0.1)
    topo.run(until=1.0)
    gateway.set_neighbor_imtu(gateway.interfaces[1], 9000)
    inside.send_udp(outside.ip, 9, 9, b"whole")
    topo.run(until=1.1)
    assert len(results) == 1 and prober.rejected_reports == unanswered.timeouts == 1
    assert len(monitor.transitions) >= 2 and gateway.untranslated == gateway.dropped == 1


def test_unobserved_core_never_loads_obs():
    assert GatewayWorker(GatewayConfig()).observers == ()
    script = (
        "import sys\n"
        "import repro.core, repro.net, repro.sim, repro.tcpstack\n"
        "import repro.pmtud, repro.resilience, repro.fleet\n"
        + inspect.getsource(drive_every_emitter)
        + "drive_every_emitter()\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.obs'))\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={"PYTHONPATH": ":".join(sys.path)})


#: The packages the seam keeps free of ``repro.obs``; ``fleet/chaos.py``
#: is a harness world, like ``chaos/``, ``ops/`` and ``cli.py``.
LAYERED = ("core", "net", "sim", "tcpstack", "pmtud", "resilience", "fleet")


def test_one_lazy_obs_import_below_the_harness_worlds():
    root = pathlib.Path(repro.__file__).parent
    found = []
    for package in LAYERED:
        for path in sorted((root / package).glob("*.py")):
            if (package, path.name) == ("fleet", "chaos.py"):
                continue
            tree = ast.parse(path.read_text())
            enclosing = {node: scope.name
                         for scope in ast.walk(tree)
                         if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                         for node in ast.walk(scope)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = ["repro", package][:3 - node.level] if node.level else []
                    module = ".".join(base + [node.module] * bool(node.module))
                    names = [module] + [f"{module}.{alias.name}" for alias in node.names]
                else:
                    continue
                if any(name == "repro.obs" or name.startswith("repro.obs.")
                       for name in names):
                    found.append((f"{package}/{path.name}", enclosing.get(node)))
    assert found == [("core/gateway.py", "attach_observability")]


class Counting(WorkerObserver):
    """Counts what it hears; subscribes to anything."""

    def __init__(self):
        self.packets = 0
        self.heard = {}  # kind -> [(emitter class name, fields)]

    def on_packet(self, *event):
        self.packets += 1

    def on_event(self, source, now, kind, **fields):
        self.heard.setdefault(kind, []).append((type(source).__name__, fields))


def test_a_bare_world_says_the_closed_set_of_events():
    counting = Counting()
    drive_every_emitter(counting)
    assert set(counting.heard) == EVENTS
    # Who says what, with which fields: the table in docs/OBSERVABILITY.md.
    shapes = {kind: {(who, tuple(sorted(fields))) for who, fields in heard}
              for kind, heard in counting.heard.items()}
    assert shapes == {
        "no-route": {("PXGateway", ("ingress_at",))},
        "untranslated": {("PXGateway", ("ingress_at",))},
        "gateway-passthrough": {("PXGateway", ("ingress_at",))},
        "stall": {("PXGateway", ("gateway", "until"))},
        "stall-drain": {("PXGateway", ("gateway", "queued"))},
        "health-transition": {
            ("HealthMonitor", ("from_state", "gateway", "reason", "to_state"))},
        "pmtud-probe": {("FPmtudProber", ("dst", "probe_id", "size"))},
        "pmtud-report": {("FPmtudProber", ("elapsed", "fragments", "pmtu", "probe_id"))},
        "pmtud-report-rejected": {("FPmtudProber", ("pmtu", "probe_id", "reason"))},
        "pmtud-timeout": {("FPmtudProber", ("probe_id",))},
    }
    assert {fields["gateway"] for _who, fields in counting.heard["health-transition"]} == {
        "pxgw"}


def _border():
    topo = Topology()
    gateway = PXGateway(topo.sim, "pxgw", config=GatewayConfig())
    topo.add_node(gateway)
    return gateway


def test_attach_queues_behind_earlier_subscribers():
    # attach_observability used to *replace* worker.observers: a checker
    # subscribed before the bundle silently stopped hearing anything.
    gateway = _border()
    early = Counting()
    gateway.worker.observers += (early,)
    obs = gateway.attach_observability(
        Observability(tracer=FlowTracer(), spans=SpanTracker()))
    assert gateway.worker.observers == (early, obs.tracer, obs.spans)
    assert gateway.observers == (obs.tracer, obs.spans)
    # A monitor enabled later hears what the gateway hears; one enabled
    # earlier is subscribed by the attach.
    assert gateway.enable_resilience().observers == (obs.tracer, obs.spans)
    late = _border()
    monitor = late.enable_resilience()
    late.attach_observability(obs)
    assert monitor.observers == late.observers == (obs.tracer, obs.spans)
    gateway.worker.process(*Zoo().tcp_in(0, 100), 0.0)
    assert early.packets == 1 and len(obs.tracer.events("ingress")) == 1


def test_attaching_a_bundle_twice_changes_nothing():
    # ... and used to register observe_gateway's collector a second time.
    gateway = _border()
    obs = Observability(tracer=FlowTracer(), spans=SpanTracker())
    assert len(obs.registry._collectors) == 1  # the span tracker's
    for _ in range(2):
        assert gateway.attach_observability(obs) is obs
        assert gateway.worker.observers == gateway.observers == (obs.tracer, obs.spans)
        assert len(obs.registry._collectors) == 2
    # Per (bundle, gateway): the same bundle still attaches elsewhere, and
    # another bundle here, each once.
    other = _border()
    other.attach_observability(obs)
    assert other.worker.observers == (obs.tracer, obs.spans)
    assert len(obs.registry._collectors) == 3
    second = Observability(spans=SpanTracker())
    for _ in range(2):
        gateway.attach_observability(second)
    assert gateway.worker.observers == (obs.tracer, obs.spans, second.spans)
    assert len(second.registry._collectors) == 2


def test_handshake_spans_carry_their_flow_in_every_mode():
    # NORMAL and DEGRADED used to close the SYN's span without a flow, so
    # a per-flow journey never showed the handshake hop.
    for mode in WorkerMode.ALL:
        worker = GatewayWorker(GatewayConfig())
        spans = SpanTracker()
        worker.observers = (spans,)
        worker.set_mode(mode, 0.0)
        syn, bound = Zoo().packet("tcp-syn", 0, Bound.INBOUND)
        worker.process(syn, bound, 1.0)
        (span,) = spans.finished()
        assert span.stage == "mss"
        assert span.flow == syn.flow_key() and type(span.flow) is FlowKey
        assert f'"flow":"{syn.flow_key()}"' in spans.to_jsonl()
