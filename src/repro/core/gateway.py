"""PXGateway: the simulator-facing MTU-translating border middlebox.

A PXGateway is a Router whose forwarding path runs every packet through
a :class:`GatewayWorker` pipeline.  The crossing direction is derived
from the routing decision: egress on an interface marked *internal*
means the packet is entering the b-network (merge up), anything else is
leaving it (split down).

Two §4.2 extensions are included:

* **Explicit iMTU advertisement** — a neighbor interface can be taught
  the peer network's iMTU (``set_neighbor_imtu``).  When the peer's
  iMTU is at least ours, packets cross untranslated (no split), and
  caravans are forwarded intact.
* **F-PMTUD probe passthrough** — probes to :data:`FPMTUD_PORT` are
  forwarded without caravan merging, as F-PMTUD requires.
"""

from __future__ import annotations

from typing import Optional, Set

from ..net.router import Router
from ..sim.engine import Simulator
from ..sim.node import Interface
from ..packet import IPProto, Packet
from .config import Bound, GatewayConfig
from .worker import GatewayWorker

__all__ = ["PXGateway", "FPMTUD_PORT"]

#: The well-known UDP port the F-PMTUD daemon listens on.
FPMTUD_PORT = 7837


class PXGateway(Router):
    """An MTU-translating gateway at the border of a b-network."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: Optional[GatewayConfig] = None,
    ):
        super().__init__(sim, name)
        self.config = config or GatewayConfig()
        self.worker = GatewayWorker(self.config)
        self._internal: Set[int] = set()  # ids of internal interfaces
        self._neighbor_imtu: dict = {}
        self._flush_handle = None
        self.passthrough_udp_ports: Set[int] = {FPMTUD_PORT}
        self.untranslated = 0
        self._imtu_speaker = None
        self._stall_until = 0.0
        self._stalled: list = []
        self._local_udp: dict = {}
        self.health = None
        self.negotiator = None
        self.pmtu_cache = None
        #: Subscribers (:class:`~repro.core.worker.WorkerObserver`) told,
        #: through ``on_event``, of stalls and the packets settled ahead
        #: of the worker; empty by default.
        self.observers = ()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def mark_internal(self, interface: Interface) -> None:
        """Declare *interface* as facing the b-network (iMTU side)."""
        if interface not in self.interfaces:
            raise ValueError("interface does not belong to this gateway")
        self._internal.add(id(interface))

    def is_internal(self, interface: Interface) -> bool:
        """True if *interface* faces the b-network."""
        return id(interface) in self._internal

    def set_neighbor_imtu(self, interface: Interface, imtu: int) -> None:
        """Record an explicitly advertised neighbor iMTU (§4.2)."""
        self._neighbor_imtu[id(interface)] = imtu

    def clear_neighbor_imtu(self, interface: Interface) -> None:
        """Forget a neighbor's iMTU (expiry: fall back to translation)."""
        self._neighbor_imtu.pop(id(interface), None)

    def neighbor_imtu(self, interface: Interface) -> Optional[int]:
        """The advertised iMTU of the network behind *interface*."""
        return self._neighbor_imtu.get(id(interface))

    def enable_imtu_exchange(self, interval: float = 30.0,
                             hold_time: float = 90.0) -> "ImtuSpeaker":
        """Run the §4.2 iMTU exchange protocol on this gateway."""
        from .imtu_exchange import ImtuSpeaker

        self._imtu_speaker = ImtuSpeaker(self, interval=interval, hold_time=hold_time)
        self._imtu_speaker.start()
        return self._imtu_speaker

    # ------------------------------------------------------------------
    # Resilience layer
    # ------------------------------------------------------------------
    def register_local_udp(self, port: int, handler) -> None:
        """Route locally-addressed UDP on *port* to *handler*.

        *handler* is called as ``handler(packet, interface)``; used by
        control protocols the gateway itself speaks (caravan capability
        negotiation, etc.).
        """
        self._local_udp[port] = handler

    def enable_resilience(self, negotiation: bool = False):
        """Attach the resilience layer: health monitor, PMTU cache, and
        (optionally) caravan capability negotiation.

        Returns the started :class:`repro.resilience.HealthMonitor`.
        """
        from ..resilience.health import HealthMonitor
        from ..resilience.negotiation import CaravanNegotiator

        self.attach_pmtu_cache()
        if negotiation and self.negotiator is None:
            self.negotiator = CaravanNegotiator(
                self,
                positive_ttl=self.config.caravan_positive_ttl,
                negative_ttl=self.config.caravan_negative_ttl,
            )
            self.worker.caravan_gate = self.negotiator.allow_caravan
        self.health = HealthMonitor(self).start()
        self.health.observers = self.observers
        return self.health

    def attach_pmtu_cache(self, cache=None):
        """Install a live PMTU cache, flushed on any routing change."""
        if cache is None:
            if self.pmtu_cache is not None:
                return self.pmtu_cache
            from ..resilience.pmtu_cache import PmtuCache

            cache = PmtuCache()
        self.pmtu_cache = cache
        self.worker.pmtu_cache = cache
        cache.watch(self.routes)
        return cache

    def attach_observability(self, obs=None):
        """Attach a metrics registry (and optional tracer) bundle.

        Registers the gateway's scrape-time collectors on the bundle's
        registry and subscribes its tracer and span tracker to the
        gateway, its live worker and its health monitor, after whatever
        is subscribed already; attaching a bundle again changes nothing.
        With no argument a fresh metrics-only bundle is created.
        Returns the attached :class:`repro.obs.Observability`.
        """
        from ..obs import Observability

        if obs is None:
            obs = Observability()
        obs.attach(self)
        return obs

    # ------------------------------------------------------------------
    # Fault injection: worker stalls
    # ------------------------------------------------------------------
    def stall(self, duration: float) -> None:
        """Freeze the datapath for *duration* seconds (chaos testing).

        Arriving packets queue in arrival order and are processed in one
        burst when the stall ends — the simulation analogue of a worker
        core descheduled or stuck on a slow control-plane operation.
        """
        if duration <= 0:
            return
        until = self.sim.now + duration
        if until <= self._stall_until:
            return
        self._stall_until = until
        for observer in self.observers:
            observer.on_event(self, self.sim.now, "stall", gateway=self.name, until=until)
        self.sim.schedule(duration, self._drain_stalled)

    def _drain_stalled(self) -> None:
        if self.sim.now < self._stall_until:
            return  # superseded by a longer stall; its drain will run
        stalled, self._stalled = self._stalled, []
        for observer in self.observers:
            observer.on_event(
                self, self.sim.now, "stall-drain",
                gateway=self.name, queued=len(stalled),
            )
        for packet, interface, queued_at in stalled:
            self._process(packet, interface, ingress_at=queued_at)
        # The flush timer stayed silent for the whole stall window (see
        # _on_flush_timer); flush whatever aged past the merge timeout
        # exactly once, then let the timer re-arm normally.
        if self._flush_handle is None and self.worker.pending():
            self._on_flush_timer()

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, interface: Interface) -> None:
        if self.sim.now < self._stall_until:
            self._stalled.append((packet, interface, self.sim.now))
            return
        self._process(packet, interface)

    def _process(
        self, packet: Packet, interface: Interface, ingress_at: float = None
    ) -> None:
        ip = packet.ip
        if ip.dst in self._if_by_ip:
            if self._imtu_speaker is not None and self._imtu_speaker.handle(
                packet, interface
            ):
                return
            if packet.is_udp and not packet.is_fragment:
                handler = self._local_udp.get(packet.udp.dst_port)
                if handler is not None:
                    handler(packet, interface)
                    return
            self._deliver_local(packet, interface)
            return

        route = self.routes.lookup(ip.dst)
        if route is None:
            self.dropped += 1
            for observer in self.observers:
                observer.on_event(self, self.sim.now, "no-route", ingress_at=ingress_at)
            return
        egress = route.interface

        if id(egress) in self._internal:
            bound = Bound.INBOUND
        elif (imtu := self._neighbor_imtu.get(id(egress))) is not None and imtu >= self.config.imtu:
            # Peer b-network advertised an equal-or-larger iMTU: forward
            # large packets and caravans untranslated.
            self.untranslated += 1
            for observer in self.observers:
                observer.on_event(self, self.sim.now, "untranslated", ingress_at=ingress_at)
            self.forward(packet, interface, route)
            return
        else:
            bound = Bound.OUTBOUND

        # Passthrough only ever applies to UDP (probes/fragments), so
        # gate the check on the protocol byte before paying for a call.
        if ip.protocol == IPProto.UDP and self._is_passthrough(packet):
            for observer in self.observers:
                observer.on_event(
                    self, self.sim.now, "gateway-passthrough", ingress_at=ingress_at
                )
            self.forward(packet, interface, route)
            return

        worker = self.worker
        dst = ip.dst
        for out in worker.process(
            packet, bound, now=self.sim.now, ingress_at=ingress_at
        ):
            # The route just looked up serves every output headed where
            # the input was; a segment of another flow, flushed because
            # this packet evicted its merge context, looks up its own.
            self.forward(out, interface, route if out.ip.dst == dst else None)
        # _ensure_flush_timer inlined: two extra calls per packet
        # otherwise (the method plus worker.pending()).
        if self._flush_handle is None and (
            worker.merge._pending_bytes != 0
            or worker.caravan_merge._pending_packets != 0
        ):
            self._flush_handle = self.sim.schedule(
                self.config.merge_timeout, self._on_flush_timer
            )

    def _is_passthrough(self, packet: Packet) -> bool:
        """F-PMTUD probes (and their fragments) skip caravan merging."""
        if not packet.is_udp:
            return False
        if packet.is_fragment:
            return True  # fragments cannot be merged; forward as-is
        return packet.udp.dst_port in self.passthrough_udp_ports

    # ------------------------------------------------------------------
    # Delayed-merge timer
    # ------------------------------------------------------------------
    def _ensure_flush_timer(self) -> None:
        if self._flush_handle is not None:
            return
        if not self.worker.pending():
            return
        self._flush_handle = self.sim.schedule(self.config.merge_timeout, self._on_flush_timer)

    def _on_flush_timer(self) -> None:
        self._flush_handle = None
        if self.sim.now < self._stall_until:
            # The datapath is frozen: flushing now would emit packets
            # mid-stall, and re-arming would tick fruitlessly for the
            # whole window.  _drain_stalled flushes once on resume.
            return
        for out in self.worker.end_batch(self.sim.now):
            self.forward(out)
        self._ensure_flush_timer()

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """The worker's gateway statistics."""
        return self.worker.stats
