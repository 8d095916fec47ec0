"""Cross-shard trace-context propagation for fleet worlds.

A flow's journey through a sharded fleet is decided in four places:
the first :class:`~repro.fleet.steering.FleetSteering` cache miss
(**ingress**), any later fresh decision that lands on a different
shard (**handoff**), checkpoint rebalance after a shard loss
(**rebalance**), and failover adoption (**adoption**).  Each of
those places stamps a *hop* onto the flow's :class:`TraceContext`, so
the per-shard :class:`~repro.obs.spans.SpanTracker` rings — which now
carry flow attribution — reconcile into one end-to-end journey.

Design constraints, in order:

* **Zero cost on the hot path.**  Steering announces only cache
  *misses* (the slow path that already walks the rendezvous ring);
  cached steering decisions pay nothing.  Hops are plain dict
  appends — no RNG, no sim events — so the 56 fleet-loss digests stay
  byte-identical with propagation attached.
* **Deterministic identity.**  ``trace_id`` is a pure function of the
  flow's Toeplitz hash and the world seed (SplitMix64-mixed), never a
  random draw, so two same-seed processes mint identical ids.
* **Verifiable.**  :meth:`TracePropagation.verify` cross-checks the
  hop chain against the steering table and the per-shard span rings;
  the incident-bundle teeth test corrupts propagation and watches this
  check fail.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..core.worker import WorkerObserver
from ..nic.rss import flow_hash, mix64

__all__ = ["TraceContext", "TracePropagation"]


class TraceContext:
    """One flow's causal journey: a trace id plus an ordered hop chain."""

    __slots__ = ("trace_id", "flow", "hops")

    def __init__(self, trace_id: str, flow) -> None:
        self.trace_id = trace_id
        self.flow = flow
        self.hops: List[Dict[str, Any]] = []

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "flow": str(self.flow),
            "hops": list(self.hops),
        }


class TracePropagation(WorkerObserver):
    """Mints trace contexts at fleet ingress and records shard hops.

    Subscribe it to a fleet with :meth:`attach` (steering decisions and
    rebalances), or add it to a
    :class:`~repro.resilience.failover.FailoverManager`'s ``observers``
    to record takeover adoptions in a single world.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._seed_mix = mix64(self.seed ^ 0x7C0FFEE5)
        self.contexts: Dict[Any, TraceContext] = {}
        self.ingresses = 0
        self.handoffs = 0
        self.rebalances = 0
        self.adoptions = 0

    def attach(self, fleet) -> "TracePropagation":
        """Subscribe to *fleet* and its steering stage; returns ``self``."""
        fleet.observers += (self,)
        fleet.steering.observers += (self,)
        return self

    def on_event(self, source, now, kind, **fields) -> None:
        if kind == "steering-decision":
            self.decision(fields["flow"], fields["shard"], now)
        elif kind == "rebalance":
            self.rebalance(fields["flow"], fields["src"], fields["dst"], now,
                           reason=fields["reason"])
        elif kind == "failover-takeover":
            for record in fields["flows"]:
                self.adopt(record[0], fields["to_worker"], now,
                           reason=fields["reason"])

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def trace_id(self, flow) -> str:
        """Deterministic 64-bit trace id for ``flow`` under this seed."""
        return format(mix64(flow_hash(flow) ^ self._seed_mix), "016x")

    def _context(self, flow) -> TraceContext:
        ctx = self.contexts.get(flow)
        if ctx is None:
            ctx = TraceContext(self.trace_id(flow), flow)
            self.contexts[flow] = ctx
        return ctx

    def _hop(self, ctx: TraceContext, time: float, shard, kind: str,
             detail: Optional[str] = None) -> None:
        seq = len(ctx.hops)
        ctx.hops.append({
            "seq": seq,
            "parent": seq - 1 if seq else None,
            "time": time,
            "shard": shard,
            "kind": kind,
            "detail": detail,
        })

    # ------------------------------------------------------------------
    # hop recorders
    # ------------------------------------------------------------------

    def decision(self, flow, shard: int, time: float) -> None:
        """A fresh steering decision: ingress, or a cross-shard handoff.

        One that lands where the flow's last hop already is (the fleet
        announces a rebalance ahead of steering) adds nothing.
        """
        ctx = self.contexts.get(flow)
        if ctx is None:
            ctx = self._context(flow)
            self._hop(ctx, time, shard, "ingress")
            self.ingresses += 1
        elif ctx.hops and ctx.hops[-1]["shard"] != shard:
            self._hop(ctx, time, shard, "handoff")
            self.handoffs += 1

    def rebalance(self, flow, src: int, dst: int, time: float,
                  reason: str = "shard-loss") -> None:
        """Checkpoint rebalance moved ``flow`` from ``src`` to ``dst``."""
        ctx = self._context(flow)
        if not ctx.hops:
            self._hop(ctx, time, src, "ingress", detail="checkpointed")
            self.ingresses += 1
        self._hop(ctx, time, dst, "rebalance", detail=f"{reason}:shard{src}")
        self.rebalances += 1

    def adopt(self, flow, shard, time: float,
              reason: str = "failover") -> None:
        """A standby worker adopted ``flow`` from a checkpoint."""
        ctx = self._context(flow)
        self._hop(ctx, time, shard, "adoption", detail=reason)
        self.adoptions += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def journey(self, flow) -> Optional[Dict[str, Any]]:
        ctx = self.contexts.get(flow)
        return None if ctx is None else ctx.to_dict()

    def reconstruct(self, flow, trackers: Optional[Dict[Any, Any]] = None
                    ) -> Optional[Dict[str, Any]]:
        """Journey plus the flow's finished spans from each shard ring.

        ``trackers`` maps shard id → :class:`SpanTracker`; only spans
        whose ``flow`` attribution matches are pulled in, so the result
        is the end-to-end record the bundle cites.
        """
        journey = self.journey(flow)
        if journey is None:
            return None
        spans: Dict[str, List[dict]] = {}
        for shard_id in sorted((trackers or {}), key=str):
            tracker = trackers[shard_id]
            matched = [span.to_dict() for span in tracker.finished()
                       if span.flow == flow]
            if matched:
                spans[str(shard_id)] = matched
        journey["spans"] = spans
        return journey

    def verify(self, flows: Sequence, owner_of=None,
               trackers: Optional[Dict[Any, Any]] = None) -> List[str]:
        """Cross-check hop chains; returns human-readable problems.

        Checks, per flow: a context exists; the parent chain is intact;
        the last hop agrees with the steering table's current owner
        (``owner_of`` — a non-perturbing peek); and every shard whose
        span ring holds spans for the flow appears somewhere in the hop
        chain.  An empty list means the propagation is consistent.
        """
        problems: List[str] = []
        for flow in flows:
            label = str(flow)
            ctx = self.contexts.get(flow)
            if ctx is None or not ctx.hops:
                problems.append(f"no trace context for flow {label}")
                continue
            for index, hop in enumerate(ctx.hops):
                want = index - 1 if index else None
                if hop["seq"] != index or hop["parent"] != want:
                    problems.append(
                        f"broken parent chain at hop {index} for flow {label}"
                    )
                    break
            if owner_of is not None:
                owner = owner_of(flow)
                last = ctx.hops[-1]["shard"]
                if isinstance(last, int) and owner != last:
                    problems.append(
                        f"last hop shard {last} != steering owner {owner} "
                        f"for flow {label}"
                    )
            if trackers:
                hop_shards = {hop["shard"] for hop in ctx.hops}
                for shard_id, tracker in trackers.items():
                    if shard_id in hop_shards:
                        continue
                    if any(span.flow == flow for span in tracker.finished()):
                        problems.append(
                            f"spans on shard {shard_id} but no hop "
                            f"for flow {label}"
                        )
        return problems

    def summary(self) -> Dict[str, int]:
        return {
            "contexts": len(self.contexts),
            "ingresses": self.ingresses,
            "handoffs": self.handoffs,
            "rebalances": self.rebalances,
            "adoptions": self.adoptions,
        }
