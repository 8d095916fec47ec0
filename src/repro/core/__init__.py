"""PacketExpress core: the PXGW MTU-translating gateway."""

from .caravan import (
    CaravanMergeEngine,
    CaravanSplitEngine,
    caravan_inner_count,
    decode_caravan,
    encode_caravan,
    is_caravan,
)
from .config import Bound, GatewayConfig
from .dispatch import GatewayDatapath
from .flow_table import FlowState, FlowTable
from .gateway import FPMTUD_PORT, PXGateway
from .imtu_exchange import IMTU_EXCHANGE_PORT, ImtuSpeaker
from .mss_clamp import MssClamp
from .stats import GatewayStats
from .tcp_merge import TcpMergeEngine
from .tcp_split import TcpSplitEngine
from .worker import EVENTS, STAGES, GatewayWorker, WorkerMode, WorkerObserver

__all__ = [
    "GatewayConfig",
    "Bound",
    "PXGateway",
    "FPMTUD_PORT",
    "ImtuSpeaker",
    "IMTU_EXCHANGE_PORT",
    "GatewayDatapath",
    "GatewayWorker",
    "WorkerMode",
    "WorkerObserver",
    "STAGES",
    "EVENTS",
    "GatewayStats",
    "FlowTable",
    "FlowState",
    "MssClamp",
    "TcpMergeEngine",
    "TcpSplitEngine",
    "CaravanMergeEngine",
    "CaravanSplitEngine",
    "encode_caravan",
    "decode_caravan",
    "caravan_inner_count",
    "is_caravan",
]
