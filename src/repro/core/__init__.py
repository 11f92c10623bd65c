"""DIVOT core: the paper's primary contribution.

The integrated TDR (comparator + APC + PDM + ETS + trigger), fingerprint
enrollment and storage, similarity/ROC/EER authentication math, tamper
detection with localisation, the endpoint/channel state machines of the
calibration-monitoring-reaction protocol, and the hardware overhead and
latency models.
"""

from .adaptive import AdaptiveReference, MultiConditionAuthenticator
from .apc import APCConverter, MixtureCdfInverter, apc_sensitivity
from .auth import (
    AuthDecision,
    Authenticator,
    RocCurve,
    capture_similarity,
    equal_error_rate,
    error_function,
    roc_curve,
    similarity,
)
from .comparator import Comparator
from .config import (
    PROTOTYPE_N_LINES,
    PROTOTYPE_N_MEASUREMENTS,
    prototype_itdr,
    prototype_itdr_config,
    prototype_line_factory,
)
from .divot import (
    Action,
    ChannelStepResult,
    DivotChannel,
    DivotEndpoint,
    EndpointState,
    MonitorResult,
)
from .ets import ETSSampler, PhaseSteppingPLL
from .fingerprint import Fingerprint, FingerprintROM
from .faults import (
    FaultInjector,
    FaultSpec,
    FleetDispatchError,
    RetryPolicy,
    ShardHealth,
)
from .fleet import (
    FleetIdentifyOutcome,
    FleetIdentifyRecord,
    FleetRecord,
    FleetScanExecutor,
    FleetScanOutcome,
    available_workers,
    partition_fleet,
    spawn_bus_streams,
)
from .identify import (
    FingerprintStore,
    IdentifyResult,
    SketchSpec,
    TemplateVersion,
    UpdatePolicy,
)
from .itdr import IIPCapture, ITDR, ITDRConfig, MeasurementBudget
from .latency import LatencyModel, LatencyPoint
from .solvecache import SolveCache, process_solve_cache
from .manager import ScanOutcome, SharedITDRManager
from .multiwire import (
    FUSION_POLICIES,
    MultiWireAuthenticator,
    MultiWireDecision,
)
from .pdm import PDMScheme, TriangleWave, VernierRelation
from .resources import XCZU7EV, ResourceModel, ResourceReport, RTLBlock
from .runtime import (
    Cadence,
    EventLog,
    MonitorEvent,
    MonitorRuntime,
    PeriodicCadence,
    RoundRobinCadence,
    Telemetry,
    TriggerBudgetCadence,
)
from .tamper import TamperDetector, TamperVerdict, calibrate_threshold
from .trigger import TriggerGenerator, trigger_rate

__all__ = [
    "Comparator",
    "APCConverter",
    "MixtureCdfInverter",
    "apc_sensitivity",
    "PDMScheme",
    "TriangleWave",
    "VernierRelation",
    "ETSSampler",
    "PhaseSteppingPLL",
    "TriggerGenerator",
    "trigger_rate",
    "ITDR",
    "ITDRConfig",
    "IIPCapture",
    "MeasurementBudget",
    "Fingerprint",
    "FingerprintROM",
    "FingerprintStore",
    "IdentifyResult",
    "SketchSpec",
    "TemplateVersion",
    "UpdatePolicy",
    "similarity",
    "capture_similarity",
    "error_function",
    "roc_curve",
    "RocCurve",
    "equal_error_rate",
    "Authenticator",
    "AuthDecision",
    "TamperDetector",
    "TamperVerdict",
    "calibrate_threshold",
    "DivotEndpoint",
    "DivotChannel",
    "ChannelStepResult",
    "FaultInjector",
    "FaultSpec",
    "FleetDispatchError",
    "RetryPolicy",
    "ShardHealth",
    "FleetIdentifyOutcome",
    "FleetIdentifyRecord",
    "FleetRecord",
    "FleetScanExecutor",
    "FleetScanOutcome",
    "available_workers",
    "partition_fleet",
    "spawn_bus_streams",
    "SolveCache",
    "process_solve_cache",
    "EndpointState",
    "Action",
    "MonitorResult",
    "ResourceModel",
    "ResourceReport",
    "RTLBlock",
    "XCZU7EV",
    "LatencyModel",
    "LatencyPoint",
    "MultiWireAuthenticator",
    "MultiWireDecision",
    "FUSION_POLICIES",
    "SharedITDRManager",
    "ScanOutcome",
    "Cadence",
    "PeriodicCadence",
    "TriggerBudgetCadence",
    "RoundRobinCadence",
    "EventLog",
    "MonitorEvent",
    "MonitorRuntime",
    "Telemetry",
    "AdaptiveReference",
    "MultiConditionAuthenticator",
    "PROTOTYPE_N_MEASUREMENTS",
    "PROTOTYPE_N_LINES",
    "prototype_line_factory",
    "prototype_itdr_config",
    "prototype_itdr",
]
