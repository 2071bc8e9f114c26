"""Fault injection framework: the paper's primary contribution."""

from repro.core.faults.campaign import (
    Campaign,
    CampaignResult,
    ExperimentResult,
    InferenceCampaign,
)
from repro.core.faults.comm import (
    COMM,
    LINK_SITE,
    CommFaultInjector,
    injector_for,
)
from repro.core.faults.hardware import (
    FORWARD,
    INPUT_GRAD,
    SITE_KINDS,
    WEIGHT_GRAD,
    HardwareFault,
    OpSite,
    enumerate_sites,
    sample_fault,
)
from repro.core.faults.injector import FaultInjector, UpdateFaultInjector
from repro.core.faults.multi import (
    MultiFaultInjector,
    expected_faults_per_run,
    sample_spread_faults,
)
from repro.core.faults.software_models import (
    GLOBAL_GROUP_MODELS,
    DatapathBitFlip,
    FaultRecord,
    LocalControlFault,
    PrecisionConfigFault,
    SoftwareFaultModel,
    all_model_names,
    model_for_ff,
)
from repro.core.faults.validation import ValidationSummary, run_validation

__all__ = [
    "COMM",
    "FORWARD",
    "GLOBAL_GROUP_MODELS",
    "INPUT_GRAD",
    "LINK_SITE",
    "SITE_KINDS",
    "WEIGHT_GRAD",
    "Campaign",
    "CampaignResult",
    "CommFaultInjector",
    "DatapathBitFlip",
    "ExperimentResult",
    "FaultInjector",
    "FaultRecord",
    "HardwareFault",
    "InferenceCampaign",
    "LocalControlFault",
    "MultiFaultInjector",
    "OpSite",
    "PrecisionConfigFault",
    "SoftwareFaultModel",
    "UpdateFaultInjector",
    "ValidationSummary",
    "all_model_names",
    "enumerate_sites",
    "expected_faults_per_run",
    "injector_for",
    "model_for_ff",
    "run_validation",
    "sample_spread_faults",
    "sample_fault",
]
