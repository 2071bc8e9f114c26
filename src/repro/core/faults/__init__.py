"""Fault injection framework: the paper's primary contribution."""

from repro.core.faults.campaign import (
    Campaign,
    CampaignResult,
    ExperimentResult,
    InferenceCampaign,
)
from repro.core.faults.hardware import (
    COMM,
    FORWARD,
    INPUT_GRAD,
    LINK_SITE,
    SITE_KINDS,
    WEIGHT_GRAD,
    WEIGHT_UPDATE,
    HardwareFault,
    OpSite,
    enumerate_sites,
    sample_fault,
)
from repro.core.faults.injector import FaultInjector
from repro.core.faults.multi import (
    expected_faults_per_run,
    sample_spread_faults,
)
from repro.core.faults.software_models import (
    TABLE1,
    FaultRecord,
    PinnedMagnitude,
    SoftwareFaultModel,
    all_model_names,
    model_for_ff,
)
from repro.core.faults.validation import ValidationSummary, run_validation

__all__ = [
    "COMM",
    "FORWARD",
    "INPUT_GRAD",
    "LINK_SITE",
    "SITE_KINDS",
    "TABLE1",
    "WEIGHT_GRAD",
    "WEIGHT_UPDATE",
    "Campaign",
    "CampaignResult",
    "ExperimentResult",
    "FaultInjector",
    "FaultRecord",
    "HardwareFault",
    "InferenceCampaign",
    "OpSite",
    "PinnedMagnitude",
    "SoftwareFaultModel",
    "ValidationSummary",
    "all_model_names",
    "enumerate_sites",
    "expected_faults_per_run",
    "model_for_ff",
    "run_validation",
    "sample_spread_faults",
    "sample_fault",
]
