"""repro: reproduction of "Understanding and Mitigating Hardware Failures
in Deep Learning Training Accelerator Systems" (ISCA 2023).

Package layout
--------------
``repro.core``
    The paper's contribution: the fault-injection framework
    (:mod:`repro.core.faults`), outcome/propagation analysis
    (:mod:`repro.core.analysis`), and the detection + recovery techniques
    with baselines (:mod:`repro.core.mitigation`).
``repro.accelerator``
    NVDLA-like accelerator model: dataflow geometry, FF inventory, and a
    cycle-accurate micro-RTL MAC-array simulator.
``repro.nn`` / ``repro.optim`` / ``repro.data`` / ``repro.distributed``
    The training substrate: a from-scratch NumPy DL framework with
    explicit backward passes, optimizers exposing their history terms,
    replayable data loaders, and a simulated synchronous data-parallel
    trainer.
``repro.workloads``
    The Table 2 workload zoo (four ResNet configurations, DenseNet,
    EfficientNet, NFNet, YOLO, multigrid memory, Transformer).
``repro.observe``
    The unified observability layer: a typed event :class:`~repro.observe.Tracer`
    with JSONL export and low-overhead counters/histograms.  Wall-clock
    attribution lives outside the package, in ``benchmarks/perf``.

Quickstart
----------
>>> from repro.workloads import build_workload
>>> from repro.core.faults import Campaign
>>> spec = build_workload("resnet", size="tiny")
>>> campaign = Campaign(spec, num_devices=4, seed=0)
>>> result = campaign.run(num_experiments=2)
>>> result.num_experiments
2
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
