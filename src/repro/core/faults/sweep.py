"""Structured fault-injection sweeps.

Statistical campaigns (:mod:`repro.core.faults.campaign`) sample the
experiment space uniformly; sweeps walk it systematically — one axis at a
time — which is how the paper's per-factor analyses are produced
(injection iteration for the "late faults recover" claim, op site for
the per-layer trends, FF group for Table 1's behavioural census).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.accelerator.ffs import FFDescriptor
from repro.core.faults.campaign import Campaign, ExperimentResult
from repro.core.faults.hardware import HardwareFault, OpSite


@dataclass
class SweepAxis:
    """One swept dimension: a name plus its values."""

    name: str
    values: list

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")


@dataclass
class SweepResult:
    """Grid of experiment results, indexed by axis-value tuples."""

    axes: list[SweepAxis]
    cells: dict[tuple, ExperimentResult] = field(default_factory=dict)

    def marginal(self, axis_name: str, reducer) -> dict:
        """Reduce over all other axes: value -> reducer([results])."""
        index = [a.name for a in self.axes].index(axis_name)
        buckets: dict = {}
        for key, result in self.cells.items():
            buckets.setdefault(key[index], []).append(result)
        return {value: reducer(results) for value, results in buckets.items()}

    def unexpected_rate_by(self, axis_name: str) -> dict:
        return self.marginal(
            axis_name,
            lambda results: sum(r.report.is_unexpected for r in results) / len(results),
        )


def _cell_fault(campaign: Campaign, names: list[str], combo: tuple,
                base_seed: int) -> HardwareFault:
    """Build the fully specified fault for one grid cell."""
    settings = dict(zip(names, combo))
    if "bit" in settings:
        ff = FFDescriptor("datapath", bit=int(settings["bit"]))
    else:
        ff = FFDescriptor("global_control",
                          group=int(settings.get("group", 1)),
                          has_feedback=True)
    site = settings.get("site", ("1.conv1", "weight_grad"))
    if not isinstance(site, OpSite):
        site = OpSite(*site)
    return HardwareFault(
        ff=ff,
        site=site,
        iteration=int(settings.get("iteration",
                                   campaign.warmup_iterations)),
        device=int(settings.get("device", 0)),
        seed=int(settings.get("seed", base_seed)),
    )


def run_sweep(
    campaign: Campaign,
    axes: list[SweepAxis],
    base_seed: int = 0,
    *,
    parallel: int = 1,
    store=None,
    resume: bool = False,
    timeout: float | None = None,
    max_retries: int = 2,
    on_progress=None,
) -> SweepResult:
    """Run one experiment per grid cell.

    Recognized axis names (others are ignored with their values recorded
    in the cell key only):

    * ``"iteration"`` — injection iteration (absolute);
    * ``"site"`` — ``(module_name, kind)`` tuples or ``OpSite`` values;
    * ``"group"`` — global-control fault group (1-10);
    * ``"bit"`` — datapath bit position (overrides ``group``);
    * ``"device"`` — target device index;
    * ``"seed"`` — fault RNG seed.

    Execution is delegated to :class:`repro.engine.CampaignEngine`; the
    engine keywords (``parallel``, ``store``, ``resume``, ``timeout``,
    ``max_retries``, ``on_progress``) behave as in
    :meth:`~repro.core.faults.campaign.Campaign.run`.  Cells whose
    experiment was quarantined are absent from :attr:`SweepResult.cells`.
    """
    from repro.core.faults.serialization import (
        experiment_from_dict,
        fault_to_dict,
    )
    from repro.engine import (
        CampaignEngine,
        EngineConfig,
        ResultStore,
        WorkUnit,
        experiment_key,
    )

    # Prepare in the parent: serial runs need it anyway, and forked
    # workers then inherit the trained baseline snapshot.
    campaign.prepare()
    result = SweepResult(axes=axes)
    names = [a.name for a in axes]
    combos = list(product(*(a.values for a in axes)))
    units = []
    keys: dict[tuple, str] = {}
    for index, combo in enumerate(combos):
        desc = fault_to_dict(_cell_fault(campaign, names, combo, base_seed))
        key = experiment_key(index, desc)
        keys[combo] = key
        units.append(WorkUnit(key=key, payload={"index": index, "fault": desc}))

    owns_store = store is not None and not isinstance(store, ResultStore)
    store_obj = store
    if owns_store:
        store_obj = ResultStore(
            store, kind="sweep",
            meta={"workload": campaign.spec.name,
                  "axes": {a.name: len(a.values) for a in axes},
                  "base_seed": int(base_seed)},
            resume=resume)
    engine = CampaignEngine(
        campaign._engine_runner,
        EngineConfig(parallel=int(parallel), timeout=timeout,
                     max_retries=int(max_retries)),
        store=store_obj, on_progress=on_progress)
    try:
        report = engine.run(units)
    finally:
        if owns_store:
            store_obj.close()
    for combo in combos:
        payload = report.results.get(keys[combo])
        if payload is not None:
            result.cells[combo] = experiment_from_dict(payload)
    return result
