"""Sec. 5.1 / Sec. 6: detection coverage and latency comparison.

Injects a battery of condition-firing faults (the ones that can lead to
latent unexpected outcomes) and measures, per technique:

* whether it detects the fault at all (coverage),
* the detection latency in iterations.

Techniques: the paper's bound checking (detects all history/mvar
corruptions within 2 iterations), ABFT checksums (sees only corrupted
matmul outputs), Ranger activation bounds (forward pass only — the paper
measured 33.7% latent coverage), and gradient clipping (prevents some
faults rather than detecting them; cannot see history/mvar corruption).
"""

from __future__ import annotations

from _report import emit, header, paper_vs_measured, table, write_artifact
from conftest import NUM_DEVICES, pinned_fault
from repro.core.faults import FaultInjector
from repro.core.mitigation import HardwareFailureDetector
from repro.core.mitigation.baselines import ABFTChecker, GradientClipper, RangerGuard
from repro.distributed import SyncDataParallelTrainer
from repro.workloads import build_workload

INJECT_AT = 30
TOTAL = 45

#: Condition-firing fault battery: (label, workload, site, kind, magnitude).
BATTERY = [
    ("backward grad fault (history)", "resnet", "1.conv1", "weight_grad", 1e12),
    ("backward grad fault (history, deep)", "resnet", "2.conv2", "weight_grad", 1e14),
    ("forward act fault (mvar)", "resnet", "1.conv1", "forward", 1e12),
    ("forward act fault (mvar, stem)", "resnet", "0.0", "forward", 1e14),
    ("backward input-grad fault", "resnet", "2.conv1", "input_grad", 1e12),
    ("forward fault, NoBN (history)", "resnet_nobn", "1.conv1", "forward", 1e8),
]


def _run_with(guard, workload, site, kind, magnitude):
    spec = build_workload(workload, size="tiny", seed=0)
    trainer = SyncDataParallelTrainer(spec, num_devices=NUM_DEVICES, seed=0,
                                      test_every=0, stop_on_nonfinite=False)
    trainer.add_hook(FaultInjector(pinned_fault(
        site, kind, INJECT_AT, device=1, magnitude=magnitude, elements=64,
        seed=7)))
    trainer.add_hook(guard)
    trainer.train(TOTAL)
    return guard.detection_latency(INJECT_AT)


def bench_sec5_coverage(benchmark):
    techniques = {
        "bound checks (this paper)": HardwareFailureDetector,
        "ABFT checksums": ABFTChecker,
        "Ranger activation bounds": lambda: RangerGuard(profile_iterations=15),
        "gradient clipping": lambda: GradientClipper(max_norm=5.0),
    }
    rows = []
    coverage = {name: 0 for name in techniques}
    for label, *fault in BATTERY:
        row = {"fault": label}
        for name, make in techniques.items():
            latency = _run_with(make(), *fault)
            coverage[name] += latency is not None and latency <= 2
            if name == "gradient clipping":
                # Clipping "fires" when it engages; it has no detection
                # semantics but we report whether it even noticed.
                row[name] = "engaged" if latency is not None else "silent"
            else:
                row[name] = f"lat={latency}" if latency is not None else "MISSED"
        rows.append(row)

    header("Sec. 5 — detection coverage and latency on condition-firing "
           "faults (latency in iterations after the fault)")
    table(rows)
    emit()
    total = len(BATTERY)
    for name, hits in coverage.items():
        emit(f"  {name}: {hits}/{total} faults caught within 2 iterations")
    emit()

    bound, abft, ranger, _ = coverage.values()
    claims = [paper_vs_measured(
        "bound checks catch every condition-firing fault within 2 iterations",
        "detects all faults likely to cause latent outcomes; latency <= 2",
        f"{bound}/{total} caught", band=(1, 1), counts=(bound, total),
    ), paper_vs_measured(
        "activation bounds miss most latent-outcome faults",
        "only 33.7% of latent unexpected outcomes detected (Sec. 6)",
        f"{ranger}/{total} caught (misses all backward-pass corruptions)",
        band=(None, 0.337), counts=(ranger, total),
    ), paper_vs_measured(
        "ABFT cannot see history-state corruption",
        "requires checked-operation corruption; history-only faults pass",
        f"bound checks {bound}/{total} minus ABFT {abft}/{total} caught",
        band=(0, None), counts=((bound, total), (abft, total)),
    )]
    write_artifact("sec5_coverage", {"claims": claims}, smoke=False)

    benchmark.pedantic(lambda: _run_with(HardwareFailureDetector(), *BATTERY[0][1:]),
                       rounds=2, iterations=1)
