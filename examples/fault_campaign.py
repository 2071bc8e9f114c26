#!/usr/bin/env python3
"""Statistical fault-injection campaign (a miniature of the paper's 2.9M
experiments).

Samples random hardware faults — FF from the inventory (Table 1
populations), op site, training iteration, device — injects each into a
fresh copy of the workload resumed from a shared baseline, and prints the
campaign summary ``repro report`` prints: the Fig. 3 outcome breakdown,
every rate with its 99 % interval and n (including the Sec. 4.3.1 FF
classes), and the Table 4 condition ranges.

Run:  python examples/fault_campaign.py [num_experiments]
"""

from __future__ import annotations

import sys

from repro.core.analysis import campaign_report_dict, render_campaign
from repro.core.analysis.stats import unobserved_outcome_bound
from repro.core.faults import Campaign
from repro.workloads import build_workload


def main(num_experiments: int = 40) -> None:
    spec = build_workload("resnet", size="tiny", seed=0)
    campaign = Campaign(spec, num_devices=4, seed=0, warmup_iterations=15,
                        horizon=45, inject_window=10, test_every=10)
    print(f"preparing baseline ({campaign.warmup_iterations} warm-up + "
          f"{campaign.horizon} reference iterations)...")
    campaign.prepare()

    print(f"running {num_experiments} fault-injection experiments...")
    result = campaign.run(num_experiments, seed=77)

    print()
    print(render_campaign(campaign_report_dict(result.payloads), spec.name))
    print("\npaper: unexpected rate 9.7%-17.7% at >100K experiments per "
          "workload; probability of an unseen outcome class here: "
          f"< {unobserved_outcome_bound(result.num_experiments):.1%} "
          "(99.5% confidence)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 40)
