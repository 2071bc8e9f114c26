#!/usr/bin/env python
"""Regenerate the pinned replay corpus at ``tests/data/replay_corpus.json``.

The corpus is the CI replay gate's input: a set of fault-injection
experiments pinned to their blessed outcome, final-arena digest, and
event-stream digest (see :mod:`repro.replay.corpus`).  This script
rebuilds it from scratch so the selection is reproducible:

1. run a fixed, seeded campaign sweep on the inprocess backend, as one
   fault list through ``Campaign.run``;
2. select experiments covering every (site kind, outcome) pair the
   sweep observed, padded with extra masked entries per kind so the
   corpus splits evenly across the two backends;
3. assign backends round-robin (every backend appears) and bless each
   entry on its assigned backend.

Its output differs from the committed corpus in four backend labels
(sweep indices 2, 3, 34 and 37): when the third backend was deleted,
the committed entries that named it were relabelled by hand instead of
re-split round-robin over the two that remain.  Outcomes and digests do
not depend on the backend, and the backend field is due to go with the
backend names, so the committed corpus keeps its labels.

Run it only when the corpus must legitimately change (new site kinds,
new outcome classes, an intentional numerics change) — routine re-pins
go through ``repro replay --corpus ... --bless`` instead, so the diff
is reviewed like any other golden-file change.

Usage::

    PYTHONPATH=src python scripts/make_replay_corpus.py [OUT.json]
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.core.faults.campaign import Campaign
from repro.core.faults.serialization import fault_to_dict
from repro.engine.store import experiment_key
from repro.replay import CORPUS_SCHEMA_VERSION, run_corpus, save_corpus
from repro.workloads import build_workload

#: The sweep every corpus entry is drawn from.  Changing anything here
#: changes every experiment key, so bump deliberately.
WORKLOAD, SIZE, WORKLOAD_SEED = "resnet", "tiny", 0
NUM_DEVICES = 2
WARMUP, HORIZON, TEST_EVERY = 3, 9, 2
SITE_KINDS = ("forward", "weight_grad", "input_grad", "comm")
SWEEP_SIZE, SWEEP_SEED = 320, 20260808

BACKENDS = ("inprocess", "batched")
MIN_ENTRIES = 12


def select_indices(rows: list[tuple[int, str, str]]) -> list[int]:
    """Pick sweep indices covering every observed (kind, outcome) pair,
    padded per kind to at least ``MIN_ENTRIES`` and a multiple of
    ``len(BACKENDS)`` so the round-robin backend split is even."""
    chosen: list[int] = []
    seen_pairs: set[tuple[str, str]] = set()
    for index, kind, outcome in rows:
        if (kind, outcome) not in seen_pairs:
            seen_pairs.add((kind, outcome))
            chosen.append(index)
    padding = (r for r in rows if r[0] not in set(chosen))
    while len(chosen) < MIN_ENTRIES or len(chosen) % len(BACKENDS):
        chosen.append(next(padding)[0])
    return sorted(chosen)


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent.parent / "tests" / "data" / \
        "replay_corpus.json"

    spec = build_workload(WORKLOAD, size=SIZE, seed=WORKLOAD_SEED)
    campaign = Campaign(spec, num_devices=NUM_DEVICES,
                        warmup_iterations=WARMUP, horizon=HORIZON,
                        test_every=TEST_EVERY, site_kinds=SITE_KINDS)
    faults = campaign.sample_faults(SWEEP_SIZE, seed=SWEEP_SEED)

    print(f"sweep: {SWEEP_SIZE} experiments "
          f"({WORKLOAD}/{SIZE}, horizon {HORIZON})")
    t0 = time.time()
    payloads = campaign.run(faults=faults).payloads
    rows = [(index, fault.site.kind, payload["outcome"])
            for index, (fault, payload) in enumerate(zip(faults, payloads))]
    print(f"sweep done in {time.time() - t0:.1f}s; outcomes: "
          f"{sorted({o for _, _, o in rows})}")

    indices = select_indices(rows)
    entries = []
    for slot, index in enumerate(indices):
        fault_dict = fault_to_dict(faults[index])
        entries.append({
            "key": experiment_key(index, fault_dict),
            "index": index,
            "backend": BACKENDS[slot % len(BACKENDS)],
            "fault": fault_dict,
            "config": campaign.config_dict(),
        })
    corpus = {"kind": "replay_corpus", "schema": CORPUS_SCHEMA_VERSION,
              "entries": entries}

    print(f"blessing {len(entries)} entries across {BACKENDS} ...")
    t0 = time.time()
    run_corpus(corpus, bless=True,
               on_progress=lambda i, n, r: print(
                   f"  [{i}/{n}] {r.backend:<12} {r.outcome_replayed}"))
    print(f"blessed in {time.time() - t0:.1f}s")

    save_corpus(corpus, out)
    kinds = sorted({e["fault"]["site"]["kind"] for e in entries})
    outcomes = sorted({e["outcome"] for e in entries})
    backends = sorted({e["backend"] for e in entries})
    print(f"wrote {out} ({len(entries)} entries; kinds {kinds}; "
          f"outcomes {outcomes}; backends {backends})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
