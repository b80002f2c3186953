"""Regenerate the golden EventCounters fixture for the equivalence test.

Runs every kernel invocation of every bundled suite on both paper GPUs
through the simulator (serial, ``SimConfig(seed=0)``, one SM) and
writes the merged per-application counters to
``tests/data/golden_sim_counters.json``.

The committed fixture was produced by the **pre-event-loop** scan
implementation (PR 5 seed state); ``tests/test_sim_equivalence.py``
asserts the current loop still reproduces it bit for bit.  Regenerate
only when the simulated *semantics* change deliberately — that is a
counter-breaking change and must also retire every persistent result
cache (see docs/PERFORMANCE.md).

Each SM is built by :func:`repro.sim.sm.make_sm_simulator`, so
kernels run on the production loop (the compiled drivers) and any
program the specializer declines on the reference loop.  Because the
fixture predates both, regenerating it must produce a byte-identical
file; CI exploits that as an end-to-end equivalence check.

Usage::

    PYTHONPATH=src python tools/gen_golden_sim.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arch import get_gpu  # noqa: E402
from repro.io.counters_json import counters_to_doc  # noqa: E402
from repro.lint import bundled_suites  # noqa: E402
from repro.sim import SimConfig  # noqa: E402
from repro.sim.counters import EventCounters  # noqa: E402
from repro.sim.sm import make_sm_simulator  # noqa: E402

GPUS = ("gtx1070", "rtx4000")
OUTPUT = Path(__file__).resolve().parent.parent / "tests" / "data" / (
    "golden_sim_counters.json"
)


def app_counters(spec, app, config: SimConfig) -> EventCounters:
    """Merged single-SM counters over every invocation of one app."""
    merged = EventCounters()
    for inv in app.invocations:
        sim = make_sm_simulator(spec, inv.program, inv.launch, config)
        merged.merge(sim.run())
    return merged


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    config = SimConfig(seed=0)
    doc: dict = {
        "_comment": (
            "Golden per-application EventCounters (merged over kernel "
            "invocations; serial, seed=0, one SM).  Produced by the "
            "pre-event-loop cycle scan; regenerate with "
            "tools/gen_golden_sim.py only on deliberate semantic change."
        ),
        "config": {"seed": 0, "simulated_sms": 1},
        "gpus": {},
    }
    for gpu in GPUS:
        spec = get_gpu(gpu)
        suites_doc: dict = {}
        for suite_name, suite in sorted(bundled_suites().items()):
            apps_doc = {}
            for app in suite.applications:
                apps_doc[app.name] = counters_to_doc(
                    app_counters(spec, app, config)
                )
            suites_doc[suite_name] = apps_doc
        doc["gpus"][gpu] = suites_doc
        print(f"{gpu}: {sum(len(v) for v in suites_doc.values())} apps")
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
