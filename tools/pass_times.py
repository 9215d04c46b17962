"""Time and minor page faults of every orbit pass of the torus-ladder workload.

    python3 tools/pass_times.py [--seed 31] [--root CHECKOUT]

Generates the ``torus-ladder`` inputs from the seed (``perfbench/workloads.py``
of ``--root``, default this checkout), runs each CLI invocation once, in
process, on the package in ``--root``'s ``src/``, and records the arguments of
every ``CocycleFamily.orbit_lognorms`` call: the 8-energy ``p = 1, 2`` passes
of ``exponents-schrodinger``, the three passes of ``exponents-trig3``, the
Hölder pairs, the 2048-lane pass of ``ldt`` and the 1024-lane pass of
``rates``.  It then runs each recorded pass ``REPEAT`` (7) times and prints one
line per pass: the invocation, the order ``p``, energies x lanes, the steps,
the least time in ms and the median count of minor page faults
(``resource.getrusage``) over the repeats.  A pass's page faults follow what
the process allocated before it, so compare two checkouts with one run per
checkout, each in its own process, as for ``tools/output_digest.py``.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(ROOT / "tools"))
import output_digest  # noqa: E402

WORKLOAD = "torus-ladder"
REPEAT = 7


def record_passes(seed: int, root: Path = ROOT) -> list[tuple[str, object, tuple, dict]]:
    """``(invocation, family, args, kwargs)`` of every orbit pass of one run
    of the workload's invocations (:func:`output_digest.invocations`)."""
    output_digest.use_checkout(root)
    from cocyclelab.cocycle import CocycleFamily

    calls, passes = [], []
    orbit_lognorms = CocycleFamily.orbit_lognorms

    def recording(fam, *args, **kwargs):
        calls.append((fam, args, kwargs))
        return orbit_lognorms(fam, *args, **kwargs)

    CocycleFamily.orbit_lognorms = recording
    try:
        for inv, _, _ in output_digest.invocations(WORKLOAD, seed, root):
            passes += [(inv.name, *call) for call in calls]
            calls.clear()
        return passes
    finally:
        CocycleFamily.orbit_lognorms = orbit_lognorms


def time_pass(fam, args, kwargs, repeat: int) -> tuple[float, float]:
    """Least seconds and median minor page faults of ``repeat`` runs of one pass."""
    seconds, faults = [], []
    for _ in range(repeat):
        before, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        fam.orbit_lognorms(*args, **kwargs)
        seconds.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return min(seconds), statistics.median(faults)


def describe(E, zeta, n, p=1, checkpoints=None) -> str:
    """Order, energies x lanes and steps of a pass, from its arguments."""
    return f"p={p} lanes={np.size(E)}x{np.size(zeta)} n={n}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ and perfbench/ are used (default: this one)")
    args = ap.parse_args(argv)
    for name, fam, pass_args, kwargs in record_passes(args.seed, args.root.resolve()):
        seconds, faults = time_pass(fam, pass_args, kwargs, REPEAT)
        print(f"{name} {describe(*pass_args, **kwargs)} "
              f"ms={1e3 * seconds:.2f} minflt={faults:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
