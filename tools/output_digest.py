"""Digest of the data files that one benchmark workload writes.

    python3 tools/output_digest.py --workload random-streams --seed 31 [--root CHECKOUT]

Generates the workload's inputs from the seed (``perfbench/workloads.py``
of ``--root``, default this checkout), runs every CLI invocation of the
workload once, in process, on the package in ``--root``'s ``src/``, and
prints one line per invocation: its name, its exit code and the SHA-256
of its data files (``manifest.json`` excluded, as the benchmark does).
Two checkouts whose lines agree wrote the same bytes.  Compare them with
one run per checkout, each in its own process, since a process imports
one ``cocyclelab``::

    python3 tools/output_digest.py --workload ap-certify --seed 31 --root A > a.txt
    python3 tools/output_digest.py --workload ap-certify --seed 31 --root B > b.txt
    diff a.txt b.txt

Config files embed the relative paths of generated files (the support
file of ``file3``, the matrix files of ``ap-verify``), so the tool works
inside one fresh work directory under fixed relative names: the digests do
not depend on where it is run from or where the work directory lives.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def file_digest(out_dir: Path) -> str:
    """SHA-256 over the name, size and bytes of every data file in
    ``out_dir``, in name order."""
    h = hashlib.sha256()
    if out_dir.is_dir():
        for f in sorted(out_dir.iterdir()):
            if f.name != "manifest.json":
                data = f.read_bytes()
                h.update(f"{f.name}\0{len(data)}\0".encode())
                h.update(data)
    return h.hexdigest()


def use_checkout(root: Path) -> None:
    """Puts ``root``'s ``perfbench/`` and ``src/`` first on ``sys.path``;
    a ``cocyclelab`` imported already stays the one in use."""
    for path in (root / "perfbench", root / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def invocations(workload: str, seed: int, root: Path = ROOT):
    """Runs every invocation of ``workload`` once, in process, and yields
    ``(invocation, out_dir, exit code)`` after each, while the working
    directory is the fresh work directory that ``out_dir`` is relative to;
    the working directory is restored when the generator ends."""
    use_checkout(root)
    import run
    import workloads
    from cocyclelab.cli import main

    cwd, work = os.getcwd(), tempfile.mkdtemp(prefix="output-digest-")
    try:
        os.chdir(work)
        here = Path("work")  # the layout of a benchmark run, relative
        here.mkdir()
        inputs = workloads.WORKLOADS[workload].make_inputs(seed, here)
        for inv in inputs.invocations:
            out_dir = here / "out" / inv.name
            with contextlib.redirect_stdout(io.StringIO()):
                code = run.invoke(main, inv.argv(out_dir))
            yield inv, out_dir, code
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def digests(workload: str, seed: int, root: Path = ROOT) -> dict[str, tuple[int, str]]:
    """``{invocation: (exit code, data-file digest)}`` for one run of every
    invocation of ``workload``.  Imports ``cocyclelab`` from ``root/src``
    unless it is imported already; the working directory is restored."""
    return {inv.name: (code, file_digest(out_dir))
            for inv, out_dir, code in invocations(workload, seed, root)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ and perfbench/ are used (default: this one)")
    args = ap.parse_args(argv)
    for name, (code, digest) in digests(args.workload, args.seed, args.root.resolve()).items():
        print(f"{name} exit={code} sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
