"""What happens before a flow: locating the source, making inputs, set-up.

Run as a script it is the benchmark's child process, so neither input
generation nor the set-up measurement touches the memory or the import
state of the process that runs the timed flows::

    python3 flowbench/prepare.py generate --workload fenced --seed 3 --out DIR
    python3 flowbench/prepare.py setup --aux DIR/0/fenced.aux [--predictor]

``generate`` writes each of the workload's instances under ``DIR/<i>``
and prints their ``.aux`` paths as one JSON list; ``setup`` prints the
seconds from before ``import repro`` to a read design (and, with
``--predictor``, a loaded predictor artifact), at the reference host
speed of ``hostspeed.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_repo_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"flowbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))


def generate(workload: str, seed: int, out: str) -> list:
    """Write the workload's seeded designs as Bookshelf; return the .aux paths."""
    from repro.benchgen import make_benchmark
    from repro.io import write_bookshelf
    from workloads import WORKLOADS, spec_for

    return [
        write_bookshelf(make_benchmark(spec_for(workload, seed, i)), str(Path(out) / str(i)))
        for i in range(WORKLOADS[workload].instances)
    ]


def setup(aux: str, predictor: bool) -> float:
    """Seconds a CLI user waits before placement starts (fresh process).

    The host speed is sampled with the interpreted kernel, so NumPy is
    first imported by ``import repro``, inside the timed span.
    """
    sampler = hostspeed.Sampler(hostspeed.interpreted_tick, hostspeed.INTERPRETED_REFERENCE_S)
    with sampler.installed():
        t0 = time.perf_counter()
        import repro  # noqa: F401
        from repro.io import read_bookshelf

        read_bookshelf(aux)
        if predictor:
            from repro.predict import load_predictor

            load_predictor()
        seconds = time.perf_counter() - t0
    return sampler.at_reference(seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    gen = sub.add_parser("generate")
    gen.add_argument("--workload", required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    st = sub.add_parser("setup")
    st.add_argument("--aux", required=True)
    st.add_argument("--predictor", action="store_true")
    args = parser.parse_args(argv)
    use_repo_source()
    if args.cmd == "generate":
        print(json.dumps(generate(args.workload, args.seed, args.out)))
    else:
        print(repr(setup(args.aux, args.predictor)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
