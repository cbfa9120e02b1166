"""Rebuild the closed-loop model fixture from the train-full pipeline at its seed.

    python3 perfbench/make_model.py          # write perfbench/fixtures/model.json
    python3 perfbench/make_model.py --check  # rebuild; exit 1 unless bit-identical

Runs the same `vsglab dataset` and `vsglab train` commands as one round
of the train-full workload, so the fixture is never a hand-kept copy.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="compare with the stored fixture instead of overwriting it")
    args = p.parse_args(argv)
    vsglab = run.import_package()
    work = run.OUT / "make-model"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for argv_ in run.TrainFull.commands(work):
            rc = vsglab.cli.main([str(a) for a in argv_])
            if rc != 0:
                print(f"error: vsglab {argv_[0]} exited with {rc}", file=sys.stderr)
                return 1
        built = (work / "train" / "model.json").read_bytes()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.check:
        same = run.MODEL_FIXTURE.read_bytes() == built
        print("fixture is bit-identical to the rebuild" if same
              else "fixture differs from the rebuild")
        return 0 if same else 1
    run.MODEL_FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    run.MODEL_FIXTURE.write_bytes(built)
    print(f"wrote {run.MODEL_FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
