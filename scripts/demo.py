#!/usr/bin/env python3
"""End-to-end tour: generate matrices, write their JSON files, and drive
the command-line pipeline on them (analyze, dominate, part, arc).

The commands run inside the temporary directory that holds the files and
name them relatively, so two runs print the same bytes."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import contraction_lab
from contraction_lab import matrix_to_json
from contraction_lab.corpus import GenSpec, generate

# the commands run in another directory: import the same package there
PACKAGE_ROOT = str(Path(contraction_lab.__file__).resolve().parents[1])


def write(path: Path, mat) -> str:
    path.write_text(json.dumps(matrix_to_json(np.asarray(mat, dtype=complex))))
    return path.name


def run(argv, cwd):
    print(f"$ contraction-lab {' '.join(argv)}")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": PACKAGE_ROOT + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-m", "contraction_lab.cli", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env)
    out = json.loads(proc.stdout)
    compact = {k: v for k, v in out.items()
               if k not in ("inputs", "tolerances", "seed", "command")}
    print(f"  exit={proc.returncode} {json.dumps(compact)[:240]}")
    print()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        w = generate(GenSpec(dim=3, kind="partial_isometry", seed=7,
                             params={"rank": 2}))
        member = generate(GenSpec(dim=3, kind="direct_sum_U_plus_Q", seed=7,
                                  params={"unitary_dim": 2, "norm_bound": 0.5}))
        files = {
            "pi": write(root / "pi.json", w.mat),
            "mix": write(root / "mix.json",
                         np.diag([1.0, 0.6, 0.2]).astype(complex)),
            "zero": write(root / "zero.json", np.zeros((3, 3))),
            "strict": write(root / "strict.json",
                            generate(GenSpec(dim=3, kind="strict", seed=3)).mat),
        }
        run(["analyze", files["mix"]], root)
        run(["dominate", "--order", "harnack", files["zero"], files["strict"]], root)
        run(["dominate", "--order", "shmulyan", files["strict"], files["zero"]], root)
        run(["part", files["pi"], files["pi"]], root)
        run(["arc", files["zero"], files["strict"]], root)
        run(["gen", "--kind", "commuting_pair", "--dim", "3", "--seed", "1"], root)
        run(["suite", "--name", "scalar-constant"], root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
