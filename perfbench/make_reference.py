"""Record the reference outputs that every benchmark run compares against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json: for each workload, the outputs of its
fixed reference case (bound totals, losses, MC estimates) at the
current commit.  Re-record only when a change is meant to move them,
and say by how much.
"""

import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, git_commit


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    doc = {"commit": git_commit(), "workloads": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", name,
             "--seed", "0", "--print-reference"],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, check=True,
        )
        doc["workloads"][name] = json.loads(out.stdout.strip().splitlines()[-1])
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
