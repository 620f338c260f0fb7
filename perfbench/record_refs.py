"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py [workload ...]

Runs each workload once per datum variant and stores the fingerprint of
its outputs in ``perfbench/ref/<workload>-<variant>.json.gz``.  The stored
references were recorded from the commit that introduced the benchmark;
re-record only when a change to the program's outputs is intended.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main(names) -> int:
    for name in names or workloads.NAMES:
        for variant in range(len(workloads.X_SHIFTS)):
            with tempfile.TemporaryDirectory(dir=HERE) as tmp:
                cfg_path = Path(tmp) / "config.json"
                cfg_path.write_text(json.dumps(workloads.config(name, variant)))
                ref = HERE / "ref" / f"{name}-{variant}.json.gz"
                subprocess.run([sys.executable, str(HERE / "worker.py"), "--name", name,
                                "--config", str(cfg_path), "--workdir", str(Path(tmp) / "work"),
                                "--result", str(Path(tmp) / "result.json"),
                                "--record", str(ref)], check=True)
                rep = json.loads((Path(tmp) / "result.json").read_text())["reps"][0]
                if not rep["ok"]:
                    print(f"{name}-{variant}: {rep['problems']}", file=sys.stderr)
                    return 1
                print(f"{name}-{variant}: {rep['seconds']:.3f} s, {rep['files']} files -> {ref.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
