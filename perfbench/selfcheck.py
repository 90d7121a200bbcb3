"""Self-check of the benchmark against its own declaration.

    python3 perfbench/selfcheck.py [--seed 1]

Runs every workload of BENCHMARK.json once untraced and once traced,
each launched from a working directory outside the repository, and
checks the last stdout line: exactly the declared metrics with their
units, ``correct`` true and no failed operation. Then runs the command
in a directory holding only BENCHMARK.json and the benchmark's paths,
where it must exit non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec: dict, root: str, cwd: str, workload: str, seed: int, trace: int):
    cmd = [spec["command"][0], os.path.join(root, *spec["command"][1:])]
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    return subprocess.run(cmd + args, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    with tempfile.TemporaryDirectory() as outside:
        for w in spec["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                p = run(spec, ROOT, outside, w["name"], seed, trace)
                where = f"{w['name']} trace={trace}"
                before = len(problems)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    problems.append(f"{where}: exit {p.returncode}\n{p.stderr[-2000:]}")
                    print(where, "FAILED", flush=True)
                    continue
                res = json.loads(lines[-1])
                units = {m["name"]: m["unit"] for m in spec[section]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"{where}: keys {sorted(res)}")
                if got != units:
                    problems.append(f"{where}: metrics differ from {section}")
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"{where}: {lines[-2][:2000]}")
                print(where, "ok" if len(problems) == before else "FAILED", flush=True)

        bare = os.path.join(outside, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        p = run(spec, bare, bare, spec["workloads"][0]["name"], seed, 0)
        if p.returncode == 0 or '"metrics"' in p.stdout:
            problems.append(f"bare directory: exit {p.returncode}, stdout {p.stdout[-500:]!r}")
        print("bare directory", "ok" if p.returncode else "FAILED", flush=True)
    for msg in problems:
        print(msg, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
