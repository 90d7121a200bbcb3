"""Smoke the `ray job submit` entry point (scripts/submit_dedup.py) as
a real subprocess: fresh Ray session, checkpointed run, resubmit after
completion reuses the finished stages (the cluster launch contract)."""

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _submit(pages, ckpt, extra=()):
    env = dict(os.environ, RAY_ADDRESS="local")
    return subprocess.run(
        [
            sys.executable,
            os.path.join(REPO, "scripts", "submit_dedup.py"),
            "--pages", pages,
            "--checkpoint", ckpt,
            "--num-cpus", "4",
            *extra,
        ],
        capture_output=True,
        text=True,
        timeout=280,
        env=env,
        cwd=REPO,
    )


def test_submit_and_resubmit(small_corpus, tmp_path):
    _, paths = small_corpus
    ckpt = str(tmp_path / "ckpt")

    r1 = _submit(paths["pages"], ckpt)
    assert r1.returncode == 0, r1.stderr[-2000:]
    out1 = json.loads(r1.stdout.strip().splitlines()[-1])
    assert out1["scale_clusters"]["n_docs"] == 600
    assert out1["scale_clusters"]["status"] == "done"
    assert os.path.isdir(out1["clusters_dir"])

    # resubmit: completed checkpoint short-circuits (much faster, same output)
    t0 = time.perf_counter()
    r2 = _submit(paths["pages"], ckpt)
    dt2 = time.perf_counter() - t0
    assert r2.returncode == 0, r2.stderr[-2000:]
    out2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert out2["clusters_dir"] == out1["clusters_dir"]
    # the resubmit should not redo the pipeline; generous bound for a
    # bare ray.init + manifest check on a busy host
    assert dt2 < 120
