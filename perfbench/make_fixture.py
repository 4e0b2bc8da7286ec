"""Regenerate the converged cartpole policy that `cartpole-converged` starts
from: 30 FOMAML epochs at beta=0.02, seed 1, on configs/cartpole.cfg, run by
the library's own training loop.

    python3 perfbench/make_fixture.py

Writes `perfbench/fixtures/cartpole-converged.f64` (little-endian float64
policy vector) and its `.sha256`. Takes about 20 s on a 2-core x86-64 VM.

Training at beta=0.02 is chaotic, so the result depends on the BLAS thread
count. With OpenBLAS at 2 threads the policy returns 200 at epoch 29; at 1
thread the same run collapses to 98 there. The fixture is therefore made at
2 threads, while the benchmark measures at the count `workload.py` pins.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import hashlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURE = BENCH_DIR / "fixtures" / "cartpole-converged.f64"
sys.path.insert(0, str(ROOT / "src"))

from metarl import harness, meta, policy  # noqa: E402

EPOCHS = 30


def main() -> None:
    out_dir = ROOT / ".perfbench_out" / "fixture"
    rc = harness.load_config(ROOT / "configs" / "cartpole.cfg", {
        "algorithm": "fomaml", "beta": "0.02", "seed": "1", "epochs": str(EPOCHS),
        "eval_every": str(EPOCHS), "out_dir": str(out_dir), "label": "fixture",
    })
    try:
        log = meta.train(rc)
        vectors, _ = policy.load_checkpoint(out_dir / "fixture.ckpt")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if log.diverged is not None:
        raise SystemExit(f"fixture run diverged: {log.diverged}")
    data = vectors["policy"].values.astype("<f8").tobytes()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_bytes(data)
    digest = hashlib.sha256(data).hexdigest()
    FIXTURE.with_name(FIXTURE.name + ".sha256").write_text(f"{digest}  {FIXTURE.name}\n")
    print(f"eval return at epoch {log.rows[-1].epoch}: {log.rows[-1].eval_return}")
    print(f"wrote {FIXTURE.relative_to(ROOT)} ({len(data) // 8} values, sha256 {digest})")


if __name__ == "__main__":
    main()
