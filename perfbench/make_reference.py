"""Regenerate the closed-loop reference traces in perfbench/reference/.

    python3 perfbench/make_reference.py [workload ...]

For every closed-loop workload and every variant the seed can pick, this
stores the variant's inputs (initial_q, episode duration) and the joint
positions q and torques tau of the resulting trace at every control-step
boundary.  The benchmark counts an episode as failed when it differs
from these beyond workloads.Q_TOL / TAU_TOL.  Regenerate only for a
change that is meant to alter closed-loop outputs.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from mmtrack import sim  # noqa: E402


def main():
    out_dir = workloads.HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    names = sys.argv[1:] or list(workloads.CLOSED_LOOPS)
    for name in names:
        cfg, _ = workloads.CLOSED_LOOPS[name]
        text = (ROOT / "configs" / cfg).read_text(encoding="utf-8")
        q0s, qs, taus = [], [], []
        for variant in range(workloads.VARIANTS):
            q0, duration = workloads.variant_inputs(name, variant)
            model, params, script = workloads.load_closed_loop(text, q0,
                                                               duration)
            trace = sim.run_closed_loop(model, params, script)
            spc = round(script.control_period / script.torque_period)
            q0s.append(q0)
            qs.append(trace.q[::spc])
            taus.append(trace.tau[::spc])
            print(f"{name} variant {variant}: {len(trace.time)} rows",
                  flush=True)
        np.savez_compressed(out_dir / f"{name}.npz", initial_q=np.array(q0s),
                            duration=duration, q=np.array(qs),
                            tau=np.array(taus))


if __name__ == "__main__":
    main()
