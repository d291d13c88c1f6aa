"""Workload ``sharded_1e6``: Fig. 4 at 10^4 stages and 10^6 clients.

``run_fig4_sharded`` at 100 jobs x 100 stages x 100 clients on 16 racks,
``dt=0.2``, split placement, the shm fabric and the vectorised control
tier, over 2 shard worker processes.  One pass is the baseline phase plus
the padll phase, 240 simulated seconds each.

The unit of work is one simulated second; a step is one whole pass.
"""

from __future__ import annotations


from common import Outcome, pinned_report, step_metrics, steps_for
from pinned import SHARDED
from repro.experiments.fig4_sharded import run_fig4_sharded
from repro.simulation.sharded import FluidConfig, ShardedConfig, ShardedSimulation
from repro.simulation.sharded.pool import ShardPool
from spans import Patcher

CONFIG = dict(
    n_jobs=100,
    stages_per_job=100,
    clients_per_stage=100,
    n_racks=16,
    n_shards=2,
    dt=0.2,
    placement="split",
    fabric="shm",
    vectorized=True,
    duration=240.0,
    step_period=60.0,
)
PHASES = 2
#: One pass at reference speed, seconds (sets the passes per run).
REFERENCE_PASS_S = 2.5


def run_pass(seed: int, n_shards: int = CONFIG["n_shards"]):
    """One pass; returns ``(digest, problems)``."""
    result = run_fig4_sharded(seed=seed, **dict(CONFIG, n_shards=n_shards))
    dt = result.config.fluid.dt
    served = result.series["padll"] / dt
    step_ticks = int(round(result.step_period / dt))
    settle = int(round(2.0 / dt))
    problems = []
    for k, limit in enumerate(result.limits):
        # A new limit lands at the next control epoch; skip two seconds.
        window = served[k * step_ticks + settle:(k + 1) * step_ticks]
        if len(window) and float(window.max()) > limit * 1.05:
            problems.append(f"step {k}: served {float(window.max()):.0f} > limit {limit:.0f}")
    return result.digest(), problems


class Workload:
    name = "sharded_1e6"

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        # Spawn the shard pool once and close it, so the first pass does not
        # pay the first worker start-up alone.
        config = ShardedConfig(
            n_racks=CONFIG["n_racks"],
            n_shards=CONFIG["n_shards"],
            n_jobs=CONFIG["n_jobs"],
            stages_per_job=CONFIG["stages_per_job"],
            placement=CONFIG["placement"],
            fluid=FluidConfig(
                seed=seed, clients_per_stage=CONFIG["clients_per_stage"], dt=CONFIG["dt"]
            ),
        )
        ShardedSimulation(config, fabric=CONFIG["fabric"]).close()

    def run_unit(self) -> None:
        run_pass(self.seed)

    def run(self, seconds: float, speed) -> Outcome:
        raw_walls, ref_walls, results = [], [], []
        # A pass is seconds long and the machine's speed moves within it:
        # probe it between epochs (at most every Speed.TICK_S) as well as
        # around the pass.
        original = ShardPool.run_epoch_arrays

        def ticking(pool, *args, **kwargs):
            speed.tick()
            return original(pool, *args, **kwargs)

        patcher = Patcher()
        patcher.set(ShardPool, "run_epoch_arrays", ticking)
        try:
            for _ in range(steps_for(seconds, REFERENCE_PASS_S)):
                result, raw, factor = speed.timed(run_pass, self.seed)
                results.append(result)
                raw_walls.append(raw)
                ref_walls.append(raw * factor)
        finally:
            patcher.restore()
        sim_seconds = PHASES * CONFIG["duration"] * len(results)
        outcome = Outcome(
            metrics=step_metrics(sim_seconds, ref_walls),
            raw=step_metrics(sim_seconds, raw_walls),
            attempted=len(results),
            failed=0,
        )
        first = results[0][0]
        pinned = SHARDED.get(self.seed)
        for digest, problems in results:
            outcome.check("limits hold", not problems, "; ".join(problems))
            outcome.check("digest repeats", digest == first, digest[:16])
            if pinned is not None:
                outcome.check(f"digest pinned for seed {self.seed}", digest == pinned, digest[:16])
        outcome.report = [
            pinned_report(self.seed, pinned),
            ("sim_s_per_s", outcome.raw["work_per_s"], "sim-s/s", f"raw; {len(results)} passes"),
        ]
        return outcome

    def counters(self) -> dict:
        return {}

    def close(self) -> None:
        pass
