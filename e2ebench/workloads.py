"""The benchmark's three scenarios: one `xmpsim run` command line each.

Horizons are cut short of the CLI defaults so that one benchmark run fits
many repetitions (the median is what gets compared); every scenario is
drop-free (`drops.queue == 0`) at these horizons, and the three of them
load different layers (see README.md in this directory).
"""

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Seed the references in references.json were recorded with. Any other
# --seed falls back to the invariant checks alone.
REFERENCE_SEED = 1

# Horizon of the set-up measurement: the same command simulated for 1 us,
# which leaves flag and workload parsing, world construction, collection
# and output.
SETUP_DURATION = "--duration=0.000001"


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple

    def argv(self, seed, ckpt_dir=None):
        out = [f"--checkpoint-dir={ckpt_dir}" if a == "--checkpoint-dir={ckpt}" else a
               for a in self.args]
        return ["run", *out, f"--seed={seed}"]


WORKLOADS = {
    w.name: w
    for w in (
        # Per-packet steady state on the sharded engine: 128 long-lived
        # elephants, a deep delivery-event heap per shard, link/queue,
        # switch and ECN, plus epochs, barriers and handoffs. Where sim/net
        # hot-path changes must show. One worker: on a 4-vCPU VM every
        # barrier waits for the slowest vCPU, and hypervisor steal made
        # run_s at 4 (and 2) workers swing too far between minutes to time.
        Workload("perm_k8_shards1", ("--k=8", "--pattern=permutation", "--scheme=xmp",
                                     "--subflows=2", "--duration=0.03", "--shards=1")),
        # Open-loop flow churn: TCP mice, RTO arm/cancel timer churn, FCT
        # accounting and checkpoint writes, with little in-flight depth.
        Workload(
            "fct_websearch_k8",
            (
                "--k=8",
                f"--workload={HERE / 'websearch_k8.wl'}",
                "--load=0.5",
                "--duration=0.1",
                "--checkpoint-every=0.02",
                "--checkpoint-dir={ckpt}",
            ),
        ),
        # 10^4 fluid background flows and few packets: the fluid model does
        # the work, so a sim/net change should not move it.
        Workload("hybrid_k8", ("--k=8", "--hybrid", "--hybrid-bg=10000", "--duration=0.1")),
    )
}


def command_line(w, seed=REFERENCE_SEED):
    """The exact command line of one repetition, as documented."""
    argv = w.argv(seed, ckpt_dir="<run-dir>/ckpt")
    argv = [a.replace(str(HERE), "e2ebench") for a in argv]
    return " ".join(["xmpsim", *argv, "--json=summary.json"])
