"""Host cost of one Fig. 8a-shaped restart point at a given rank count.

The shape is the N-1-through-PLFS column of Fig. 8a: Cielo model, N-1
strided write of 50 MB per rank in 8 MiB transfers through PLFS with 10
subdir-federated MDSes, then a cold, verified restart read with Parallel
Index Read.  Run one point per process, so that the peak RSS is the
point's own:

    PYTHONPATH=src python benchmarks/restart_scale.py 8192

Prints host wall seconds, peak RSS, the simulated read-open time and read
bandwidth, and whether every rank read back exactly what was written.
"""

import argparse
import resource
from time import perf_counter

from repro.cluster import cielo
from repro.harness.setup import build_world
from repro.pfs import panfs_cielo
from repro.units import MB, MiB
from repro.workloads import MPIIOTest, plfs_stack, run_workload


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ranks", type=int)
    args = ap.parse_args()
    t0 = perf_counter()
    world = build_world(cluster_spec=cielo(), pfs_cfg=panfs_cielo(), n_volumes=10,
                        federation="subdir", aggregation="parallel")
    pattern = MPIIOTest(args.ranks, size_per_proc=50 * MB, transfer=8 * MiB,
                        layout="strided", name="restart")
    res = run_workload(world, pattern, plfs_stack(world), cold_read=True,
                       verify=True)
    wall = perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"ranks {args.ranks}: wall {wall:.1f} s, peak RSS {rss_mb:.0f} MB, "
          f"read open {res.read.open_time * 1e3:.1f} ms, "
          f"read {res.read.effective_bandwidth / 1e9:.1f} GB/s, "
          f"verified {res.read.verified}")


if __name__ == "__main__":
    main()
