"""Time one fresh set-up of a workload: import confgeo, build the
workload's fields and make its first call.

    python3 benchmarks/setup_probe.py <workload> <seed>

Then, for as long again, times pairs of runs of the reference kernel
(``bench_reference``), the second of each pair.  Prints the set-up
seconds and the kernel's mean seconds as the last line.  run.py starts
it in a fresh process for every set-up it measures.
"""
import statistics
import sys
import time


def main() -> None:
    start = time.perf_counter()
    import bench_workloads

    w = bench_workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    w.first_call()
    setup = time.perf_counter() - start

    import bench_reference as ref

    kernel, until = [], time.perf_counter() + setup
    while not kernel or time.perf_counter() < until:
        ref.kernel()
        warm = time.perf_counter()
        ref.kernel()
        kernel.append(time.perf_counter() - warm)
    print(repr(setup), repr(statistics.fmean(kernel)))


if __name__ == "__main__":
    main()
