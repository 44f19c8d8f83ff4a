"""Run one zpscan benchmark workload in this process and print its metrics.

    python3 zpbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

from the root of a checkout.  The program is imported from ``src/``, the
set-up (imports, inputs, Phi_N tables, one untimed warm-up operation) runs
once, and then whole rounds of the workload's fixed batch run until the next
round would end after ``--seconds``.  The outputs are checked independently
after the timed window.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: setup_s, batch_s (median round),
slowest_kind_s (largest per-kind median) and peak_rss_mb.  ``--trace 1``
spends the first half of the time on untraced rounds and the second on traced
ones, and reports the per-layer metrics of ``tracer.Tracer`` plus
trace.overhead_s; its spans are written to zpbench/out/.

The CPU speed of a shared VM can drift by a quarter within a minute, so the
end-to-end times are given in reference seconds: the rounds' operations are
cut into segments of at least SEGMENT_S, a fixed mpmath and big-integer
kernel (``calibrate``, no zpscan code) runs between two segments, and each
segment's wall times are scaled by KERNEL_REF_S over the mean of the kernel
times just before and just after it; the set-up is scaled by the
median of SETUP_KERNELS runs of the kernel just before it (their time is not
counted as set-up) and as many right after it.  The raw wall times go to
standard error.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "zpbench" / "out"
WORKLOADS = ("scan", "isogeny", "relations")
KERNEL_REF_S = 0.05  # the calibration kernel's time on an unloaded core of a 2-vCPU Xeon VM
SEGMENT_S = 0.5  # seconds of operations between two calibrations, at least
SETUP_KERNELS = 5  # calibrations on each side of the set-up


def calibrate() -> float:
    """Seconds this fixed mpmath and big-integer work takes now."""
    import mpmath as mp

    start = time.perf_counter()
    with mp.workprec(288):
        acc, x = mp.mpc(1), mp.mpf(1) / 3
        q = mp.exp(mp.mpc(-2.7, 0.4))
        for n in range(1, 1500):
            acc = acc * q + x * n
    a, b = 3 ** 2000 + 17, 7 ** 1900 + 5
    for _ in range(300):
        a = (a * b) % (b + 12345)
    return time.perf_counter() - start


class Recorder:
    """Runs rounds of a batch, times each operation, and checks the first round's outputs."""

    def __init__(self, ops, digest, tracer=None):
        self.ops = ops
        self.digest = digest
        self.tracer = tracer
        self.kept = None  # [(op, ok, text)] of the first round, checked after the rounds
        self.fingerprints = None
        self.problems = []
        self.batch = []  # reference seconds per round: the sum of its operations' times
        self.wall = []  # wall seconds per round
        self.times = {}  # kind -> [reference seconds]
        self.attempted = 0
        self.failed = 0

    @staticmethod
    def check(op, ok, out) -> list:
        check = op.check if ok else op.check_failed
        return [] if check is None else [f"{op.kind}: {p}" for p in check(out)]

    def check_kept(self) -> list:
        """Checks the first round's text outputs; the scan checks import sympy, so this runs last."""
        return self.problems + [p for op, ok, out in self.kept for p in self.check(op, ok, out)]

    def round(self):
        if self.tracer is not None:
            self.tracer.phase = len(self.batch)
        first = self.kept is None
        kept, prints, segment = [], [], []
        kernel, wall, total = calibrate(), 0.0, 0.0
        for i, op in enumerate(self.ops):
            start = time.perf_counter()
            ok, out = op.call()
            elapsed = time.perf_counter() - start
            wall += elapsed
            segment.append((op.kind, elapsed))
            if sum(e for _, e in segment) >= SEGMENT_S or i == len(self.ops) - 1:
                # the CPU speed drifts within a round: scale each segment by the kernel runs around it
                after = calibrate()
                scale = 2 * KERNEL_REF_S / (kernel + after)
                for kind, e in segment:
                    self.times.setdefault(kind, []).append(e * scale)
                    total += e * scale
                kernel, segment = after, []
            self.attempted += 1
            self.failed += not ok
            prints.append((ok, self.digest(out)))
            if first and isinstance(out, str):
                kept.append((op, ok, out))
            elif first:
                # a library object is checked at once, outside the timed span, and dropped,
                # so that ru_maxrss is the program's and not the outputs the harness holds
                self.problems += self.check(op, ok, out)
        if first:
            self.kept, self.fingerprints = kept, prints
        else:
            for op, want, got in zip(self.ops, self.fingerprints, prints):
                if want != got:
                    self.problems.append(f"{op.kind}: round {len(self.batch)} differs from round 0")
        self.batch.append(total)
        self.wall.append(wall)

    def measure(self, budget):
        """Whole rounds, at least one, while the next one is expected to end within budget."""
        start = time.perf_counter()
        done = len(self.batch)
        while True:
            self.round()
            if time.perf_counter() - start + statistics.median(self.wall[done:]) > budget:
                return self.batch[done:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zpscan" / "__init__.py").is_file():
        sys.stderr.write(f"error: no zpscan sources under {ROOT / 'src'}; run from a zpscan checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mpmath  # noqa: F401  (zpscan's first import; the kernel runs below need it loaded)

    start = time.perf_counter()
    kernel = [calibrate() for _ in range(SETUP_KERNELS)]
    excluded = time.perf_counter() - start  # not set-up time
    import workloads
    from tracer import Tracer

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        wl.prepare()
        wl.warmup.call()
        if tracer:
            tracer.uninstall()
        setup_wall = time.perf_counter() - T0 - excluded
        kernel += [calibrate() for _ in range(SETUP_KERNELS)]

        rec = Recorder(wl.ops, workloads.digest, tracer)
        if tracer:
            plain = rec.measure(args.seconds / 2)
            tracer.install()
            traced = rec.measure(args.seconds / 2)
            tracer.uninstall()
            first_traced = len(rec.batch) - len(traced)
            metrics = tracer.layer_metrics(range(first_traced, len(rec.batch)))
            metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            setup_s = setup_wall * KERNEL_REF_S / statistics.median(kernel)
            rec.measure(args.seconds)
            metrics = {
                "setup_s": (setup_s, "s"),
                "batch_s": (statistics.median(rec.batch), "s"),
                "slowest_kind_s": (max(statistics.median(v) for v in rec.times.values()), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }

        problems = [f"set-up: {p}" for p in wl.setup_checks()] + rec.check_kept()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        sys.stderr.write(f"check failed: {p}\n")
    sys.stderr.write(
        f"{args.workload}: {len(rec.batch)} rounds of {len(wl.ops)} operations, "
        f"{rec.failed} failed, {len(problems)} check problems; wall seconds: set-up {setup_wall:.3f}, "
        f"median round {statistics.median(rec.wall):.3f}\n"
    )
    result = {
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
