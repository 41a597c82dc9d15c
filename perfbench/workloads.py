"""The four workloads: inputs made from the seed, timed operations, gates.

Every workload drives framesel only through its public functions (looked up
on the ``framesel`` package at call time, so tracing can wrap them) or
through the ``framesel`` CLI in a subprocess. ``iterate`` returns the wall
times of the workload's primary and secondary operations, one list each;
everything it
checks goes through the ``Gate``, which feeds ``attempted``/``failed``. The
times come from the ``refclock.Clock`` that ``iterate`` is given.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import framesel as fs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CLI_TIMEOUT_S = 150  # a run must end within 180 s; no single command comes close
SWEEP_N_MAX = 199
SWEEP_ARGS = ("sweep", "--k", "8", "--N", "25", "--n-min", "1", "--n-max", str(SWEEP_N_MAX))
SWEEP_COLUMNS = "k,N,m,n,lambda_max,a_n,excess,excess_sqrt_N,complement_lambda_min"
PIPELINE_K, PIPELINE_N, PIPELINE_SELECT = 32, 50, 800
KATZ_TRIALS = 4000


class Gate:
    """Counts checked outcomes; each failure is described on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"gate failed: {what}", file=sys.stderr)


def paused(tracer):
    """Checks are the benchmark's own work and stay out of the trace."""
    return tracer.paused() if tracer is not None else nullcontext()


def index_digest(steps) -> str:
    """sha256 of the selected indices in selection order."""
    return hashlib.sha256(",".join(str(s.index) for s in steps).encode()).hexdigest()


class Cli:
    """Starts ``framesel`` commands in the work directory and waits for them."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._traces = 0

    def run(self, args, tracer=None) -> int:
        args = [str(a) for a in args]
        if tracer is None:
            cmd = [sys.executable, "-m", "framesel.cli", *args]
            return self._run(cmd).returncode
        self._traces += 1
        spans_path = self.workdir / f"spans-{self._traces}.json"
        cmd = [sys.executable, str(HERE / "clitrace.py"), str(spans_path), "--", *args]
        with tracer.span("cli.process") as index:
            proc = self._run(cmd)
        with open(spans_path, encoding="utf-8") as fh:
            child = json.load(fh)
        spans_path.unlink()
        tracer.adopt(child["spans"], index)
        tracer.counts.update(child["counts"])
        tracer.process_start_ns += child["entry_ns"] - tracer.spans[index][1]
        if args[0] == "sweep":
            tracer.counts["cli.sweep.steps_run"] += sum(
                1 for span in child["spans"] if span[0] == "selector.selection_step"
            )
            tracer.counts["cli.sweep.n_max"] += SWEEP_N_MAX
        return proc.returncode

    def python(self, code: str) -> int:
        return self._run([sys.executable, "-c", code]).returncode

    def _run(self, cmd):
        proc = subprocess.run(
            cmd,
            cwd=self.workdir,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc


class Workload:
    """One set of inputs; subclasses define setup, warm-up and an iteration."""

    setup_reps = 1  # timed set-ups after each iteration, so setup_s samples the whole run

    def __init__(self, seed: int, workdir: Path, gate: Gate):
        self.seed = seed
        self.workdir = workdir
        self.gate = gate
        self.cli = Cli(workdir)
        self.digests: dict[str, set] = {}

    def record_digest(self, label: str, value: str) -> None:
        self.digests.setdefault(label, set()).add(value)

    def describe(self) -> str:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def iterate(self, clock, tracer=None) -> tuple[list[float], list[float]]:
        raise NotImplementedError

    def check_certificate(self, frame, cert) -> None:
        name = f"certificate n={cert.n}"
        self.gate.check(cert.lambda_max < cert.bound, f"{name}: lambda_max {cert.lambda_max} >= a_n {cert.bound}")
        lam_min, bound = fs.complement_lower_bound(frame, cert)
        self.gate.check(lam_min >= bound, f"{name}: complement lambda_min {lam_min} < 1 - a_n = {bound}")


class SelectWorkload(Workload):
    """select_subset, then verify_certificate ``verify_reps`` times, n = m/2.

    On the tall frame one replay is a tenth of a selection; repeating it gives
    verify_s enough samples per run for a steady median.
    """

    setup_reps = 5

    def __init__(self, k: int, N: int, verify_reps: int, *args):
        super().__init__(*args)
        self.k, self.N = k, N
        self.n = k * N // 2
        self.verify_reps = verify_reps

    def describe(self) -> str:
        return f"modulated frame k={self.k} N={self.N} m={self.k * self.N}, n={self.n}"

    def setup(self) -> None:
        frame = fs.modulated_harmonic_frame(self.k, self.N, seed=self.seed)
        report = fs.validate_frame(frame)
        self.gate.check(report.passed, f"frame invalid: {report.summary()}")
        self.frame = frame

    def warm_up(self) -> None:
        cert = fs.select_subset(self.frame, max(1, self.n // 8))
        fs.verify_certificate(self.frame, cert)

    def iterate(self, clock, tracer=None) -> tuple[list[float], list[float]]:
        cert, select_s = clock.time(lambda: fs.select_subset(self.frame, self.n))
        verify_s = []
        for _ in range(self.verify_reps):
            report, seconds = clock.time(lambda: fs.verify_certificate(self.frame, cert))
            verify_s.append(seconds)
            with paused(tracer):
                self.gate.check(report.passed, f"certificate does not replay: {report.failures()}")
        with paused(tracer):
            self.check_certificate(self.frame, cert)
            self.record_digest("indices", index_digest(cert.steps))
        return [select_s], verify_s


class CliWorkload(Workload):
    """`framesel sweep` on a harmonic frame, then a gen/select/verify chain."""

    def __init__(self, *args):
        super().__init__(*args)
        self.frame_path = self.workdir / "frame.json"
        self.cert_path = self.workdir / "cert.json"
        self.csv_path = self.workdir / "sweep.csv"

    def describe(self) -> str:
        return (
            f"{' '.join(SWEEP_ARGS)}; gen --kind modulated --k {PIPELINE_K} --N {PIPELINE_N} "
            f"--seed {self.seed} -> select --n {PIPELINE_SELECT} -> verify"
        )

    def setup(self) -> None:
        # interpreter start plus package import: what every CLI call pays first
        self.gate.check(self.cli.python("import framesel") == 0, "python -c 'import framesel' failed")

    def warm_up(self) -> None:
        self.cli.run(["gen", "--k", 2, "--N", 2, "--out", self.frame_path])

    def iterate(self, clock, tracer=None) -> tuple[list[float], list[float]]:
        # no check may pass on a file left over from the previous iteration
        for path in (self.csv_path, self.frame_path, self.cert_path):
            path.unlink(missing_ok=True)
        code, sweep_s = clock.time(lambda: self.cli.run([*SWEEP_ARGS, "--out", self.csv_path], tracer))
        self.gate.check(code == 0, f"sweep exited {code}")
        with paused(tracer):
            self.check_sweep(self.csv_path.read_bytes())

        codes, pipeline_s = clock.time(lambda: [
            self.cli.run(["gen", "--kind", "modulated", "--k", PIPELINE_K, "--N", PIPELINE_N,
                          "--seed", self.seed, "--out", self.frame_path], tracer),
            self.cli.run(["select", "--frame", self.frame_path, "--n", PIPELINE_SELECT,
                          "--out", self.cert_path], tracer),
            self.cli.run(["verify", "--frame", self.frame_path, "--cert", self.cert_path], tracer),
        ])
        for command, code in zip(("gen", "select", "verify"), codes):
            self.gate.check(code == 0, f"{command} exited {code}")
        with paused(tracer):
            self.check_pipeline()
        return [sweep_s], [pipeline_s]

    def check_sweep(self, data: bytes) -> None:
        self.record_digest("sweep_csv", hashlib.sha256(data).hexdigest())
        rows = list(csv.reader(io.StringIO(data.decode())))
        self.gate.check(rows[:1] == [SWEEP_COLUMNS.split(",")], f"sweep header is {rows[:1]}")
        self.gate.check(len(rows) == SWEEP_N_MAX + 1, f"sweep has {len(rows) - 1} rows")
        for expected_n, row in enumerate(rows[1:], start=1):
            try:
                k, N, m, n = (int(x) for x in row[:4])
                lam, a_n, _, _, comp = (float(x) for x in row[4:])
                ok = (
                    (k, N, m, n) == (8, 25, 200, expected_n)
                    and all(map(math.isfinite, (lam, a_n, comp)))
                    and lam < a_n
                    and comp >= 1.0 - a_n
                )
            except ValueError:
                ok = False
            self.gate.check(ok, f"sweep row {expected_n} fails its bound or does not parse: {row}")

    def check_pipeline(self) -> None:
        cert = fs.certificate_from_dict(json.loads(self.cert_path.read_bytes()))
        self.record_digest("indices", index_digest(cert.steps))
        self.check_certificate(fs.load_frame(self.frame_path), cert)


class KatzWorkload(Workload):
    """Dichotomy checks in-process, then the same sampled check via `framesel katz`."""

    def describe(self) -> str:
        return f"katz N=6 exhaustive + N=10 sampled, {KATZ_TRIALS} trials, seed {self.seed}"

    def setup(self) -> None:
        self.small = fs.build_katz(6)
        self.large = fs.build_katz(10)
        self.gate.check(
            (self.small.num_points, self.large.num_points) == (math.comb(12, 6), math.comb(20, 10)),
            "katz systems have the wrong size",
        )

    def warm_up(self) -> None:
        fs.dichotomy_check(self.small, mode="exhaustive")
        fs.dichotomy_check(self.large, mode="sampled", trials=KATZ_TRIALS // 8, seed=self.seed)

    def iterate(self, clock, tracer=None) -> tuple[list[float], list[float]]:
        report_path = self.workdir / "katz_report.json"
        report_path.unlink(missing_ok=True)
        (small, large), katz_s = clock.time(lambda: (
            fs.dichotomy_check(self.small, mode="exhaustive"),
            fs.dichotomy_check(self.large, mode="sampled", trials=KATZ_TRIALS, seed=self.seed),
        ))
        code, katz_cli_s = clock.time(lambda: self.cli.run(
            ["katz", "--N", 10, "--sampled", "--trials", KATZ_TRIALS, "--seed", self.seed, "--out", report_path],
            tracer,
        ))
        with paused(tracer):
            self.gate.check(small.passed and small.subsets_checked == 1 << 12, "N=6 exhaustive check failed")
            self.gate.check(large.passed and large.subsets_checked == KATZ_TRIALS, "N=10 sampled check failed")
            self.gate.check(code == 0, f"katz exited {code}")
            if code == 0:
                data = report_path.read_bytes()
                self.gate.check(json.loads(data).get("passed") is True, "katz CLI report did not pass")
                self.record_digest("katz_report", hashlib.sha256(data).hexdigest())
        return [katz_s], [katz_cli_s]


WORKLOADS = {
    "select-tall": lambda *args: SelectWorkload(8, 400, 4, *args),
    "select-wide": lambda *args: SelectWorkload(64, 25, 1, *args),
    "cli-sweep": CliWorkload,
    "katz-dichotomy": KatzWorkload,
}
