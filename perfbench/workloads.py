"""Workload definitions, the seeded corpus, and one job's execution.

A job is one input file carried through the CLI: a *build* command that
writes the output (``rigidify``, ``rigidify --full`` or ``product``), then a
*check* set that the program runs on that output (``indep CERT`` or a list of
``verify --check`` oracles).  Both are timed from input file to written
output.  Correctness checks that do not trust the program's own checker run
afterwards, outside the timed spans.

Every workload cycles through a fixed list of input shapes; each cycle holds
every shape once, in a seeded order, with fresh random content.  Runs always
end on a whole cycle, so every run sees the same mix of shapes and its
percentiles do not depend on where the clock happened to stop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import corpus

EXIT_PASS = 0


@dataclass
class Job:
    label: str
    pairs: int
    build: list[str]
    checks: list[list[str]]
    outputs: list[Path]
    # (input, output, epsilon) for the certificate-independent sup check
    sup_check: tuple[Path, Path, Fraction] | None = None
    # output metric that must pass ``verify --check sr`` outside the timing
    sr_check: Path | None = None


@dataclass
class JobResult:
    build_s: float
    check_s: float
    pairs: int
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0
    digest: bytes = b""
    # calibration factor for build_s and check_s, see clock.py
    scale: float = 1.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _call(cli_main: Callable, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _report_problem(argv: list[str], code: int, stdout: str) -> str | None:
    """A check command must exit 0 and print a ``pass`` report."""
    if code != EXIT_PASS:
        return f"{' '.join(argv)}: exit {code}, expected 0"
    try:
        verdict = json.loads(stdout)["verdict"]
    except (ValueError, KeyError, TypeError):
        return f"{' '.join(argv)}: unreadable report"
    return None if verdict == "pass" else f"{' '.join(argv)}: verdict {verdict}"


def run_job(
    cli_main: Callable,
    job: Job,
    probe: Callable[[str], contextlib.AbstractContextManager] | None = None,
    after_build: Callable[[Job], None] | None = None,
) -> JobResult:
    """Run one job; failures are recorded in the result, never raised.

    ``probe(name)`` wraps each timed command (the traced run records spans
    and profiles there); ``after_build`` lets a test tamper with the outputs
    between build and check.
    """
    probe = probe or (lambda name: contextlib.nullcontext())
    result = JobResult(0.0, 0.0, job.pairs)
    try:
        t0 = time.perf_counter()
        with probe("job.build"):
            code, _ = _call(cli_main, job.build)
        result.build_s = time.perf_counter() - t0
        if code != EXIT_PASS:
            result.problems.append(f"{job.label} build: exit {code}, expected 0")
            return result
        if after_build is not None:
            after_build(job)
        for argv in job.checks:
            t0 = time.perf_counter()
            with probe("job.check"):
                code, stdout = _call(cli_main, argv)
            result.check_s += time.perf_counter() - t0
            problem = _report_problem(argv, code, stdout)
            if problem:
                result.problems.append(f"{job.label} {problem}")
        result.problems += _independent_checks(cli_main, job)
        digest = hashlib.sha256()
        for path in job.outputs:
            data = path.read_bytes()
            result.output_bytes += len(data)
            digest.update(data)
        result.digest = digest.digest()
    except Exception as exc:  # one job's crash must not end the run
        result.problems.append(f"{job.label}: {type(exc).__name__}: {exc}")
    finally:
        for path in job.outputs:
            path.unlink(missing_ok=True)
    return result


def _independent_checks(cli_main: Callable, job: Job) -> list[str]:
    """Checks that do not rely on the certificate's own claims."""
    problems = []
    if job.sup_check is not None:
        src, out, eps = job.sup_check
        code, stdout = _call(cli_main, ["dist", str(src), str(out)])
        # ``dist`` prints the exact value, or a rational enclosure "lo hi"
        bound = Fraction(stdout.split()[-1]) if code == EXIT_PASS and stdout.strip() else None
        if bound is None or bound > eps:
            problems.append(f"{job.label} dist: exit {code}, sup {stdout.strip()!r} > {eps}")
    if job.sr_check is not None:
        argv = ["verify", "--metric", str(job.sr_check), "--check", "sr"]
        problem = _report_problem(argv, *_call(cli_main, argv))
        if problem:
            problems.append(f"{job.label} {problem}")
    return problems


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return path


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


class Workload:
    """A named job family: shapes per cycle, job construction, tail rank.

    ``tail_percentile`` is fixed per workload so that a faster program does
    not move ``.tail`` to another rank.  Each value leaves at least ten jobs
    beyond it when a 25-second run completes three quarters of the jobs it
    completes at the commit that introduced the benchmark, and falls inside
    one shape's share of the sorted job times rather than on a border
    between two shapes, where the value would jump with small changes in
    the job count.  ``min_cycles`` is the prefix over which the exact
    ``output_bytes`` and the output digest are taken; every run completes
    at least that many cycles.
    """

    name: str
    why: str
    shapes: list
    tail_percentile: int
    setup_cycles: int
    min_cycles = 2

    def make_job(self, rng: random.Random, shape, workdir: Path, tag: str) -> Job:
        raise NotImplementedError


class _Certify(Workload):
    epsilon = Fraction(1, 2)

    def payload(self, rng: random.Random, shape) -> dict:
        raise NotImplementedError

    def make_job(self, rng, shape, workdir, tag):
        payload = self.payload(rng, shape)
        src = _write(workdir / f"{tag}.json", payload)
        out, cert = workdir / f"{tag}.out.json", workdir / f"{tag}.cert.json"
        eps = f"{self.epsilon.numerator}/{self.epsilon.denominator}"
        return Job(
            label=tag,
            pairs=_pairs(len(payload["points"])),
            build=["--seed", str(rng.randrange(1 << 16)), "rigidify", str(src),
                   "--epsilon", eps, "--full", "--out", str(out),
                   "--certificate", str(cert)],
            checks=[["indep", str(cert)]],
            outputs=[out, cert],
            sup_check=(src, out, self.epsilon),
            sr_check=out,
        )


class CertifySpread(_Certify):
    name = "certify-spread"
    why = ("singleton blocks: hub allocation, O(n^4) pairwise independence "
           "records and hub replay, the path a smaller certificate rewrites")
    shapes = [5, 6, 7, 8, 9]
    tail_percentile = 70
    setup_cycles = 10

    def payload(self, rng, shape):
        return corpus.spread_metric(rng, shape)


class CertifyClustered(_Certify):
    name = "certify-clustered"
    why = ("multi-point blocks: per-gauge tau replay of block components "
           "and coded sup gaps, where hub-path changes should not show")
    shapes = [(2, 3), (2, 4), (3, 3)]
    tail_percentile = 55
    setup_cycles = 12

    def payload(self, rng, shape):
        return corpus.clustered_metric(rng, *shape)


class OracleCoded(Workload):
    name = "oracle-coded"
    why = ("triangle and rigidity oracles on tau product metrics: coded "
           "canonicalization and the symbolic sign engine do nearly all work")
    # (alphabet, length, k): 8 and 9 words, every exponent offset k once
    shapes = [(a, n, k) for a, n in ((2, 3), (3, 2)) for k in range(4)]
    tail_percentile = 65
    min_cycles = 1
    setup_cycles = 6

    def make_job(self, rng, shape, workdir, tag):
        alphabet, length, k = shape
        out = workdir / f"{tag}.json"
        words = alphabet ** length
        return Job(
            label=tag,
            pairs=_pairs(words),
            build=["--seed", str(rng.randrange(1 << 16)), "product",
                   "--alphabet", str(alphabet), "--length", str(length),
                   "--k", str(k), "--gauge", str(rng.randint(1, 3)),
                   "--out", str(out)],
            # tau metrics are strongly rigid metrics with strict triangles
            checks=[["verify", "--metric", str(out), "--check", c]
                    for c in ("metric", "strict", "sr")],
            outputs=[out],
        )


class DiscreteRational(Workload):
    name = "discrete-rational"
    why = ("rigidify without --full on mixed denominators: registry streams, "
           "rational fast paths of compare, and CLI overhead")
    shapes = [4, 5, 6, 7, 8]
    tail_percentile = 95
    min_cycles = 10
    # few files: creating a thousand varies by 2-3x on shared disks
    setup_cycles = 20

    def make_job(self, rng, shape, workdir, tag):
        payload = corpus.mixed_metric(rng, shape)
        eps = rng.choice(corpus.MIXED_EPSILONS)
        src = _write(workdir / f"{tag}.json", payload)
        out = workdir / f"{tag}.out.json"
        return Job(
            label=tag,
            pairs=_pairs(shape),
            build=["--seed", str(rng.randrange(1 << 16)), "rigidify", str(src),
                   "--epsilon", eps, "--out", str(out)],
            # the discrete perturbation is a strict, strongly rigid metric;
            # strong rigidity implies no nontrivial isometry
            checks=[["verify", "--metric", str(out), "--check", c]
                    for c in ("metric", "strict", "sr", "rigid")],
            outputs=[out],
            sup_check=(src, out, Fraction(eps)),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (CertifySpread(), CertifyClustered(), OracleCoded(), DiscreteRational())
}


class Corpus:
    """Seeded jobs of one workload, written under ``workdir``.

    Cycle ``c`` depends only on the workload name, the seed and ``c``, so
    the inputs a run sees do not depend on how far an earlier cycle got.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self._cycles: dict[int, list[Job]] = {}
        rng = random.Random(f"{workload.name}:{seed}:warmup")
        shape = workload.shapes[len(workload.shapes) // 2]
        self.warmup = workload.make_job(rng, shape, workdir, "warmup")
        for c in range(workload.setup_cycles):
            self.cycle(c)

    def cycle(self, c: int) -> list[Job]:
        if c not in self._cycles:
            rng = random.Random(f"{self.workload.name}:{self.seed}:{c}")
            shapes = list(self.workload.shapes)
            rng.shuffle(shapes)
            self._cycles[c] = [
                self.workload.make_job(rng, shape, self.workdir, f"c{c}j{i}")
                for i, shape in enumerate(shapes)
            ]
        return self._cycles[c]
