"""Command-line front door.

Subcommands:

* ``rigidify IN --epsilon p/q``: strongly rigid discrete perturbation; with
  ``--full``, the independence pipeline plus a certificate file.
* ``glue JOB``: amalgamate block metrics through a hub metric.
* ``product``: distance matrix of the strongly rigid product metric on words.
* ``verify``: run one oracle against a metric file.
* ``dist A B``: exact sup distance between two metrics.
* ``indep CERT``: re-check an emitted certificate offline.

Metrics are written in metric format 1 (:mod:`rigidmetrics.metric`).
Rationals are serialized as ``p/q`` strings, except that a term coefficient
``±2^e`` is written ``"2^e"``; ``--approx`` adds decimal renderings for
human reading (clearly non-authoritative), one per pair.  Outputs are
deterministic given inputs, seed and flags.

Exit codes: 0 success/pass, 1 fail, 2 unresolved, 3 parse or usage error,
4 invariant violation, 5 resource or degenerate input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .coded import DEFAULT_MAX_PRECISION
from .errors import DomainError, PrecisionError, ResourceError, UnresolvedComparison
from .glue import Partition, amalgamate, rigidify_full, verify_certificate
from .intervals import _frac_str, _parse_frac
from .metric import FiniteMetric, dump_metric, dumps_canonical, load_metric
from .product import tau, word_label
from .registry import ValueRegistry
from .rigidify import perturb_strongly_rigid
from . import verify as oracles

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNRESOLVED = 2
EXIT_PARSE = 3
EXIT_INVARIANT = 4
EXIT_RESOURCE = 5


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, the parse-error code, not argparse's 2 (unresolved)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and each ``parse_args`` call returns a fresh namespace."""
    parser = _Parser(
        prog="rigidmetrics",
        description="exact strongly rigid metric constructions and checks",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-precision", type=int, default=DEFAULT_MAX_PRECISION)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--approx", action="store_true",
                        help="add non-authoritative decimal renderings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rigidify", help="strongly rigid perturbation of a metric")
    p.add_argument("input", type=Path)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--full", action="store_true",
                   help="pairwise Q-independent distances plus certificate")
    p.add_argument("--out", type=Path)
    p.add_argument("--certificate", type=Path)

    p = sub.add_parser("glue", help="amalgamate block metrics through hubs")
    p.add_argument("job", type=Path)
    p.add_argument("--out", type=Path)

    p = sub.add_parser("product", help="product metric matrix on words")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--gauge", type=int, default=1)
    p.add_argument("--out", type=Path)

    p = sub.add_parser("verify", help="run one oracle")
    p.add_argument("--metric", type=Path, required=True)
    p.add_argument("--check", required=True,
                   choices=["metric", "strict", "sr", "rigid", "lnm", "embed"])
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--xi")

    p = sub.add_parser("dist", help="exact sup distance between two metrics")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)

    p = sub.add_parser("indep", help="re-check an emitted certificate")
    p.add_argument("certificate", type=Path)

    return parser


@contextmanager
def _decoding(what: str):
    """A field missing or ill-shaped while decoding an input is a parse error,
    and so is a rational with a zero denominator.

    Wrap only the decoding, so that errors of the pipeline itself still
    surface as they are.
    """
    try:
        yield
    except (KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {what}: {type(exc).__name__} {exc}") from exc


def _load_metric(path: Path, fmt: str) -> FiniteMetric:
    """Decode a metric file; a ``.csv`` suffix selects CSV over the default."""
    if fmt == "json" and path.suffix == ".csv":
        fmt = "csv"
    with _decoding("metric"):
        return load_metric(path.read_text(), fmt)


def _read_metric(path: Path, fmt: str) -> FiniteMetric:
    metric = _load_metric(path, fmt)
    report = oracles.is_metric(metric)
    if report.verdict == "fail":
        raise DomainError(f"input is not a metric: {report.detail} {report.witnesses}")
    if report.verdict == "unresolved":
        raise UnresolvedComparison("input metric axioms undecided")
    return metric


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _metric_payload(
    metric: FiniteMetric, fmt: str, approx: bool, payload: dict | None = None
) -> str:
    """The metric's file text, from ``payload`` when its JSON is built already."""
    if fmt == "csv":
        return dump_metric(metric, "csv")
    payload = metric.to_json() if payload is None else payload
    if approx:
        # on a copy, so the caller's payload stays as it was
        payload = {**payload, "approx_note": "decimal renderings are not authoritative",
                   "approx_pairs": [_approx(metric.at(i, j)) for i, j in metric.pairs()]}
    return dumps_canonical(payload)


def _approx(entry) -> float:
    enc = entry.eval(6)
    mid = (enc.lo + enc.hi) / 2
    return float(mid)


def _cmd_rigidify(args) -> int:
    d = _read_metric(args.input, args.format)
    with _decoding("--epsilon"):
        epsilon = _parse_frac(args.epsilon)
    if args.full:
        metric, certificate = rigidify_full(
            d, epsilon, seed=args.seed, max_precision=args.max_precision
        )
        cert_json = certificate.to_json(metric)
        cert_text = dumps_canonical(cert_json)
        cert_path = args.certificate
        if cert_path is None and args.out is not None:
            cert_path = args.out.with_suffix(".cert.json")
        if args.out is not None:
            _emit(_metric_payload(metric, "json", args.approx, cert_json["metric"]), args.out)
        if cert_path is not None:
            cert_path.write_text(cert_text)
        else:
            # the certificate embeds the metric; print just the certificate
            sys.stdout.write(cert_text)
    else:
        metric = perturb_strongly_rigid(d, epsilon, seed=args.seed)
        _emit(_metric_payload(metric, args.format, args.approx), args.out)
    return EXIT_PASS


def _cmd_glue(args) -> int:
    with _decoding("glue job"):
        job = json.loads(args.job.read_text())
        partition = Partition.from_json(job["partition"])
        blocks = [FiniteMetric.from_json(b) for b in job["block_metrics"]]
        hub = FiniteMetric.from_json(job["hub_metric"])
    glued = amalgamate(partition, blocks, hub)
    _emit(_metric_payload(glued, args.format, args.approx), args.out)
    return EXIT_PASS


def _cmd_product(args) -> int:
    if args.alphabet < 1 or args.length < 1:
        raise DomainError("alphabet and length must be positive")
    if args.gauge < 1:
        raise DomainError("gauge ids for blocks start at 1")
    registry = ValueRegistry(args.seed)
    gauge = None
    for _ in range(args.gauge):
        gauge = registry.fresh_gauge()
    words = _all_words(args.alphabet, args.length)
    labels = [word_label(w) for w in words]
    values = {}
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            values[(i, j)] = tau(gauge, args.k, words[i], words[j])
    metric = FiniteMetric.from_pair_function(labels, lambda i, j: values[(i, j)])
    _emit(_metric_payload(metric, "json", args.approx), args.out)
    return EXIT_PASS


def _all_words(alphabet: int, length: int) -> list[tuple[int, ...]]:
    words = [()]
    for _ in range(length):
        words = [w + (a,) for w in words for a in range(alphabet)]
    return [tuple(w) for w in words]


def _cmd_verify(args) -> int:
    metric = _load_metric(args.metric, args.format)
    mp = args.max_precision
    if args.check == "metric":
        report = oracles.is_metric(metric, mp)
    elif args.check == "strict":
        report = oracles.is_strict_triangle(metric, mp)
    elif args.check == "sr":
        report = oracles.is_strongly_rigid(metric, mp)
    elif args.check == "rigid":
        report = oracles.is_rigid(metric)
    elif args.check == "lnm":
        report = oracles.lnm_membership(metric, args.m, mp)
    else:
        if not args.xi:
            raise DomainError("--xi is required for the embedding check")
        report = oracles.distance_embedding_check(metric, args.xi, mp)
    sys.stdout.write(dumps_canonical(report.to_json()))
    if report.verdict == "pass":
        return EXIT_PASS
    if report.verdict == "fail":
        return EXIT_FAIL
    return EXIT_UNRESOLVED


def _cmd_dist(args) -> int:
    a = _load_metric(args.a, args.format)
    b = _load_metric(args.b, args.format)
    enc = oracles.sup_distance(a, b)
    ends = (enc.lo,) if enc.lo == enc.hi else (enc.lo, enc.hi)
    sys.stdout.write(" ".join(map(_frac_str, ends)) + "\n")
    return EXIT_PASS


def _cmd_indep(args) -> int:
    # the checker decodes the certificate as it checks it
    with _decoding("certificate"):
        report = verify_certificate(
            json.loads(args.certificate.read_text()), args.max_precision
        )
    sys.stdout.write(dumps_canonical(report.to_json()))
    if report.verdict == "pass":
        return EXIT_PASS
    return EXIT_FAIL if report.verdict == "fail" else EXIT_UNRESOLVED


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "rigidify": _cmd_rigidify,
        "glue": _cmd_glue,
        "product": _cmd_product,
        "verify": _cmd_verify,
        "dist": _cmd_dist,
        "indep": _cmd_indep,
    }
    try:
        return handlers[args.command](args)
    except (json.JSONDecodeError, FileNotFoundError, ValueError) as exc:
        if isinstance(exc, DomainError):
            sys.stderr.write(f"invariant violation: {exc}\n")
            return EXIT_INVARIANT
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except UnresolvedComparison as exc:
        sys.stderr.write(f"unresolved: {exc}\n")
        return EXIT_UNRESOLVED
    except (PrecisionError, ResourceError) as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
