"""Amalgamation of block metrics through hub points, and the full pipeline.

``amalgamate`` glues per-block metrics with a hub metric:

    D(x, y) = e_i(x, y)                                  same block,
    D(x, y) = e_i(x, p_i) + h(p_i, p_j) + e_j(p_j, y)    across blocks,

restricting exactly to each block.  When every block has diameter at most
``eps`` under both the original and the block metrics, the sup distance from
the original is at most ``4 * eps`` plus the hub defect.

``rigidify_full`` runs the whole construction: partition with diameter bound
``eta = epsilon / 5``, give every block its own gauge and the product metric
on one-letter words (diameter at most ``2^-k <= eta``), place hub-pool
values strictly inside the subadditivity windows of
``rigidify.subadditive_window``, ``eta_h * (N + 1/(N+2), N + 1/(N+1))`` with
``eta_h = eta / 2`` (:func:`_hub_metric`), glue, and emit a certificate:
the input, the exact sup bound, strong rigidity, and one row per distance,
in pair order, of its nonzero tagged summands
(:meth:`_Construction.components`).  One row pass
(:func:`_row_failure`) shows the per-sum hypotheses, an independent-of-1
trace witness per row, found and not stored, and pairwise different
component multisets.  The certificate states no ladder, no partition and,
of each hub, only its ``p``.  ``verify_certificate`` writes a certificate
again: it takes the input, ``epsilon`` and the registry as stated and
derives everything else with the builder's functions (:func:`_scales`,
:func:`partition_by_diameter`, :func:`_hub_metric`); what it decodes and
what it derives must be the writer's JSON, and it runs the same row pass.

The sup bound is one per-pair scan (``_certify_sup_bound``) shared by
``rigidify_full``, ``verify_certificate`` and ``sup_bound_check``.  A pair
whose rational enclosure lies strictly inside the allowance is settled by
it; only the rest go through the exact engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import ceil
from operator import add
from typing import Callable, Iterable, Sequence

from .coded import (
    DEFAULT_MAX_PRECISION,
    CodedReal,
    Enclosure,
    GREATER,
    LESS,
    UNRESOLVED,
    _signed_sum,
    as_coded,
    compare,
    equals,
)
from .errors import DomainError, PrecisionError, UnresolvedComparison
from .independence import (
    SumComponent,
    find_interval_trace_witness,
    multiset_key,
    tagged_sum_holds,
)
from .intervals import _decode_scope, _frac_str, _parse_frac
from .metric import FiniteMetric
from .product import SemiMetricGauge, tau
from .registry import (
    RESERVED_GAUGE_ID,
    HubAllocation,
    ValueRegistry,
    _StatedHubs,
    read_snapshot,
    snapshot_json,
)
from .rigidify import subadditive_window
from .verify import Report, _abs_enclosure, _eval_halving, is_strongly_rigid

CERTIFICATE_VERSION = 6
# the top-level keys RigidifyCertificate.to_json writes
_CERTIFICATE_KEYS = {"version", "input", "metric", "registry", "independence", "sup_bound"}
# the significant bits of each end of the stated sup enclosure
_SUP_BITS = 64


@dataclass(frozen=True)
class Partition:
    blocks: tuple[tuple[str, ...], ...]
    hubs: tuple[str, ...]
    _block_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.hubs):
            raise DomainError("one hub per block")
        block_of: dict[str, int] = {}
        for idx, (block, hub) in enumerate(zip(self.blocks, self.hubs)):
            if hub not in block:
                raise DomainError(f"hub {hub} outside its block")
            for label in block:
                if label in block_of:
                    raise DomainError(f"blocks overlap at {label}")
                block_of[label] = idx
        object.__setattr__(self, "_block_of", block_of)

    def labels(self) -> tuple[str, ...]:
        return tuple(x for block in self.blocks for x in block)

    def block_of(self, label: str) -> int:
        idx = self._block_of.get(label)
        if idx is None:
            raise DomainError(f"{label} is not covered")
        return idx

    @staticmethod
    def from_json(data: dict) -> "Partition":
        return Partition(
            tuple(tuple(b) for b in data["blocks"]), tuple(data["hubs"])
        )


def partition_by_diameter(d: FiniteMetric, bound: Fraction) -> Partition:
    """Greedy cover by blocks of diameter at most ``bound``; seeds become hubs.

    Each unassigned point seeds a block and absorbs all unassigned points
    within ``bound / 2`` of it.  The distances must be rational, else
    ``DomainError``: the pipeline takes rational input only.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise DomainError("diameter bound must be positive")
    if not d.is_rational_valued():
        raise DomainError("the pipeline expects a rational input metric")
    half = bound / 2
    unassigned = list(range(d.size))
    blocks: list[tuple[str, ...]] = []
    hubs: list[str] = []
    while unassigned:
        seed, *others = unassigned
        row = d.matrix[seed]
        members = [seed, *(j for j in others if row[j].offset <= half)]
        unassigned = [j for j in others if row[j].offset > half]
        blocks.append(tuple(d.points[i] for i in members))
        hubs.append(d.points[seed])
    return Partition(tuple(blocks), tuple(hubs))


def amalgamate(
    partition: Partition, block_metrics: Sequence[FiniteMetric], hub_metric: FiniteMetric
) -> FiniteMetric:
    """Glue block metrics through the hub metric; restrictions stay exact.
    A distance is the sum of its nonzero :func:`_summands`."""
    if len(block_metrics) != len(partition.blocks):
        raise DomainError("one block metric per block")
    for block, metric in zip(partition.blocks, block_metrics):
        if tuple(metric.points) != tuple(block):
            raise DomainError("block metric points must match the block")
    if tuple(hub_metric.points) != tuple(partition.hubs):
        raise DomainError("hub metric points must match the hubs")
    for i, j in hub_metric.pairs():
        value = hub_metric.at(i, j)
        if value.is_zero_form() or equals(value, 0):
            raise DomainError("hub metric must be positive off the diagonal")

    labels = partition.labels()

    def glued(a: int, b: int) -> CodedReal:
        values = [v for _, _, v in _summands(partition, block_metrics, hub_metric,
                                             labels[a], labels[b])]
        return values[0] if len(values) == 1 else _signed_sum((1, v) for v in values)

    return FiniteMetric.from_pair_function(labels, glued)


def _summands(
    partition: Partition, block_metrics: Sequence[FiniteMetric], hub_metric: FiniteMetric,
    a: str, b: str,
) -> tuple[tuple[int | None, tuple[str, str], CodedReal], ...]:
    """The nonzero summands of the glued distance ``D(a, b)`` as ``(block,
    detail, value)``, the block legs of ``a`` and ``b`` first: ``block`` is the
    position of a block value's block, None for the hub value."""
    ba, bb = partition.block_of(a), partition.block_of(b)
    if ba == bb:
        return ((ba, (a, b), block_metrics[ba].distance(a, b)),)
    ha, hb = partition.hubs[ba], partition.hubs[bb]
    summands = (
        (ba, (a, ha), block_metrics[ba].distance(a, ha)),
        (bb, (hb, b), block_metrics[bb].distance(hb, b)),
        (None, (ha, hb), hub_metric.distance(ha, hb)),
    )
    return tuple(s for s in summands if not s[2].is_zero_form())


def sup_bound_check(
    d: FiniteMetric,
    glued: FiniteMetric,
    partition: Partition,
    epsilon: Fraction,
    hub_metric: FiniteMetric,
    max_precision: int = DEFAULT_MAX_PRECISION,
) -> Report:
    """Exact check of ``sup |glued - d| <= 4 * epsilon + sup_hubs |d - h|``.

    Preconditions (every block has diameter at most ``epsilon`` under both
    ``d`` and its block metric) are verified first; their failure is reported
    as such, not as a bound failure.
    """
    epsilon = Fraction(epsilon)
    labels = list(glued.points)
    d = d.restrict(labels)
    for block in partition.blocks:
        for metric in (d.restrict(block), glued.restrict(block)):
            for i, j in metric.pairs():
                order = compare(metric.at(i, j), epsilon, max_precision)
                if order == GREATER:
                    return Report(
                        "fail",
                        ((block[i], block[j]),),
                        "precondition-failure: block diameter exceeds epsilon",
                        max_precision,
                    )
                if order == UNRESOLVED:
                    return Report("unresolved", ((block[i], block[j]),), "precondition",
                                  max_precision)
    hub_defect = as_coded(0)
    d_hubs = d.restrict(list(partition.hubs))
    for i, j in d_hubs.pairs():
        gap = _abs_exact(d_hubs.at(i, j) - hub_metric.at(i, j), max_precision)
        if compare(gap, hub_defect, max_precision) == GREATER:
            hub_defect = gap
    allowance = as_coded(4 * epsilon) + hub_defect
    offending, sup = _certify_sup_bound(d, glued, allowance, max_precision)
    if offending is None:
        return Report("pass", (), f"sup bound holds; sup in [{sup.lo}, {sup.hi}]",
                      max_precision)
    return _sup_failure(offending, max_precision)


def _sup_failure(offending: tuple[tuple[str, str], str], max_precision: int) -> Report:
    pair, order = offending
    if order == GREATER:
        return Report("fail", (pair,), "sup bound exceeded", max_precision)
    return Report("unresolved", (pair,), "sup bound", max_precision)


def _abs_exact(value: CodedReal, max_precision: int) -> CodedReal:
    order = compare(value, 0, max_precision)
    if order == UNRESOLVED:
        raise UnresolvedComparison("cannot orient a difference")
    return -value if order == LESS else value


@dataclass(frozen=True)
class RigidifyCertificate:
    source: FiniteMetric
    epsilon: Fraction
    k: int
    partition: Partition
    sup_lo: Fraction
    sup_hi: Fraction
    independence: tuple[dict, ...]
    registry: ValueRegistry

    def to_json(self, metric: FiniteMetric) -> dict:
        return {
            "version": CERTIFICATE_VERSION,
            "input": self.source.to_json(),
            "metric": metric.to_json(),
            "registry": self.registry.snapshot(),
            "independence": list(self.independence),
            "sup_bound": _sup_bound_json(self.epsilon, self.sup_lo, self.sup_hi),
        }

    @cached_property
    def registry_snapshot(self) -> dict:
        """The registry with each hub record under its index, its ``p``, ``q`` and
        ``words`` spelled out: built on first access, never written."""
        hubs = {str(i): {"p": _frac_str(a.p), "q": _frac_str(a.q),
                         "words": [list(w) for w in a.words]}
                for i, a in sorted(self.registry.hub_allocations().items())}
        return {**self.registry.snapshot(), "hubs": hubs}


def _sup_bound_json(epsilon: Fraction, lo: Fraction, hi: Fraction) -> dict:
    return dict(epsilon=_frac_str(epsilon), achieved_lo=_frac_str(lo), achieved_hi=_frac_str(hi))


def rigidify_full(
    d: FiniteMetric,
    epsilon: Fraction,
    seed: int = 0,
    max_precision: int = DEFAULT_MAX_PRECISION,
) -> tuple[FiniteMetric, RigidifyCertificate]:
    """Perturb ``d`` into a metric with pairwise Q-independent distances.

    The output is within ``epsilon`` of ``d`` in sup distance (exactly),
    strongly rigid, and every distance carries a validated independence row.
    """
    epsilon = Fraction(epsilon)
    eta, k = _scales(epsilon)
    if d.size < 2:
        raise DomainError("need at least two points")

    registry = ValueRegistry(seed)
    partition = partition_by_diameter(d, eta)
    gauges = [registry.fresh_gauge() for _ in partition.blocks]
    block_metrics = _block_metrics(partition, gauges, k)
    hub_metric, hub_index = _hub_metric(d, partition, eta, k, registry)
    parts = _Construction(partition, tuple(g.gauge_id for g in gauges), block_metrics,
                          hub_metric, hub_index)
    glued = parts.glued(d.points)

    offending, sup = _certify_sup_bound(d, glued, epsilon, max_precision)
    if offending is not None:
        (a, b), order = offending
        verdict = "violated" if order == GREATER else "undecided"
        raise UnresolvedComparison(f"sup bound {verdict} at ({a}, {b})")
    rigidity = is_strongly_rigid(glued, max_precision)
    if not rigidity.passed:
        raise UnresolvedComparison(f"strong rigidity not certified: {rigidity.detail}")

    pairs = [(d.points[i], d.points[j]) for i, j in d.pairs()]
    independence = _pairwise_independence(parts, pairs)
    certificate = RigidifyCertificate(
        source=d, epsilon=epsilon, k=k, partition=partition, sup_lo=sup.lo, sup_hi=sup.hi,
        independence=tuple(independence), registry=registry,
    )
    return glued, certificate


def _scales(epsilon: Fraction) -> tuple[Fraction, int]:
    """The block diameter bound ``eta = epsilon / 5`` and the ladder, the
    least ``k >= 0`` with ``2^-k <= eta``."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    eta = epsilon / 5
    n, d = eta.numerator, eta.denominator
    # d / n lies in (2^(k - 1), 2^(k + 1)) for k the difference of the bit
    # lengths, so the least k with n * 2^k >= d is it or the one above
    k = max(d.bit_length() - n.bit_length(), 0)
    if n << k < d:
        k += 1
    return eta, k


def _block_metrics(
    partition: Partition, gauges: Sequence[SemiMetricGauge], k: int
) -> tuple[FiniteMetric, ...]:
    """Per block, the product metric of its gauge on one-letter words, letter
    ``i`` for the block's ``i``-th point; its diameter is below ``2^-k``."""
    return tuple(
        FiniteMetric.from_pair_function(block, lambda i, j, g=gauge: tau(g, k, (i,), (j,)))
        for block, gauge in zip(partition.blocks, gauges)
    )


def _hub_metric(
    d: FiniteMetric, partition: Partition, eta: Fraction, k: int, registry: ValueRegistry
) -> tuple[FiniteMetric, dict[tuple[str, str], int]]:
    """Strongly rigid hub metric within ``eta`` of ``d`` on the hubs, or
    ``DomainError``, with each hub pair's allocation index, in both orders.

    Hub distances are rounded up to integers at step ``eta_h = eta / 2`` and
    replaced by hub-pool values whose rational part is drawn inside the
    scaled windows ``subadditive_window(N) * eta_h``; hub pair ``t`` (hubs
    ``i < j`` in partition order) takes allocation index ``base_index + t``.
    Each value must sit in a window (:func:`_hub_window_index`), the window
    integers subadditive on every hub triple, so the hub metric is a metric
    with the strict triangle inequality; the defect stays below ``eta``.
    The checker places the hubs here too, from the stated ``p``."""
    names = partition.hubs
    eta_h = eta / 2
    hubs = d.restrict(list(names))
    hub_pairs = list(hubs.pairs())
    integers = [ceil(hubs.at(i, j).rational_value() / eta_h) for i, j in hub_pairs]
    n_max = max(integers, default=0)
    # The least base index with 4 * 2^-base_index below the narrowest scaled
    # window, eta_h / ((n_max + 1) * (n_max + 2)).  The basis is below 2^-k
    # and q = 2^(k - i), so the coded fuzz of index i >= base_index stays
    # below 2^-i, summable, and below the shrink 2^(1 - base_index) off every
    # window's top, which leaves more than half of each window to draw p from.
    base_index = int(4 * (n_max + 1) * (n_max + 2) / eta_h).bit_length()
    shrink = Fraction(2, 1 << base_index)
    placed = [[0] * len(names) for _ in names]
    entries: dict[tuple[int, int], CodedReal] = {}
    hub_index: dict[tuple[str, str], int] = {}
    for index, ((i, j), n) in enumerate(zip(hub_pairs, integers), start=base_index):
        lo, hi = subadditive_window(n)
        entries[(i, j)] = registry.hub_value(k, index, eta_h * lo, eta_h * hi - shrink)
        window = _hub_window_index(registry.hub_allocation(index), eta_h, k)
        if window is None:
            raise DomainError(f"hub record {index} lies outside its window")
        placed[i][j] = placed[j][i] = window
        hub_index[(names[i], names[j])] = hub_index[(names[j], names[i])] = index
    # N_ij <= N_im + N_mj for every m; m = i and m = j give N_ij itself
    if any(min(map(add, placed[i], placed[j])) < placed[i][j] for i, j in hub_pairs):
        raise DomainError("the hub window integers are not subadditive")
    return FiniteMetric.from_pair_function(names, lambda i, j: entries[(i, j)]), hub_index


def _hub_window_index(alloc: HubAllocation, eta_h: Fraction, k: int) -> int | None:
    """``N = floor(p / eta_h)`` when the hub record's value ``p + q * basis``
    lies strictly inside ``eta_h * subadditive_window(N)``, else None.

    The basis, one ``<gamma_k, S>`` of coefficient 1, is below ``2^-k`` and
    ``q > 0``, so ``lo < p`` and ``p + q * 2^-k < hi`` place the value
    without an eval; both are tested on integers.
    """
    # in units of eta_h: p = n + rest / den and the fuzz q * 2^-k = fn / fd
    num, den = alloc.p.numerator * eta_h.denominator, alloc.p.denominator * eta_h.numerator
    n, rest = divmod(num, den)
    if n < 1:
        return None
    fn, fd = alloc.q.numerator * eta_h.denominator, (alloc.q.denominator * eta_h.numerator) << k
    # subadditive_window(n), less n: 1/(n+2) < rest / den and rest / den + fn / fd < 1/(n+1)
    return n if rest * (n + 2) > den and (rest * fd + fn * den) * (n + 1) < den * fd else None


def _certify_sup_bound(
    d: FiniteMetric,
    glued: FiniteMetric,
    allowance: Fraction | CodedReal,
    max_precision: int,
) -> tuple[tuple[tuple[str, str], str] | None, Enclosure]:
    """Per-pair scan of ``|glued - d| <= allowance`` on shared labels.

    Returns the first pair that exceeds the allowance or cannot be compared
    with it, with that ordering (or None when every pair is within), and an
    enclosure of the sup over the pairs scanned before it, rounded outward
    by :func:`_rounded_out`.

    Each pair's difference gets one ``eval`` enclosure, the one the sup is
    read from.  When it lies strictly above or below 0 and its absolute
    ``hi`` is strictly below the allowance (below the ``lo`` of the
    allowance's own enclosure when that is coded), the pair is within and
    the exact engine is skipped.  Every other pair, including one whose
    enclosure is out of reach, is oriented and compared exactly in the same
    loop order, so the first offending pair and its ordering are those of
    the exact scan.  ``eval(-x)`` is ``eval(x)`` mirrored, so the sup
    enclosure is the same either way.  A settled pair is never sent to the
    exact engine, so one whose index sets reach past the engine's level
    range no longer raises ``PrecisionError`` here.
    """
    try:
        allowance_lo = _eval_halving(as_coded(allowance)).lo
    except PrecisionError:
        allowance_lo = None
    sup_lo = sup_hi = Fraction(0)
    for i, j in d.pairs():
        diff = glued.at(i, j) - d.at(i, j)
        try:
            # lo > 0 exactly when diff's enclosure lies strictly off 0
            enc = _abs_enclosure(diff)
        except PrecisionError:
            enc = None
        if (enc is None or allowance_lo is None
                or not (enc.lo > 0 and enc.hi < allowance_lo)):
            gap = _abs_exact(diff, max_precision)
            order = compare(gap, allowance, max_precision)
            if order in (GREATER, UNRESOLVED):
                return ((d.points[i], d.points[j]), order), _rounded_out(sup_lo, sup_hi,
                                                                         allowance)
            enc = _eval_halving(gap)
        sup_lo = max(sup_lo, enc.lo)
        sup_hi = max(sup_hi, enc.hi)
    return None, _rounded_out(sup_lo, sup_hi, allowance)


def _rounded_out(lo: Fraction, hi: Fraction, allowance: Fraction | CodedReal) -> Enclosure:
    """``[lo, hi]`` with ``0 <= lo <= hi`` widened to ends of ``_SUP_BITS``
    significant bits, ``lo`` rounded down and ``hi`` up, where ``hi`` stays
    at most a rational ``allowance`` it did not exceed."""
    rounded_hi = _round_dyadic(hi, up=True)
    allowance = as_coded(allowance)
    if allowance.is_rational and hi <= allowance.offset:
        rounded_hi = min(rounded_hi, allowance.offset)
    return Enclosure(_round_dyadic(lo, up=False), rounded_hi)


def _round_dyadic(x: Fraction, up: bool) -> Fraction:
    """``x >= 0`` rounded down (up when ``up``) to ``m * 2^-s`` for the
    ``s`` with ``2^(_SUP_BITS - 1) <= x * 2^s < 2^_SUP_BITS``; 0 stays 0."""
    n, d = x.numerator, x.denominator
    if n == 0:
        return x
    # n / d lies in (2^(t-1), 2^(t+1)) for t the difference of their bit
    # lengths, so m = floor(x * 2^s) has _SUP_BITS or one more bits
    s = _SUP_BITS - (n.bit_length() - d.bit_length())
    m, rest = divmod(n << s, d) if s >= 0 else divmod(n, d << -s)
    if m >> _SUP_BITS:
        m, rest, s = m >> 1, rest or m & 1, s - 1
    if up and rest:
        m += 1
    return Fraction(m, 1 << s) if s >= 0 else Fraction(m << -s)


@dataclass(frozen=True)
class _Construction:
    """What a glued metric is made of: each block's gauge id and metric, the
    hub metric, and each hub pair's allocation index, in both orders."""

    partition: Partition
    block_gauges: tuple[int, ...]
    block_metrics: tuple[FiniteMetric, ...]
    hub_metric: FiniteMetric
    hub_index: dict[tuple[str, str], int]

    def glued(self, points: Sequence[str]) -> FiniteMetric:
        """The amalgamated metric, in the order of ``points``."""
        return amalgamate(self.partition, self.block_metrics, self.hub_metric).restrict(points)

    def components(self, a: str, b: str) -> tuple[SumComponent, ...]:
        """The distance's summands (:func:`_summands`), each tagged with its
        block's gauge or its hub pair's allocation index."""
        return tuple(
            SumComponent("hub", hub_index=self.hub_index[detail], detail=detail, value=value)
            if block is None else
            SumComponent("block", gauge_id=self.block_gauges[block], detail=detail, value=value)
            for block, detail, value in _summands(
                self.partition, self.block_metrics, self.hub_metric, a, b)
        )


def _pairwise_independence(parts: _Construction, pairs: Sequence[tuple[str, str]]) -> list[dict]:
    """One validated independence row per distance, in pair order, naming no pair."""
    rows = [(pair, parts.components(*pair)) for pair in pairs]
    failure = _row_failure(rows, parts.block_gauges)
    if failure is not None:
        detail, witnesses = failure
        raise UnresolvedComparison(f"{detail} for {' and '.join(map(str, witnesses))}")
    return [_row_json(comps) for _, comps in rows]


def _row_json(
    components: Sequence[SumComponent], spell: Callable[[CodedReal], dict] = CodedReal.to_json
) -> dict:
    """The certificate row that states a distance's components, each value
    spelled by ``spell``."""
    return {"certificate": {"left": [c.to_json(spell) for c in components]}}


def _row_failure(
    rows: Sequence[tuple[tuple[str, str], tuple[SumComponent, ...]]],
    block_gauges: Sequence[int],
) -> tuple[str, tuple[tuple[str, str], ...]] | None:
    """The row pass of the builder and the checker, in row order: the detail
    and pairs of the first row that fails the tagged-sum hypotheses, has no
    trace witness, or repeats an earlier row's component multiset; else None."""
    earlier: dict[tuple, tuple[str, str]] = {}
    for pair, comps in rows:
        if not tagged_sum_holds(comps, block_gauges):
            return "independence hypotheses failed", (pair,)
        if _trace_witness_for(comps) is None:
            return "no independent-of-1 witness", (pair,)
        first = earlier.setdefault(multiset_key(comps), pair)
        if first != pair:
            return "equal component multisets", (first, pair)
    return None


def _trace_witness_for(components: Sequence[SumComponent]) -> int | None:
    """A distance's independent-of-1 witness: the index of one shared window
    over the distinct index sets, in order, of its components' terms; None
    unless there are sets on one ladder and a window fits them."""
    terms = [t for c in components for t in c.value.terms]
    if len({t.k for t in terms}) != 1:
        return None
    return find_interval_trace_witness(tuple(dict.fromkeys(t.index_set for t in terms)))


def verify_certificate(data: dict, max_precision: int = DEFAULT_MAX_PRECISION) -> Report:
    """Re-check an emitted certificate by writing it again.

    ``ValueError`` unless it is format 6 with the writer's top-level keys and
    each part it decodes in one decode scope (``input``, ``registry``,
    ``sup_bound.epsilon``) is the writer's JSON of it.  Those three are all
    it takes as stated: the ladder, the partition and each hub's index, words
    and ``q`` are derived by the builder's own rules.  Then: the registry
    invariants, the replay, the rows and the metric as written from the
    replayed parts (the first that differs names its pair), the row pass,
    the sup bound as written from ``input``, and strong rigidity.  Point
    labels in the rows and the metric must have the input's types as well
    as its values (:func:`_typed`)."""
    def fail(witnesses: tuple, detail: str) -> Report:
        return Report("fail", witnesses, detail, max_precision)

    if data.get("version") != CERTIFICATE_VERSION or type(data["version"]) is not int:
        raise ValueError("unsupported certificate version")
    if data.keys() != _CERTIFICATE_KEYS:
        raise ValueError("the certificate's keys are not the writer's")
    with _decode_scope():
        source = FiniteMetric.from_json(data["input"])
        seed, gauges, ps = read_snapshot(data["registry"])
        epsilon = _parse_frac(data["sup_bound"]["epsilon"])
    _written_as(data["input"], source.to_json(), "input")
    _written_as(data["registry"], snapshot_json(seed, gauges, ps), "registry")
    _written_as(data["sup_bound"]["epsilon"], _frac_str(epsilon), "sup_bound.epsilon")
    problem = _registry_problem(gauges)
    if problem is not None:
        return fail((), f"registry invariant failed: {problem}")
    try:
        parts = _replayed_construction(source, epsilon, gauges, ps)
    except DomainError:
        return fail((), "component replay failed")
    pairs = [(source.points[i], source.points[j]) for i, j in source.pairs()]
    # A row's components and its metric entry can be one object, which the
    # parts hold: spell each once, by identity, for comparison only.
    spellings: dict[int, dict] = {}

    def spell(value: CodedReal) -> dict:
        return spellings.get(id(value)) or spellings.setdefault(id(value), value.to_json())

    rows = [(pair, parts.components(*pair)) for pair in pairs]
    written = [_row_json(comps, spell) for _, comps in rows]
    labels = set(_typed(source.points))
    differing = _misstated(pairs, data["independence"], written,
                           lambda row: _row_typed(row, labels))
    if differing is not None:
        return fail(differing, "component replay failed")
    metric = parts.glued(source.points)
    written = metric.to_json(spell)
    stated = data["metric"] if isinstance(data["metric"], dict) else {}
    if stated.get("points") != written["points"] or not labels.issuperset(_typed(stated["points"])):
        return fail((), "input and metric have different points")
    differing = _misstated(pairs, stated.get("pairs"), written["pairs"], _value_typed)
    if differing:
        return fail(differing, "components do not sum to the metric entry")
    if differing is not None or stated != written or type(stated["version"]) is not int:
        return fail((), "metric differs from the derived one")
    failure = _row_failure(rows, parts.block_gauges)
    if failure is not None:
        return fail(failure[1], failure[0])
    offending, enc = _certify_sup_bound(source, metric, epsilon, max_precision)
    if offending is not None:
        return _sup_failure(offending, max_precision)
    if data["sup_bound"] != _sup_bound_json(epsilon, enc.lo, enc.hi):
        return fail((), "claimed sup bound differs from the recomputed one")
    rigidity = is_strongly_rigid(metric, max_precision)
    if not rigidity.passed:
        return Report(rigidity.verdict, rigidity.witnesses, "strong rigidity recheck",
                      max_precision)
    return Report("pass", (), f"{len(rows)} independence rows verified", max_precision)


def _written_as(stated: object, written: object, what: str) -> None:
    """Raise ``ValueError`` unless ``stated`` is ``written``, the writer's JSON of its decode."""
    if stated != written:
        raise ValueError(f"certificate part {what} is not spelled the way the writer spells it")


def _misstated(pairs: Sequence[tuple[str, str]], stated: object, written: list,
               typed: Callable[[dict], bool]) -> tuple[tuple[str, str], ...] | None:
    """None when ``stated`` is the list ``written`` exactly, ``typed`` of each item (``==``
    takes ``4.0`` or ``true`` for ``4`` or ``1``); else the first pair whose item is not, or ()."""
    if stated == written and all(map(typed, stated)):
        return None
    stated = stated if isinstance(stated, list) else []
    return next(((pair,) for t, (pair, item) in enumerate(zip(pairs, written))
                 if stated[t:t + 1] != [item] or not typed(stated[t])), ())


def _value_typed(value: dict) -> bool:
    """Whether each ladder ``k`` of a coded value's JSON is an ``int``."""
    return all(type(term["k"]) is int for term in value["terms"])


def _row_typed(row: dict, labels: set[tuple[type, object]]) -> bool:
    """Whether each gauge, hub index and ladder of a row's JSON is an ``int``
    and each label of its details is in ``labels``, by :func:`_typed`."""
    return all(type(c["gauge" if c["kind"] == "block" else "hub_index"]) is int
               and _value_typed(c["value"]) and labels.issuperset(_typed(c["detail"]))
               for c in row["certificate"]["left"])


def _typed(labels: Iterable[object]) -> list[tuple[type, object]]:
    """Each point label with its type: ``==`` takes ``1.0`` or ``true`` for
    the label ``1``, and a certificate must spell each label as its input does."""
    return [(type(x), x) for x in labels]


def _registry_problem(gauges: dict[int, SemiMetricGauge]) -> str | None:
    """The first registry invariant the snapshot breaks, or None: the
    independence argument rests on every gauge value being a fresh rational,
    of level ``l`` in ``(l, l+1)``; hub word pairs are distinct by construction."""
    draws = [(lv, v) for g in gauges.values() for (lv, _, _), v in g.drawn().items()]
    if len({v for _, v in draws}) < len(draws):
        return "a gauge draw is repeated"
    for level, value in draws:
        if not level < value < level + 1:
            return f"draw {value} lies outside level {level}"
    return None


def _replayed_construction(
    source: FiniteMetric, epsilon: Fraction,
    gauges: dict[int, SemiMetricGauge], ps: Sequence[Fraction],
) -> _Construction:
    """The parts by the builder's rules, or ``DomainError``: the ladder and
    the partition of ``epsilon`` and ``source`` as :func:`rigidify_full`
    makes them, block ``b`` takes the ``b``-th gauge other than 0 in
    ascending id, and :func:`_hub_metric` places the hubs, hub pair ``t``
    taking the ``t``-th stated ``p``; a ``p`` left over fails too."""
    eta, k = _scales(epsilon)
    partition = partition_by_diameter(source, eta)
    block_ids = sorted(g for g in gauges if g != RESERVED_GAUGE_ID)
    if len(block_ids) != len(partition.blocks):
        raise DomainError("the gauges break the allocation rule")
    stated = _StatedHubs(gauges, ps)
    hub_metric, hub_index = _hub_metric(source, partition, eta, k, stated)
    if stated.unplaced:
        raise DomainError("the snapshot states more hubs than are placed")
    return _Construction(
        partition, tuple(block_ids), _block_metrics(partition, [gauges[g] for g in block_ids], k),
        hub_metric, hub_index,
    )
