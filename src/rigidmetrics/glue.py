"""Amalgamation of block metrics through hub points, and the full pipeline.

``amalgamate`` glues per-block metrics with a hub metric:

    D(x, y) = e_i(x, y)                                  same block,
    D(x, y) = e_i(x, p_i) + h(p_i, p_j) + e_j(p_j, y)    across blocks,

restricting exactly to each block.  When every block has diameter at most
``eps`` under both the original and the block metrics, the sup distance from
the original is at most ``4 * eps`` plus the hub defect.

``rigidify_full`` runs the whole construction: partition with diameter bound
``eta = epsilon / 5``, give every block its own gauge and the product metric
on one-letter words (diameter at most ``2^-k <= eta``), approximate the hub
distances by hub-pool values sitting strictly inside the subadditivity
windows, glue, and emit a certificate: the input, the exact sup bound, strong
rigidity, and one row per distance, in pair order.  A row holds the distance's
nonzero tagged components, block and hub values that pass the per-sum
hypotheses and sum to it; its independent-of-1 trace witness is found from
their index sets, by the builder and again by the checker, and is not
stored.  The rows' component multisets are pairwise different, which one
sort shows.

The sup bound is one per-pair scan (``_certify_sup_bound``) shared by
``rigidify_full``, ``verify_certificate`` and ``sup_bound_check``.  A pair
whose rational enclosure lies strictly inside the allowance is settled by
it; only the rest go through the exact engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coded import (
    DEFAULT_MAX_PRECISION,
    CodedReal,
    EQUAL,
    Enclosure,
    GREATER,
    LESS,
    UNRESOLVED,
    _parse_int,
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
from .product import tau
from .registry import (
    RESERVED_GAUGE_ID,
    HubAllocation,
    ValueRegistry,
    _canonical_int,
    gauge_from_snapshot,
)
from .rigidify import snap_to_grid, subadditive_window
from .verify import Report, _abs_enclosure, _eval_halving, is_strongly_rigid

CERTIFICATE_VERSION = 3


@dataclass(frozen=True)
class Partition:
    blocks: tuple[tuple[str, ...], ...]
    hubs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.hubs):
            raise DomainError("one hub per block")
        seen: set[str] = set()
        for block, hub in zip(self.blocks, self.hubs):
            if hub not in block:
                raise DomainError(f"hub {hub} outside its block")
            for label in block:
                if label in seen:
                    raise DomainError(f"blocks overlap at {label}")
                seen.add(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(x for block in self.blocks for x in block)

    def block_of(self, label: str) -> int:
        for idx, block in enumerate(self.blocks):
            if label in block:
                return idx
        raise DomainError(f"{label} is not covered")

    def to_json(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks], "hubs": list(self.hubs)}

    @staticmethod
    def from_json(data: dict) -> "Partition":
        return Partition(
            tuple(tuple(b) for b in data["blocks"]), tuple(data["hubs"])
        )


def partition_by_diameter(
    d: FiniteMetric, bound: Fraction, max_precision: int = DEFAULT_MAX_PRECISION
) -> Partition:
    """Greedy cover by blocks of diameter at most ``bound``; seeds become hubs.

    Each unassigned point seeds a block and absorbs all unassigned points
    within ``bound / 2`` of it.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise DomainError("diameter bound must be positive")
    half = bound / 2
    unassigned = list(range(d.size))
    blocks: list[tuple[str, ...]] = []
    hubs: list[str] = []
    while unassigned:
        seed = unassigned.pop(0)
        members = [seed]
        rest = []
        for j in unassigned:
            order = compare(d.at(seed, j), half, max_precision)
            if order == UNRESOLVED:
                raise UnresolvedComparison(
                    f"cannot place {d.points[j]} within the diameter bound"
                )
            if order in (LESS, EQUAL):
                members.append(j)
            else:
                rest.append(j)
        unassigned = rest
        blocks.append(tuple(d.points[i] for i in members))
        hubs.append(d.points[seed])
    return Partition(tuple(blocks), tuple(hubs))


def amalgamate(
    partition: Partition,
    block_metrics: Sequence[FiniteMetric],
    hub_metric: FiniteMetric,
) -> FiniteMetric:
    """Glue block metrics through the hub metric; restrictions stay exact."""
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
    index = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    rows = [[as_coded(0) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        xa = labels[a]
        ba = partition.block_of(xa)
        for b in range(a + 1, n):
            xb = labels[b]
            bb = partition.block_of(xb)
            if ba == bb:
                value = block_metrics[ba].distance(xa, xb)
            else:
                value = _signed_sum((
                    (1, block_metrics[ba].distance(xa, partition.hubs[ba])),
                    (1, hub_metric.distance(partition.hubs[ba], partition.hubs[bb])),
                    (1, block_metrics[bb].distance(partition.hubs[bb], xb)),
                ))
            rows[a][b] = rows[b][a] = value
    matrix = tuple(tuple(row) for row in rows)
    return FiniteMetric(tuple(labels), matrix)


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
    registry_snapshot: dict

    def to_json(self, metric: FiniteMetric) -> dict:
        return {
            "version": CERTIFICATE_VERSION,
            "input": self.source.to_json(),
            "metric": metric.to_json(),
            "registry": self.registry_snapshot,
            "independence": list(self.independence),
            "sup_bound": {
                "epsilon": _frac_str(self.epsilon),
                "achieved_lo": _frac_str(self.sup_lo),
                "achieved_hi": _frac_str(self.sup_hi),
            },
            "parameters": {"k": self.k, "partition": self.partition.to_json()},
        }


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
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if d.size < 2:
        raise DomainError("need at least two points")
    if not d.is_rational_valued():
        raise DomainError("the pipeline expects a rational input metric")

    eta = epsilon / 5
    k = 0
    while Fraction(1, 1 << k) > eta:
        k += 1
    registry = ValueRegistry(seed)
    partition = partition_by_diameter(d, eta, max_precision)

    # Per-block metrics: the strongly rigid product metric on one-letter
    # words, one fresh gauge per block; diameter at most 2^-k <= eta.
    block_metrics: list[FiniteMetric] = []
    block_gauges: list[int] = []
    for block in partition.blocks:
        gauge = registry.fresh_gauge()
        block_gauges.append(gauge.gauge_id)
        block_metrics.append(
            FiniteMetric.from_pair_function(
                block, lambda i, j: tau(gauge, k, (i,), (j,))
            )
        )

    hub_metric, hub_index = _hub_metric(d, partition, eta, k, registry)
    glued = amalgamate(partition, block_metrics, hub_metric)
    glued = glued.restrict(list(d.points))

    offending, sup = _certify_sup_bound(d, glued, epsilon, max_precision)
    if offending is not None:
        (a, b), order = offending
        verdict = "violated" if order == GREATER else "undecided"
        raise UnresolvedComparison(f"sup bound {verdict} at ({a}, {b})")
    rigidity = is_strongly_rigid(glued, max_precision)
    if not rigidity.passed:
        raise UnresolvedComparison(f"strong rigidity not certified: {rigidity.detail}")

    independence = _pairwise_independence(
        glued, d.points, partition, block_metrics, hub_metric, hub_index, block_gauges
    )
    certificate = RigidifyCertificate(
        source=d,
        epsilon=epsilon,
        k=k,
        partition=partition,
        sup_lo=sup.lo,
        sup_hi=sup.hi,
        independence=tuple(independence),
        registry_snapshot=registry.snapshot(),
    )
    return glued, certificate


def _hub_metric(
    d: FiniteMetric,
    partition: Partition,
    eta: Fraction,
    k: int,
    registry: ValueRegistry,
) -> tuple[FiniteMetric, dict[tuple[str, str], int]]:
    """Strongly rigid hub metric within ``eta`` of ``d`` on the hubs.

    Hub distances are snapped to integers at step ``eta_h = eta / 2`` and
    replaced by hub-pool values placed strictly inside the scaled windows
    ``subadditive_window(N) * eta_h``, which certifies the strict triangle
    inequality and keeps the defect below ``2 * eta_h = eta``.  Also returns
    the registry allocation index of each hub pair, in both orders.
    """
    hubs = list(partition.hubs)
    if len(hubs) == 1:
        return FiniteMetric.from_entries(hubs, [[0]]), {}
    eta_h = eta / 2
    snapped = snap_to_grid(d.restrict(hubs), eta_h)
    integers = {
        (i, j): int(snapped.at(i, j).rational_value() / eta_h) for i, j in snapped.pairs()
    }
    n_max = max(integers.values())
    # Allocation indices large enough that the coded fuzz of every hub value
    # stays below half the narrowest window and below the least triangle
    # margin eta_h * 2^-(n_max + 1).
    base_index = n_max + 2
    while Fraction(3, 1 << (base_index + 1)) > eta_h * Fraction(1, 1 << (n_max + 3)):
        base_index += 1
    entries: dict[tuple[int, int], CodedReal] = {}
    hub_index: dict[tuple[str, str], int] = {}
    for alloc, ((i, j), n) in enumerate(integers.items(), start=base_index):
        lo, hi = (eta_h * end for end in subadditive_window(n))
        target = (lo + hi) / 2
        value = registry.hub_value(k, alloc, target)
        hub_alloc = registry.hub_allocation(alloc)
        fuzz = hub_alloc.q * hub_alloc.basis_hi
        if not (lo < hub_alloc.p and hub_alloc.p + fuzz < hi):
            raise UnresolvedComparison("hub value escaped its window")
        entries[(i, j)] = value
        hub_index[(hubs[i], hubs[j])] = hub_index[(hubs[j], hubs[i])] = alloc
    return FiniteMetric.from_pair_function(hubs, lambda i, j: entries[(i, j)]), hub_index


def _certify_sup_bound(
    d: FiniteMetric,
    glued: FiniteMetric,
    allowance: Fraction | CodedReal,
    max_precision: int,
) -> tuple[tuple[tuple[str, str], str] | None, Enclosure]:
    """Per-pair scan of ``|glued - d| <= allowance`` on shared labels.

    Returns the first pair that exceeds the allowance or cannot be compared
    with it, with that ordering (or None when every pair is within), and an
    enclosure of the sup over the pairs scanned before it.

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
                return ((d.points[i], d.points[j]), order), Enclosure(sup_lo, sup_hi)
            enc = _eval_halving(gap)
        sup_lo = max(sup_lo, enc.lo)
        sup_hi = max(sup_hi, enc.hi)
    return None, Enclosure(sup_lo, sup_hi)


def _pairwise_independence(
    glued: FiniteMetric,
    points: Sequence[str],
    partition: Partition,
    block_metrics: Sequence[FiniteMetric],
    hub_metric: FiniteMetric,
    hub_index: dict[tuple[str, str], int],
    block_gauges: Sequence[int],
) -> list[dict]:
    """One validated independence row per distance, in pair order, naming no pair."""

    def components(a: str, b: str) -> tuple[SumComponent, ...]:
        """The nonzero ones of the distance's tagged summands."""
        ba, bb = partition.block_of(a), partition.block_of(b)
        if ba == bb:
            return (SumComponent("block", gauge_id=block_gauges[ba], detail=(a, b),
                                 value=glued.distance(a, b)),)
        ha, hb = partition.hubs[ba], partition.hubs[bb]
        comps = (
            SumComponent("block", gauge_id=block_gauges[ba], detail=(a, ha),
                         value=block_metrics[ba].distance(a, ha)),
            SumComponent("block", gauge_id=block_gauges[bb], detail=(hb, b),
                         value=block_metrics[bb].distance(hb, b)),
            SumComponent("hub", hub_index=hub_index[(ha, hb)], detail=(ha, hb),
                         value=hub_metric.distance(ha, hb)),
        )
        return tuple(c for c in comps if not c.value.is_zero_form())

    out: list[dict] = []
    keyed: list[tuple[tuple, tuple[str, str]]] = []
    for i, j in glued.pairs():
        pair = (points[i], points[j])
        comps = components(*pair)
        if not tagged_sum_holds(comps, block_gauges):
            raise UnresolvedComparison(f"independence hypotheses failed for {pair}")
        if _trace_witness_for(comps) is None:
            raise UnresolvedComparison(f"no independent-of-1 witness for {pair}")
        keyed.append((multiset_key(comps), pair))
        out.append({"certificate": {"left": [c.to_json() for c in comps]}})
    clash = _equal_multisets(keyed)
    if clash is not None:
        raise UnresolvedComparison(f"equal component multisets for {clash[0]} and {clash[1]}")
    return out


def _trace_witness_for(components: Sequence[SumComponent]) -> int | None:
    """A distance's independent-of-1 witness: the index of one shared window
    over the distinct index sets, in order, of its components' terms; None
    unless there are sets on one ladder and a window fits them."""
    terms = [t for c in components for t in c.value.terms]
    if len({t.k for t in terms}) != 1:
        return None
    return find_interval_trace_witness(tuple(dict.fromkeys(t.index_set for t in terms)))


def _equal_multisets(
    keyed: list[tuple[tuple, tuple[str, str]]],
) -> tuple[tuple[str, str], tuple[str, str]] | None:
    """The earlier and the later of two pairs whose multiset keys agree, found
    in one pass in row order; else None."""
    first: dict[tuple, int] = {}
    for t, (key, pair) in enumerate(keyed):
        earlier = first.setdefault(key, t)
        if earlier != t:
            return keyed[earlier][1], pair
    return None


def verify_certificate(data: dict, max_precision: int = DEFAULT_MAX_PRECISION) -> Report:
    """Re-check an emitted certificate from its serialized form alone.

    A certificate of another ``version`` raises ``ValueError``; this is format
    3, which states each fact once.  The registry snapshot must keep the
    invariants the independence argument rests on
    (:meth:`_ComponentReplay.registry_problem`).  Row ``t`` belongs to pair
    ``t`` of the metric's pair order, and each row is checked once: the
    hypotheses of its tagged sum (one to three components, each a nonzero
    block or hub value; the block components carry distinct snapshot gauges
    other than the reserved gauge 0, which backs hub bases only), the replay
    of each component from the raw draws in the registry snapshot (block
    values through gauges replayed with ``parameters.k`` and
    ``parameters.partition``, which are required; hub values as the value of
    their :class:`HubAllocation` with its basis replayed from its words on
    gauge 0 and ``parameters.k``), that the components sum exactly to the
    row's metric entry, and a unit trace witness over the distinct index sets
    of the row's components, which the checker finds with the builder's own
    search.  One pass over the rows' component multisets then shows that no
    two distances share one.  The sup bound is recomputed from ``input`` and
    must equal the claimed enclosure.  The sup bound and the strong-rigidity
    recheck run under ``max_precision``, which every report records.  Fields
    it does not read (an earlier writer's hub ``value``, ``target``,
    ``streams``) are ignored.

    The whole certificate is decoded in one decode scope
    (:func:`~rigidmetrics.intervals._decode_scope`): each ``p/q`` spelling,
    interval list, coded value and component is read once.  A same-block
    component's value, written like the metric entry it equals, is that
    entry.
    """
    with _decode_scope():
        return _verify_certificate(data, max_precision)


def _verify_certificate(data: dict, max_precision: int) -> Report:
    if data.get("version") != CERTIFICATE_VERSION:
        raise ValueError("unsupported certificate version")
    metric = FiniteMetric.from_json(data["metric"])
    source = FiniteMetric.from_json(data["input"])
    snapshot = data["registry"]
    parameters = data.get("parameters", {})
    if "k" not in parameters or "partition" not in parameters:
        return Report("fail", (), "component replay failed: no parameters.k or partition",
                      max_precision)
    replay = _ComponentReplay(parameters, snapshot)
    problem = replay.registry_problem()
    if problem is not None:
        return Report("fail", (), f"registry invariant failed: {problem}", max_precision)
    # the reserved gauge backs hub bases only, never a block component
    known = set(replay.gauges) - {RESERVED_GAUGE_ID}
    rows = data["independence"]
    pairs = [((metric.points[i], metric.points[j]), metric.at(i, j)) for i, j in metric.pairs()]
    if len(rows) != len(pairs):
        # name the first pair with no row, if there is one
        return Report("fail", tuple(pair for pair, _ in pairs[len(rows):len(rows) + 1]),
                      f"{len(rows)} independence rows cover {len(pairs)} distances",
                      max_precision)
    keyed: list[tuple[tuple, tuple[str, str]]] = []
    for row, (pair, entry) in zip(rows, pairs):
        comps = tuple(SumComponent.from_json(c) for c in row["certificate"]["left"])
        if not tagged_sum_holds(comps, known):
            return Report("fail", (pair,), "independence hypotheses failed", max_precision)
        for comp in comps:
            problem = replay.check(comp)
            if problem is not None:
                return Report("fail", (problem,), "component replay failed", max_precision)
        if _component_sum(comps) != entry:
            return Report("fail", (pair,), "components do not sum to the metric entry",
                          max_precision)
        # searched after the replay, so its levels are bounded by the snapshot's draws
        if _trace_witness_for(comps) is None:
            return Report("fail", (pair,), "unit witness failed", max_precision)
        keyed.append((multiset_key(comps), pair))
    clash = _equal_multisets(keyed)
    if clash is not None:
        return Report("fail", clash, "two distances have equal component multisets",
                      max_precision)
    if source.points != metric.points:
        return Report("fail", (), "input and metric have different points", max_precision)
    sup = data["sup_bound"]
    offending, enc = _certify_sup_bound(
        source, metric, _parse_frac(sup["epsilon"]), max_precision
    )
    if offending is not None:
        return _sup_failure(offending, max_precision)
    if (_parse_frac(sup["achieved_lo"]), _parse_frac(sup["achieved_hi"])) != (enc.lo, enc.hi):
        return Report("fail", (), "claimed sup bound differs from the recomputed one",
                      max_precision)
    rigidity = is_strongly_rigid(metric, max_precision)
    if not rigidity.passed:
        return Report(rigidity.verdict, rigidity.witnesses, "strong rigidity recheck",
                      max_precision)
    return Report("pass", (), f"{len(rows)} independence rows verified", max_precision)


def _component_sum(side: Sequence[SumComponent]) -> CodedReal:
    return _signed_sum((1, c.value) for c in side)


class _ComponentReplay:
    """Recomputes tagged component values from snapshot draws.

    The snapshot's gauges and hub records are decoded once, each keyed by
    the id its components name: a gauge or hub key is that id in canonical
    decimal.
    Each distinct component is decoded once by the certificate's decode
    scope, which also keeps it alive, so as one instance it is replayed once.
    """

    def __init__(self, parameters: dict, snapshot: dict):
        self._k = _parse_int(parameters["k"])
        gauge_ids = [_canonical_int(key, "gauge key") for key in snapshot.get("gauges", {})]
        self.gauges = {g: gauge_from_snapshot(g, snapshot) for g in gauge_ids}
        self.hubs = {
            _canonical_int(key, "hub key"): HubAllocation.from_json(a)
            for key, a in snapshot.get("hubs", {}).items()
        }
        self._blocks = [tuple(b) for b in parameters["partition"]["blocks"]]
        self._verdicts: dict[int, object | None] = {}

    def registry_problem(self) -> str | None:
        """The first registry invariant the snapshot breaks, or None.

        The independence argument rests on them: every gauge value is a fresh
        rational, of level ``l`` in ``(l, l+1)``, and no two hub bases come
        from one word pair.  Every basis is replayed on ladder
        ``parameters.k`` like the blocks, so comparing component forms
        compares their values.
        """
        draws = [(lv, v) for g in self.gauges.values() for (lv, _, _), v in g.drawn().items()]
        if len({v for _, v in draws}) < len(draws):
            return "a gauge draw is repeated"
        for level, value in draws:
            if not level < value < level + 1:
                return f"draw {value} lies outside level {level}"
        pairs = [tuple(sorted(alloc.words)) for alloc in self.hubs.values()]
        if len(set(pairs)) < len(pairs):
            return "two hubs share a word pair"
        return None

    def _gauge(self, gauge_id: int):
        if gauge_id not in self.gauges:
            raise DomainError(f"gauge {gauge_id} is not in the snapshot")
        return self.gauges[gauge_id]

    def _letters(self, labels: tuple[str, ...]) -> tuple[int, ...] | None:
        for block in self._blocks:
            if all(x in block for x in labels):
                return tuple(block.index(x) for x in labels)
        return None

    def check(self, comp: SumComponent) -> object | None:
        """None when the component replays to its embedded value."""
        if id(comp) not in self._verdicts:
            try:
                self._verdicts[id(comp)] = self._check(comp)
            except DomainError:
                # missing draws or gauges in the snapshot
                self._verdicts[id(comp)] = comp.detail or comp.hub_index
        return self._verdicts[id(comp)]

    def _check(self, comp: SumComponent) -> object | None:
        if comp.kind == "hub":
            alloc = self.hubs.get(comp.hub_index)
            if alloc is None:
                return comp.hub_index
            basis = tau(self._gauge(RESERVED_GAUGE_ID), self._k, *alloc.words)
            return None if alloc.value(basis) == comp.value else comp.hub_index
        # a block component: tagged_sum_holds admits no other kind
        letters = self._letters(comp.detail)
        if letters is None or len(letters) != 2:
            return comp.detail
        rebuilt = tau(self._gauge(comp.gauge_id), self._k, (letters[0],), (letters[1],))
        return None if rebuilt == comp.value else comp.detail
