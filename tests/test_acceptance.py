"""Acceptance suite.

One test per promised property, each printing a single PASS/FAIL line with
its runtime.  All checks are exact: distances are rationals or coded sums,
comparisons go through the exact engine, and every tolerance is the stated
one (mostly zero).
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import clustered_metric, rational_metric
from rigidmetrics.coded import EQUAL, GREATER, LESS, gamma_compare
from rigidmetrics.enumeration import first_hit_index, index_of, rational_at
from rigidmetrics.glue import rigidify_full, verify_certificate
from rigidmetrics.metric import FiniteMetric
from rigidmetrics.product import sigma, tau, word_label
from rigidmetrics.registry import RESERVED_GAUGE_ID, ValueRegistry, gauge_from_snapshot
from rigidmetrics.rigidify import perturb_strongly_rigid
from rigidmetrics.verify import (
    distance_embedding_check,
    is_metric,
    is_rigid,
    is_strict_triangle,
    is_strongly_rigid,
    lnm_never_member,
    sup_distance,
)


def _report(number: int, name: str, ok: bool, started: float, budget: float) -> None:
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {name} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_subadditivity_windows():
    started = time.time()
    rng = random.Random(1)
    violations = 0
    windows = {
        n: (n + Fraction(1, 1 << (n + 1)), n + Fraction(1, 1 << n))
        for n in range(1, 13)
    }

    def sample(n):
        lo, hi = windows[n]
        return lo + (hi - lo) * Fraction(rng.randrange(1, 1024), 1024)

    for n1 in range(1, 13):
        for n2 in range(1, 13):
            for n3 in range(1, 13):
                if n1 > n2 + n3:
                    continue
                for _ in range(10):
                    if not sample(n1) < sample(n2) + sample(n3):
                        violations += 1
    _report(1, "window subadditivity oracle", violations == 0, started, 5)


def test_criterion_02_perturbation_suite():
    started = time.time()
    rng = random.Random(2)
    ok = True
    for run in range(100):
        n = rng.randint(2, 12)
        d = rational_metric(rng, n, den=rng.choice([4, 8, 16]))
        epsilon = Fraction(rng.randint(1, 31), 16)
        out = perturb_strongly_rigid(d, epsilon, seed=run)
        ok = ok and is_metric(out).passed
        ok = ok and is_strict_triangle(out).passed
        ok = ok and is_strongly_rigid(out).passed
        gap = sup_distance(d, out)
        ok = ok and gap.lo == gap.hi and gap.hi <= epsilon
        if not ok:
            break
    _report(2, "discrete perturbation suite (100 runs)", ok, started, 60)


@pytest.fixture(scope="module")
def tau_suite():
    registry = ValueRegistry(0)
    gauge = registry.fresh_gauge()
    words = [tuple(w) for w in itertools.product(range(3), repeat=3)]
    values = {}
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            values[(i, j)] = tau(gauge, 3, words[i], words[j])
    metric = FiniteMetric.from_pair_function(
        [word_label(w) for w in words],
        lambda i, j: values[(min(i, j), max(i, j))],
    )
    return words, values, metric


def test_criterion_03_product_metric_suite(tau_suite):
    started = time.time()
    words, values, metric = tau_suite
    assert len(values) == 351
    # pairwise distinctness through the set-equality oracle: single-term
    # values with one schedule are equal exactly when their index sets are
    index_sets = []
    for v in values.values():
        assert len(v.terms) == 1 and v.terms[0].k == 3 and v.terms[0].coeff == 1
        index_sets.append(v.terms[0].index_set)
    distinct = len(set(index_sets)) == 351
    bounded = all(v.eval(2).hi <= Fraction(1, 8) for v in values.values())
    triangles = is_metric(metric).passed and is_strict_triangle(metric).passed
    rigid = is_strongly_rigid(metric).passed
    _report(
        3,
        "product metric: 351 distinct values, diameter 1/8, triangles",
        distinct and bounded and triangles and rigid,
        started,
        120,
    )


def test_criterion_04_prefix_bounds():
    started = time.time()
    rng = random.Random(4)
    registry = ValueRegistry(0)
    gauge = registry.fresh_gauge()
    k = 0
    ok = True
    for _ in range(500):
        length = rng.randint(1, 6)
        alphabet = rng.randint(1, 5)
        x = tuple(rng.randrange(alphabet) for _ in range(length))
        y = tuple(rng.randrange(alphabet) for _ in range(length))
        value = sigma(gauge, k, x, y)
        agree = 0
        while agree < length and x[agree] == y[agree]:
            agree += 1
        for m in range(length):
            small = gamma_compare(value, 1, k, first_hit_index(m)) in (LESS, EQUAL)
            # value at most gamma(level m) forces agreement through m
            if small and agree <= m:
                ok = False
            # agreement through m caps the value at four gammas of level m+1
            if agree > m:
                cap = gamma_compare(value, 4, k, first_hit_index(m + 1))
                if cap == GREATER:
                    ok = False
        if not ok:
            break
    _report(4, "prefix-agreement bounds (500 word pairs)", ok, started, 60)


def test_criterion_05_amalgamation_suite():
    started = time.time()
    from rigidmetrics.glue import Partition, amalgamate, sup_bound_check

    rng = random.Random(5)
    ok = True
    for run in range(50):
        n_blocks = rng.randint(1, 4)
        sizes = [rng.randint(1, 3) for _ in range(n_blocks)]
        epsilon = Fraction(1, 4)
        labels, blocks, metrics = [], [], []
        for b, size in enumerate(sizes):
            block = tuple(f"b{b}p{t}" for t in range(size))
            blocks.append(block)
            labels.extend(block)
            vals = {
                (i, j): Fraction(rng.randint(8, 16), 64)  # diameter <= 1/4
                for i in range(size)
                for j in range(i + 1, size)
            }
            metrics.append(
                FiniteMetric.from_pair_function(block, lambda i, j, v=vals: v[(i, j)])
            )
        hubs = tuple(block[0] for block in blocks)
        partition = Partition(tuple(blocks), hubs)
        hub_vals = {
            (i, j): Fraction(rng.randint(8, 16), 8)
            for i in range(n_blocks)
            for j in range(i + 1, n_blocks)
        }
        hub = FiniteMetric.from_pair_function(hubs, lambda i, j: hub_vals[(i, j)])
        glued = amalgamate(partition, metrics, hub)
        for block, metric in zip(blocks, metrics):
            if glued.restrict(block) != metric:
                ok = False
        base_vals = {}
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                bi = next(t for t, blk in enumerate(blocks) if labels[i] in blk)
                bj = next(t for t, blk in enumerate(blocks) if labels[j] in blk)
                if bi == bj:
                    base_vals[(i, j)] = metrics[bi].distance(labels[i], labels[j]).rational_value()
                else:
                    base_vals[(i, j)] = hub_vals[(min(bi, bj), max(bi, bj))]
        base = FiniteMetric.from_pair_function(labels, lambda i, j: base_vals[(i, j)])
        report = sup_bound_check(base, glued, partition, epsilon, hub)
        ok = ok and report.passed
        if not ok:
            break
    _report(5, "amalgamation restriction + sup bound (50 runs)", ok, started, 30)


@pytest.fixture(scope="module")
def pipeline_corpus():
    rng = random.Random(6)
    runs = []
    epsilons = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    for run in range(50):
        epsilon = epsilons[run % 3]
        if run % 4 == 3:
            d = clustered_metric(rng, rng.randint(2, 3), rng.randint(2, 3))
        else:
            d = rational_metric(rng, rng.randint(2, 10))
        out, cert = rigidify_full(d, epsilon, seed=run)
        runs.append((d, epsilon, out, cert))
    return runs


def test_criterion_06_full_pipeline(pipeline_corpus):
    started = time.time()
    ok = True
    for d, epsilon, out, cert in pipeline_corpus:
        ok = ok and cert.sup_hi <= epsilon
        ok = ok and is_metric(out).passed
        ok = ok and is_strongly_rigid(out).passed
        # one row per distance; verify_certificate below sorts the rows'
        # component multisets and checks row t against the entry of pair t
        ok = ok and len(cert.independence) == len(list(out.pairs()))
        # every hub allocation keeps its coded fuzz below 2^-i, with the
        # basis replayed from its words on the reserved gauge
        reserved = gauge_from_snapshot(RESERVED_GAUGE_ID, cert.registry_snapshot)
        for idx, alloc in cert.registry_snapshot["hubs"].items():
            q = Fraction(alloc["q"])
            basis_hi = tau(reserved, cert.k, *alloc["words"]).eval(4).hi
            ok = ok and q * basis_hi <= Fraction(1, 1 << int(idx))
        blob = json.loads(json.dumps(cert.to_json(out), sort_keys=True))
        ok = ok and verify_certificate(blob).passed
        if not ok:
            break
    _report(6, "independence pipeline end-to-end (50 runs)", ok, started, 600)


def test_criterion_07_rigidity_chain(pipeline_corpus):
    started = time.time()
    ok = True
    for _, _, out, _ in pipeline_corpus:
        if out.size >= 3:
            ok = ok and is_rigid(out).passed
        if not ok:
            break
    _report(7, "strongly rigid outputs have trivial isometry group", ok, started, 120)


def test_criterion_08_scale_oracle_equivalence():
    started = time.time()
    rng = random.Random(8)
    ok = True
    seen_rigid = seen_flexible = 0
    for _ in range(200):
        n = rng.randint(3, 8)
        # coarse denominators force collisions, fine ones avoid them
        d = rational_metric(rng, n, den=rng.choice([2, 4, 64, 256]))
        sr = is_strongly_rigid(d).passed
        never = lnm_never_member(d).passed
        ok = ok and (sr == never)
        if sr:
            seen_rigid += 1
            ok = ok and is_rigid(d).passed
            ok = ok and all(
                distance_embedding_check(d, xi).passed for xi in d.points
            )
        else:
            seen_flexible += 1
        if not ok:
            break
    ok = ok and seen_rigid > 10 and seen_flexible > 10
    _report(8, "strong rigidity == never near-colliding (200 runs)", ok, started, 60)


def test_criterion_09_distance_injectivity(pipeline_corpus):
    started = time.time()
    ok = True
    for _, _, out, _ in pipeline_corpus:
        for xi in out.points:
            ok = ok and distance_embedding_check(out, xi).passed
        if not ok:
            break
    _report(9, "distance columns injective at every base point", ok, started, 10)


def test_criterion_10_enumeration_contract():
    started = time.time()
    values = [rational_at(i) for i in range(10_000)]
    bijective = len(set(values)) == 10_000 and all(
        index_of(v) == i for i, v in enumerate(values)
    )
    hits = all(
        rational_at(first_hit_index(m)) == m
        and first_hit_index(m) < first_hit_index(m + 1)
        for m in range(21)
    )
    _report(10, "enumeration bijective with ordered first hits", bijective and hits, started, 1)
