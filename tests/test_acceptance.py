"""Release gate: each shipping criterion runs as one test with one verdict line.

The randomized criteria all use fixed seeds, so a green run here is
reproducible, not probabilistic.  Corpus graphs are regenerated with the
same seed derivation the sweep command uses, which keeps the in-process
checks aligned with what `verify-theorem` exercised.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

from flatbands.bands import (
    flat_energy_presence,
    floquet_at,
    hermitian_eigh,
    numeric_flat_flags,
    sample_bands,
)
from flatbands.flatband import flat_bands_of
from flatbands.floquet import FloquetMatrix
from flatbands.graph import Labeling, PeriodicGraph, has_support_zero_domain
from flatbands.laurent import (
    LaurentPoly,
    det_bareiss,
    det_leibniz,
    facial_polynomial,
)
from flatbands.polytope import (
    facial_independence_witness,
    generic_support,
    hulls_equal,
    is_vertical_segment,
    minkowski_sum,
    sigma_support_check,
    vertical_faces,
)
from flatbands.resultant import cut_edge_certificate, resultant
from flatbands.sampling import (
    random_labeling,
    random_periodic_graph,
    rng_for,
    tame_real_labeling,
)
from flatbands.unipoly import gcd as poly_gcd
from flatbands.unipoly import mul as poly_mul
from flatbands.unipoly import normalize

from conftest import pack_matrix

CORPUS_SEED = 42
CORPUS_SIZE = 200


def corpus_graph(t: int) -> PeriodicGraph:
    return random_periodic_graph(rng_for(CORPUS_SEED, "graph", t))


def verdict(number: int, title: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE criterion {number} {'PASS' if ok else 'FAIL'} ({title}): {detail}"
    print(line)
    assert ok, line


def run_cli(*argv: str):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "flatbands", "--json", *argv],
        capture_output=True, text=True,
    )
    elapsed = time.monotonic() - start
    return proc, elapsed


def test_criterion_1_lieb_exact_flat_band(lieb_json_path):
    proc, elapsed = run_cli("analyze", lieb_json_path, "--labels", "given")
    report = json.loads(proc.stdout)
    section = report["flat_bands"]
    ok = (
        proc.returncode == 10
        and section["rational_roots"] == [
            {"energy": 0, "multiplicity": 1, "divisibility_verified": True}
        ]
        and section["irreducible_factors"] == []
        and section["count_with_multiplicity"] == 1
        and elapsed < 1.0
    )
    verdict(1, "Lieb exact flat band", ok,
            f"one verified flat band at energy 0, exit {proc.returncode}, "
            f"{elapsed:.2f}s (limit 1s)")


def test_criterion_2_lieb_generic_absence(lieb_json_path):
    proc, elapsed = run_cli("generic", lieb_json_path, "--trials", "100")
    report = json.loads(proc.stdout)
    counts = report["per_trial_flat_band_counts"]
    ok = (
        proc.returncode == 0
        and counts == [0] * 100
        and report["consistent"] is True
        and report["generic_flat_band"] is False
        and elapsed < 30.0
    )
    verdict(2, "Lieb generic absence", ok,
            f"{counts.count(0)}/100 labelings with zero flat bands, "
            f"{elapsed:.1f}s (limit 30s)")


def test_criterion_3_dual_oracle_sweep():
    proc, elapsed = run_cli(
        "verify-theorem", "--count", str(CORPUS_SIZE), "--seed", str(CORPUS_SEED)
    )
    report = json.loads(proc.stdout)
    agreement = report["oracle_agreement"]
    agreeing = agreement["both_flat_band"] + agreement["both_no_flat_band"]
    ok = (
        proc.returncode == 0
        and agreeing == CORPUS_SIZE
        and agreement["disagreements"] == []
        and agreement["inconsistent_trials"] == []
        and elapsed < 300.0
    )
    verdict(3, "dual-oracle sweep", ok,
            f"{agreeing}/{CORPUS_SIZE} oracle agreements "
            f"({agreement['both_flat_band']} flat, {agreement['both_no_flat_band']} not), "
            f"{elapsed:.1f}s (limit 300s)")


def test_criterion_4_vertical_segment_equivalence():
    mismatches = []
    bad_ladders = []
    segments = 0
    for t in range(CORPUS_SIZE):
        graph = corpus_graph(t)
        support = generic_support(graph)
        segment = is_vertical_segment(support)
        if segment != has_support_zero_domain(graph):
            mismatches.append(t)
        if segment:
            segments += 1
            ladder = {
                (0,) * graph.dimension + (b,)
                for b in range(graph.num_orbits + 1)
            }
            if support != ladder:
                bad_ladders.append(t)
    ok = not mismatches and not bad_ladders
    verdict(4, "vertical-segment equivalence", ok,
            f"{CORPUS_SIZE - len(mismatches)}/{CORPUS_SIZE} agree, "
            f"{segments} segments all exact ladders; "
            f"mismatches {mismatches}, bad ladders {bad_ladders}")


def test_criterion_5_sigma_support_containment():
    failures = []
    for t in range(100):
        graph = random_periodic_graph(rng_for("sigma", "graph", t))
        labeling = random_labeling(graph, rng_for("sigma", "labels", t))
        rng = rng_for("sigma", "perm", t)
        sigma = list(range(graph.num_orbits))
        rng.shuffle(sigma)
        if not sigma_support_check(graph, labeling, tuple(sigma)):
            failures.append(t)
    verdict(5, "permutation-term support containment", not failures,
            f"{100 - len(failures)}/100 triples contained; failures {failures}")


def test_criterion_6_facial_independence_witnesses():
    eligible = 0
    faces_checked = 0
    failures = []
    for t in range(CORPUS_SIZE):
        graph = corpus_graph(t)
        if has_support_zero_domain(graph):
            continue
        support = generic_support(graph)
        if is_vertical_segment(support):
            continue
        faces = vertical_faces(support)
        if faces:
            eligible += 1
        for face in faces:
            witness = facial_independence_witness(graph, face, support_points=support)
            faces_checked += 1
            if witness is None:
                failures.append((t, face.normal))
    verdict(6, "facial independence witnesses", not failures,
            f"witness found for {faces_checked - len(failures)}/{faces_checked} "
            f"vertical faces on {eligible} eligible graphs; failures {failures}")


def random_tree_quotient(rng):
    """Spanning tree on a few orbits; offsets only next to the deleted orbit.

    The kept orbits then form a support-zero subset as given, the quotient
    is connected, and every edge is a bridge, which is exactly the shape
    the certificate demands.
    """
    dimension = rng.choice((1, 2))
    orbits = rng.randint(2, 5)
    deleted = rng.randrange(orbits)
    edges = []
    for child in range(1, orbits):
        parent = rng.randrange(child)
        if deleted in (parent, child):
            offset = tuple(rng.randint(-2, 2) for _ in range(dimension))
        else:
            offset = (0,) * dimension
        edges.append((parent, child, offset))
    graph = PeriodicGraph(dimension, orbits, edges)
    kept = [v for v in range(orbits) if v != deleted]
    return graph, kept


def test_criterion_7_cut_edge_certificates():
    failures = []
    for t in range(100):
        rng = rng_for("cutedge", t)
        graph, kept = random_tree_quotient(rng)
        potentials = [
            Fraction(rng.randint(-99, 99), rng.randint(1, 10))
            for _ in range(graph.num_orbits)
        ]
        weights = {
            edge: Fraction(rng.choice([k for k in range(-9, 10) if k]),
                           rng.randint(1, 9))
            for edge in graph.edge_classes
        }
        labeling = Labeling(graph, potentials, weights)
        z0 = tuple(
            Fraction(rng.choice([k for k in range(-5, 6) if k]), rng.randint(1, 5))
            for _ in range(graph.dimension)
        )
        if cut_edge_certificate(graph, kept, labeling, z0) == 0:
            failures.append(t)
    verdict(7, "cut-edge certificates", not failures,
            f"{100 - len(failures)}/100 certificates nonzero; failures {failures}")


def exact_flat_energies(report) -> list[tuple[float, int]]:
    """Every flat-band energy as a float with its multiplicity.

    Rational roots convert directly; irreducible factors contribute their
    real roots (all roots are real since the flat-band polynomial divides
    a symmetric characteristic polynomial).
    """
    energies = [(float(root), mult) for root, mult in report.rational_roots]
    if report.irreducible_factors:
        import sympy

        x = sympy.Symbol("x")
        for factor in report.irreducible_factors:
            expr = sum(
                sympy.Rational(c.numerator, c.denominator) * x ** k
                for k, c in enumerate(factor.coefficients)
            )
            roots = sympy.real_roots(sympy.Poly(expr, x))
            assert len(roots) == len(factor.coefficients) - 1
            energies.extend(
                (float(root.evalf(30)), factor.multiplicity) for root in roots
            )
    return energies


def test_criterion_8_numeric_exact_crosscheck(lieb_graph, lieb_labeling):
    confirm_failures = []
    refute_failures = []
    with_flat = without_flat = 0
    for t in range(50):
        graph = corpus_graph(t)
        labeling = tame_real_labeling(graph, rng_for("bands", "labels", t))
        report = flat_bands_of(graph, labeling)
        sample = sample_bands(FloquetMatrix(graph, labeling), resolution=16)
        if report.has_flat_band:
            with_flat += 1
            if not all(report.verified):
                confirm_failures.append(t)
                continue
            for energy, multiplicity in exact_flat_energies(report):
                if not flat_energy_presence(sample, energy, multiplicity, 1e-8):
                    confirm_failures.append(t)
                    break
        else:
            without_flat += 1
            if numeric_flat_flags(sample, 1e-3):
                refute_failures.append(t)

    gamma = floquet_at(FloquetMatrix(lieb_graph, lieb_labeling), [1.0, 1.0])
    values, _ = hermitian_eigh(gamma)
    expected = [-2.0 * math.sqrt(2.0), 0.0, 2.0 * math.sqrt(2.0)]
    closed_form_ok = all(abs(a - b) < 1e-10 for a, b in zip(values, expected))

    ok = not confirm_failures and not refute_failures and closed_form_ok
    verdict(8, "numeric/exact cross-check", ok,
            f"{with_flat} flat-band graphs matched numerically at 1e-8, "
            f"{without_flat} flat-free graphs show no band below 1e-3, "
            f"Lieb closed-form spectrum within 1e-10; "
            f"failures {confirm_failures + refute_failures}")


def random_laurent(rng, dimension, max_terms=4, force_nonzero=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(rng.randint(-1, 1) for _ in range(dimension)) + (rng.randint(0, 1),)
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if coeff:
            terms[key] = terms.get(key, 0) + coeff
    poly = LaurentPoly(dimension, terms)
    if force_nonzero and poly.is_zero:
        return LaurentPoly(dimension, {(0,) * (dimension + 1): 1})
    return poly


def random_unipoly(rng, min_degree=1, max_degree=4):
    degree = rng.randint(min_degree, max_degree)
    coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
    return normalize(tuple(coeffs))


def test_criterion_9_algebra_self_consistency():
    det_failures = []
    for t in range(100):
        rng = rng_for("det", t)
        size = rng.randint(1, 5)
        dimension = rng.randint(1, 2)
        entries = [
            [random_laurent(rng, dimension, max_terms=2) for _ in range(size)]
            for _ in range(size)
        ]
        if det_leibniz(pack_matrix(entries)) != det_bareiss(entries):
            det_failures.append(t)

    hull_failures = []
    for t in range(200):
        rng = rng_for("hull", t)
        dimension = rng.randint(1, 2)
        p = random_laurent(rng, dimension, force_nonzero=True)
        q = random_laurent(rng, dimension, force_nonzero=True)
        product = p * q
        if not hulls_equal(product.support(),
                           minkowski_sum(p.support(), q.support())):
            hull_failures.append(t)
            continue
        w = tuple(rng.randint(-3, 3) for _ in range(dimension + 1))
        if not any(w):
            w = (1,) + (0,) * dimension
        if facial_polynomial(product, w) != (
            facial_polynomial(p, w) * facial_polynomial(q, w)
        ):
            hull_failures.append(t)

    resultant_failures = []
    for t in range(200):
        rng = rng_for("res", t)
        f = random_unipoly(rng)
        g = random_unipoly(rng)
        if t % 2:
            common = (Fraction(rng.randint(-3, 3)), Fraction(1))
            f = poly_mul(f, common)
            g = poly_mul(g, common)
        vanishes = resultant(f, g) == 0
        nontrivial = len(poly_gcd(f, g)) >= 2
        if vanishes != nontrivial:
            resultant_failures.append(t)

    ok = not det_failures and not hull_failures and not resultant_failures
    verdict(9, "algebra self-consistency", ok,
            f"100/100 determinant agreements, 200/200 polytope products, "
            f"200/200 resultant/gcd equivalences; failures "
            f"{det_failures + hull_failures + resultant_failures}")
