"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Statistical criteria use fixed, committed seed lists so reruns are
bit-reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

import vecpart as vp
from vecpart.cli import main
from helpers import (
    PAIRGRAPH4_TEXT,
    pair_sum_objective,
    pairgraph4,
    random_connected_graph,
    random_partition,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_gram_identity_suite():
    pytest.importorskip("scipy")
    started = time.perf_counter()
    worst = 0.0
    for seed in range(25):
        g = random_connected_graph(seed, n_range=(4, 50), p=0.3, weighted=seed % 2 == 0)
        basis = vp.decompose_transition(g)
        for t in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
            emb = vp.build_embedding(basis, "exponential", t=t, dim=g.n - 1)
            B = vp.autocovariance_direct(g, t)
            worst = max(worst, float(np.max(np.abs(emb.vectors @ emb.vectors.T - B))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 30.0
    report(1, ok, f"max Gram deviation {worst:.2e} over 25 graphs x 6 times, {elapsed:.1f}s")


def test_criterion_02_objective_equivalence_suite():
    pytest.importorskip("scipy")
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_exp = worst_lin = worst_mod = 0.0
    times = (0.5, 1.0, 2.0, 5.0)
    for idx in range(100):
        g = random_connected_graph(100 + idx, n_range=(4, 20), weighted=idx % 2 == 1)
        basis = vp.decompose_transition(g)
        p = random_partition(rng, g.n)
        t = times[idx % 4]
        emb_exp = vp.build_embedding(basis, "exponential", t=t, dim=g.n - 1)
        B = vp.autocovariance_direct(g, t)
        worst_exp = max(worst_exp, abs(vp.stability(emb_exp, p) - pair_sum_objective(B, p)))
        emb_lin = vp.build_embedding(basis, "linearised", t=t, dim=g.n - 1)
        worst_lin = max(
            worst_lin, abs(vp.stability(emb_lin, p) - vp.linearised_stability(g, p, t))
        )
        worst_mod = max(
            worst_mod, abs(vp.linearised_stability(g, p, 1.0) - vp.modularity_score(g, p))
        )
    elapsed = time.perf_counter() - started
    ok = worst_exp <= 1e-8 and worst_lin <= 1e-8 and worst_mod <= 1e-10 and elapsed < 30.0
    report(
        2,
        ok,
        f"exp chain {worst_exp:.2e}, lin chain {worst_lin:.2e}, "
        f"Q recovery {worst_mod:.2e} over 100 triples, {elapsed:.1f}s",
    )


def test_criterion_03_pairgraph4_time_scan():
    started = time.perf_counter()
    g = pairgraph4()
    basis = vp.decompose_transition(g)
    records = vp.time_scan(g, 0.01, 10.0, 25, mode="exponential", dim=3, restarts=5)
    counts = [r.num_communities for r in records]
    ok = counts[0] == 4 and records[-1].partition.canonical_key() == (0, 0, 1, 1)
    for rec in records:
        emb = vp.build_embedding(basis, "exponential", t=rec.time, dim=3)
        opt_partition, opt_value = vp.exhaustive_partition(emb)
        ok = ok and rec.partition.canonical_key() == opt_partition.canonical_key()
        ok = ok and abs(rec.objective - opt_value) <= 1e-9
    emb5 = vp.build_embedding(basis, "exponential", t=5.0, dim=3)
    value5 = vp.stability(emb5, vp.Partition.from_labels([0, 0, 1, 1]))
    ok = ok and abs(value5 - math.exp(-5.0 / 3.0) / 2.0) <= 1e-9
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    report(3, ok, f"counts {counts[0]}->{counts[-1]}, t=5 objective {value5:.6f}, {elapsed:.1f}s")


def _fiedler_ensemble(count=20):
    """First `count` seeds whose graph has a simple, representable lam_2 with
    no near-zero second-eigenvector entries."""
    picked = []
    seed = 0
    while len(picked) < count and seed < 500:
        g = random_connected_graph(seed, n_range=(4, 8), weighted=seed % 3 == 0)
        basis = vp.decompose_transition(g)
        lam = basis.eigenvalues
        v2 = basis.eigenvectors[:, 1]
        simple = lam[1] - lam[2] > 1e-6
        no_tiny_entries = float(np.min(np.abs(v2))) >= 1e-6
        representable = (1.0 - lam[1]) <= 1.2  # exp(-500 (1 - lam_2)) stays normal
        if simple and no_tiny_entries and representable:
            picked.append((g, basis))
        seed += 1
    assert len(picked) == count
    return picked


def test_criterion_04_fiedler_limit():
    started = time.perf_counter()
    exhaustive_matches = 0
    heuristic_matches = 0
    for g, basis in _fiedler_ensemble(20):
        emb = vp.build_embedding(basis, "exponential", t=500.0, dim=g.n - 1)
        opt_partition, opt_value = vp.exhaustive_partition(emb)
        fiedler = vp.Partition.from_labels((basis.eigenvectors[:, 1] < 0).astype(int))
        if opt_partition.canonical_key() == fiedler.canonical_key():
            exhaustive_matches += 1
        _, best_value, _ = vp.best_of_restarts(emb, 5)
        if abs(best_value - opt_value) <= 1e-9:
            heuristic_matches += 1
    elapsed = time.perf_counter() - started
    ok = exhaustive_matches == 20 and heuristic_matches >= 18 and elapsed < 60.0
    report(
        4,
        ok,
        f"exhaustive = sign(v2) on {exhaustive_matches}/20, "
        f"heuristic matched {heuristic_matches}/20, {elapsed:.1f}s",
    )


def test_criterion_05_heuristic_quality():
    started = time.perf_counter()
    hits = above = 0
    monotone_runs = total_runs = 0
    times = (0.5, 1.0, 2.0, 5.0)
    for idx in range(50):
        g = random_connected_graph(300 + idx, n_range=(4, 8), weighted=idx % 2 == 0)
        emb = vp.build_embedding(
            vp.decompose_transition(g), "exponential", t=times[idx % 4], dim=g.n - 1
        )
        best_value = -np.inf
        for seed in [None] + list(range(1, 5)):
            _, value, diag = vp.partition_vectors(emb, seed)
            traj = diag.objective_trajectory
            total_runs += 1
            if all(b >= a - 1e-9 for a, b in zip(traj, traj[1:])):
                monotone_runs += 1
            best_value = max(best_value, value)
        _, opt_value = vp.exhaustive_partition(emb)
        if abs(best_value - opt_value) <= 1e-9:
            hits += 1
        if best_value > opt_value + 1e-9:
            above += 1
    elapsed = time.perf_counter() - started
    ok = (
        hits / 50 >= 0.9
        and above == 0
        and monotone_runs == total_runs
        and elapsed < 120.0
    )
    report(
        5,
        ok,
        f"optimum attained {hits}/50, above-optimum {above}, "
        f"monotone {monotone_runs}/{total_runs}, {elapsed:.1f}s",
    )


ENSEMBLE_SEEDS = list(range(20))  # planted-partition ensemble, k=4, size=8


def test_criterion_06_nmi_vs_dimension():
    started = time.perf_counter()
    dims = list(range(1, 9))
    nmis = {d: [] for d in dims}
    for seed in ENSEMBLE_SEEDS:
        g, truth = vp.planted_partition(4, 8, 0.9, 0.05, seed=seed)
        for row in vp.dim_sweep(g, truth, 1.0, "linearised", dims, restarts=5):
            nmis[row.dim].append(row.nmi)
    means = {d: float(np.mean(v)) for d, v in nmis.items()}
    ok = means[3] >= 0.9
    ok = ok and all(means[d] - means[3] < 0.05 for d in range(4, 9))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    report(
        6,
        ok,
        f"mean NMI dim3 {means[3]:.3f}, max excess beyond dim3 "
        f"{max(means[d] - means[3] for d in range(4, 9)):+.3f}, {elapsed:.1f}s",
    )


def test_criterion_07_embedding_source_comparison():
    started = time.perf_counter()
    mod_t, mod_q, unc_t, unc_q, full_gap = [], [], [], [], []
    for seed in ENSEMBLE_SEEDS:
        g, truth = vp.planted_partition(4, 8, 0.9, 0.05, seed=seed)
        rows = vp.embedding_comparison(g, truth, dims=[2, g.n - 1], restarts=5)
        at2, at_full = rows
        mod_t.append(at2.transition.modularity)
        mod_q.append(at2.modularity_matrix.modularity)
        unc_t.append(at2.transition.uncertainty)
        unc_q.append(at2.modularity_matrix.uncertainty)
        full_gap.append(abs(at_full.transition.modularity - at_full.modularity_matrix.modularity))
    elapsed = time.perf_counter() - started
    ok = (
        np.mean(mod_t) >= np.mean(mod_q)
        and np.mean(unc_t) >= np.mean(unc_q)
        and max(full_gap) <= 1e-6
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"dim2 mean Q {np.mean(mod_t):.4f} vs {np.mean(mod_q):.4f}, "
        f"mean U {np.mean(unc_t):.4f} vs {np.mean(unc_q):.4f}, "
        f"full-dim gap {max(full_gap):.1e}, {elapsed:.1f}s",
    )


def test_criterion_08_modularity_spot_value():
    started = time.perf_counter()
    g = pairgraph4()
    p = vp.Partition.from_labels([0, 0, 1, 1])
    direct = vp.modularity_score(g, p)
    lin = vp.stability(
        vp.build_embedding(vp.decompose_transition(g), "linearised", t=1.0, dim=3), p
    )
    modmode = vp.stability(
        vp.build_embedding(vp.decompose_modularity_matrix(g), "modularity", dim=3), p
    )
    third = 1.0 / 3.0
    ok = abs(direct - third) <= 1e-12 and abs(lin - third) <= 1e-12 and abs(modmode - third) <= 1e-12
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report(
        8,
        ok,
        f"Q = {direct:.15f} (direct), {lin:.15f} (linearised t=1), "
        f"{modmode:.15f} (modularity mode), {elapsed:.2f}s",
    )


def test_criterion_09_metrics_suite():
    started = time.perf_counter()
    P = vp.Partition.from_labels
    ok = vp.nmi(P([0, 0, 1, 1]), P([1, 1, 0, 0])) == 1.0
    ok = ok and vp.nmi(P([0, 0, 1, 1]), P([0, 1, 0, 1])) == 0.0
    ok = ok and abs(
        vp.variation_of_information(P([0, 0, 1, 1]), P([0, 1, 0, 1])) - 2 * math.log(2)
    ) <= 1e-12
    ok = ok and abs(
        vp.uncertainty_coefficient(P([0, 0, 1, 1, 2, 2]), P([0, 0, 0, 0, 1, 1])) - 1.0
    ) <= 1e-12
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(4, 20))
        p1 = random_partition(rng, n)
        p2 = random_partition(rng, n)
        q1 = vp.Partition.from_labels(rng.permutation(p1.num_groups)[p1.assignment])
        q2 = vp.Partition.from_labels(rng.permutation(p2.num_groups)[p2.assignment])
        ok = ok and abs(vp.nmi(p1, p2) - vp.nmi(q1, q2)) <= 1e-12
        ok = ok and abs(
            vp.uncertainty_coefficient(p1, p2) - vp.uncertainty_coefficient(q1, q2)
        ) <= 1e-12
        ok = ok and abs(
            vp.variation_of_information(p1, p2) - vp.variation_of_information(q1, q2)
        ) <= 1e-12
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report(9, ok, f"tagged examples and 200 relabelled pairs, {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    started = time.perf_counter()
    graph_file = tmp_path / "pairgraph4.txt"
    graph_file.write_text(PAIRGRAPH4_TEXT)
    args = [
        "scan",
        str(graph_file),
        "--tmin",
        "0.01",
        "--tmax",
        "10",
        "--npoints",
        "25",
        "--dim",
        "3",
        "--restarts",
        "5",
        "--seed",
        "0",
    ]
    payloads = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        assert main(args + ["--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        payload.pop("timing_ms")
        payloads.append(json.dumps(payload, sort_keys=True))
    elapsed = time.perf_counter() - started
    ok = payloads[0] == payloads[1]
    report(10, ok, f"payloads byte-identical excluding timing, {elapsed:.1f}s")
