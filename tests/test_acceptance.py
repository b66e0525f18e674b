"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and counters.  The heavy suites are exhaustive at desk scale; see the
class docstrings for the coverage strategy of each.  Every test here carries
the `acceptance` marker, so `pytest -m "not acceptance"` runs the rest of the
suite in seconds.
"""

import random
import time

import pytest

from poset_collapse import (
    EVASIVE,
    NOT_FOUND,
    NECertificate,
    Poset,
    PosetMap,
    SimplicialComplex,
    certificate_to_collapse,
    common_expansion,
    crapo_check,
    decompose_monotone,
    free_pairs,
    hall_check,
    is_nonevasive,
    join,
    lift_certificate_over_join,
    order_complex,
    reduced_euler,
    relabel,
    search_ne_reduction,
    stable_preimage,
    theorem_reduce,
    verify_collapse,
    verify_ne_certificate,
    verify_witness,
    z2_betti,
)
from poset_collapse.enumeration import (
    apply_perm,
    canonical_poset,
    complex_from_masks,
    decreasing_tables,
    increasing_tables,
    iter_antichain_complexes,
    iter_posets,
    map_from_table,
    monotone_tables,
    poset_from_masks,
    stabilize_table,
    table_fixed_mask,
    table_image_mask,
)

from conftest import betti_equal, naive_nonevasive

pytestmark = pytest.mark.acceptance

# labeled-poset counts are pinned to the literature; the map totals pin the
# enumeration stream so a silent generator regression cannot shrink coverage
LABELED_POSETS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231, 6: 130023}
MONOTONE_MAP_TOTALS = {1: 1, 2: 7, 3: 103, 4: 2699, 5: 115031, 6: 7561455}
INCREASING_MAP_TOTALS_BOUNDED = {2: 4, 3: 30, 4: 444, 5: 11460, 6: 482910}
BOUNDED_POSETS = {2: 2, 3: 6, 4: 36, 5: 380, 6: 6570}
CRAPO_INSTANCES = {2: 4, 3: 36, 4: 684, 5: 23640, 6: 1370070}


def _report(num: int, detail: str):
    print(f"\ncriterion {num}: PASS — {detail}")


def _power_table(t: tuple[int, ...], k: int) -> tuple[int, ...]:
    g = tuple(range(len(t)))
    for _ in range(k):
        g = tuple(t[i] for i in g)
    return g


def _bounded(below: tuple[int, ...]) -> bool:
    n = len(below)
    if n < 2:
        return False
    full = (1 << n) - 1
    above = [0] * n
    for i in range(n):
        m = below[i]
        while m:
            j = (m & -m).bit_length() - 1
            above[j] |= 1 << i
            m &= m - 1
    bots = [i for i in range(n) if not below[i]]
    tops = [i for i in range(n) if not above[i]]
    return (
        len(bots) == 1
        and len(tops) == 1
        and below[tops[0]] == full & ~(1 << tops[0])
        and above[bots[0]] == full & ~(1 << bots[0])
    )


def test_criterion_1_map_classification():
    """Boolean lattice of {1,2}: adding 2 is increasing, removing 1 is
    decreasing, their composite is order-preserving but not monotone."""
    start = time.time()
    P = Poset(["0", "1", "2", "12"], [("0", "1"), ("0", "2"), ("1", "12"), ("2", "12")])
    phi = PosetMap(P, {"0": "2", "1": "12", "2": "2", "12": "12"})
    assert (phi.order_preserving, phi.monotone, phi.increasing, phi.decreasing) == (
        True, True, True, False,
    )
    gamma = PosetMap(P, {"0": "0", "1": "0", "2": "2", "12": "2"})
    assert (gamma.order_preserving, gamma.monotone, gamma.increasing, gamma.decreasing) == (
        True, True, False, True,
    )
    comp = gamma.compose(phi)
    assert comp.table == {e: "2" for e in P.elements}
    assert comp.order_preserving and not comp.monotone
    assert comp.non_monotone_witness() == "1"
    elapsed = time.time() - start
    assert elapsed < 1
    _report(1, f"flags and witness element exact ({elapsed:.3f}s)")


def test_criterion_2_decomposition_suite():
    """Every labeled poset on at most 5 elements, every monotone self-map:
    the decomposition satisfies all three requirements and is the unique
    candidate pair (uniqueness taken with fixing dictated by the displacement
    direction; the weaker covering condition provably admits extra pairs —
    see the ledger note on the 3-chain)."""
    start = time.time()
    maps_checked = 0
    pairs_scanned = 0
    for n in range(1, 6):
        n_posets = 0
        for below in iter_posets(n):
            n_posets += 1
            P = poset_from_masks(below)
            elems = P.elements
            leq = [below[i] | (1 << i) for i in range(n)]
            inc = increasing_tables(below)
            dec = decreasing_tables(below)
            # bucket every dictated-fixing candidate pair by its composite
            buckets: dict[tuple[int, ...], list] = {}
            for at in inc:
                for bt in dec:
                    comp = tuple(at[bt[i]] for i in range(n))
                    ok = True
                    for i in range(n):
                        ci = comp[i]
                        if (leq[ci] >> i & 1) and bt[i] != i:  # i <= comp(i)
                            ok = False
                            break
                        if (leq[i] >> ci & 1) and at[i] != i:  # comp(i) <= i
                            ok = False
                            break
                    pairs_scanned += 1
                    if ok:
                        buckets.setdefault(comp, []).append((at, bt))
            for table in monotone_tables(below):
                phi = map_from_table(P, table)
                alpha, beta = decompose_monotone(phi)
                assert alpha.increasing and beta.decreasing
                assert alpha.compose(beta).table == phi.table
                assert alpha.fixed_points() | beta.fixed_points() == frozenset(elems)
                at = tuple(elems.index(alpha.table[e]) for e in elems)
                bt = tuple(elems.index(beta.table[e]) for e in elems)
                assert buckets.get(table) == [(at, bt)], (below, table)
                maps_checked += 1
        assert n_posets == LABELED_POSETS[n]
    assert maps_checked == sum(MONOTONE_MAP_TOTALS[n] for n in range(1, 6))
    elapsed = time.time() - start
    assert elapsed < 300
    _report(
        2,
        f"{maps_checked} maps decomposed uniquely, {pairs_scanned} candidate pairs scanned "
        f"({elapsed:.1f}s)",
    )


def test_criterion_3_reduction_suite():
    """Main-theorem suite over every labeled poset with at most 6 elements and
    every monotone self-map, with Q the fixed-point set and Q the image.

    Phase A runs the complete pipeline (certificate verified by replay,
    collapse compiled and verified with the exact step-count identity,
    homology agreement) once per isomorphism class of (P, gamma, Q), where
    gamma = phi^{|P minus Q|} is the power the procedure actually uses; the
    outcome of theorem_reduce is a pure function of that triple, so the
    classes exhaust the mathematical content.  Phase B streams all 15.36M
    labeled instances, asserting the table-level invariants the procedure
    relies on and mapping a fixed subsample onto phase-A classes through
    canonical labeling.  Phase C re-runs a seeded labeled sample end-to-end
    through the public, unfactored entry point."""
    start = time.time()

    # ---- phase A: exhaustive over isomorphism classes --------------------
    verified: set = set()
    class_runs = 0
    for n in range(1, 7):
        canon_forms = set()
        for below in iter_posets(n):
            canon_forms.add(canonical_poset(below)[0])
        for below in sorted(canon_forms):
            _, perms = canonical_poset(below)
            auts = [p for p in perms if apply_perm(below, p) == below]
            P = poset_from_masks(below)
            X = order_complex(P)
            x_faces = X.n_faces()
            x_betti, x_euler = z2_betti(X), reduced_euler(X)
            seen: set = set()
            for table in monotone_tables(below):
                fixm = table_fixed_mask(table)
                imgm = table_image_mask(table)
                for Qm in (fixm, imgm):
                    gamma_used = _power_table(table, n - bin(Qm).count("1"))
                    best = None
                    for p in auts:
                        ng = [0] * n
                        for i in range(n):
                            ng[p[i]] = p[gamma_used[i]]
                        nq = 0
                        for i in range(n):
                            if Qm >> i & 1:
                                nq |= 1 << p[i]
                        cand = (tuple(ng), nq)
                        if best is None or cand < best:
                            best = cand
                    if best in seen:
                        continue
                    seen.add(best)
                    verified.add((below, *best))
                    phi = map_from_table(P, table)
                    Q = frozenset(P.elements[i] for i in range(n) if Qm >> i & 1)
                    report = theorem_reduce(P, phi, Q, emit_collapse=True)
                    expected_gamma = {
                        P.elements[i]: P.elements[gamma_used[i]] for i in range(n)
                    }
                    assert report.gamma.table == expected_gamma
                    Y = order_complex(P.induced(Q))
                    assert verify_ne_certificate(X, Y, report.certificate)
                    assert verify_collapse(X, Y, report.collapse)
                    assert len(report.collapse) == (x_faces - Y.n_faces()) // 2
                    assert betti_equal(x_betti, z2_betti(Y))
                    assert x_euler == reduced_euler(Y)
                    class_runs += 1
    phase_a = time.time() - start

    # ---- phase B: every labeled instance at table level ------------------
    t_b = time.time()
    labeled_instances = 0
    membership_checks = 0
    sampled: list = []
    SAMPLE_EVERY = 617  # ~25k end-to-end replays in phase C
    for n in range(1, 7):
        poset_count = 0
        map_count = 0
        for below in iter_posets(n):
            poset_count += 1
            canon, perms = canonical_poset(below)
            tables = monotone_tables(below)
            map_count += len(tables)
            for table in tables:
                stab = stabilize_table(table)
                fixm = table_fixed_mask(table)
                imgm = table_image_mask(table)
                # the stabilized map fixes exactly what the map fixes, and its
                # image is that fixed set: the facts the procedure leans on
                assert table_fixed_mask(stab) == fixm
                assert table_image_mask(stab) == fixm
                assert fixm & ~imgm == 0
                for Qm in (fixm, imgm):
                    labeled_instances += 1
                    if labeled_instances % 16 == 0:
                        gamma_used = _power_table(table, n - bin(Qm).count("1"))
                        assert table_image_mask(gamma_used) & ~Qm == 0  # no fallback needed
                        best = None
                        for p in perms:
                            ng = [0] * n
                            for i in range(n):
                                ng[p[i]] = p[gamma_used[i]]
                            nq = 0
                            for i in range(n):
                                if Qm >> i & 1:
                                    nq |= 1 << p[i]
                            cand = (tuple(ng), nq)
                            if best is None or cand < best:
                                best = cand
                        assert (canon, *best) in verified
                        membership_checks += 1
                    if labeled_instances % SAMPLE_EVERY == 0:
                        sampled.append((below, table, Qm))
        assert poset_count == LABELED_POSETS[n]
        assert map_count == MONOTONE_MAP_TOTALS[n]
    assert labeled_instances == 2 * sum(MONOTONE_MAP_TOTALS.values())
    phase_b = time.time() - t_b

    # ---- phase C: seeded labeled sample through the public path ----------
    t_c = time.time()
    for below, table, Qm in sampled:
        n = len(below)
        P = poset_from_masks(below)
        phi = map_from_table(P, table)
        Q = frozenset(P.elements[i] for i in range(n) if Qm >> i & 1)
        report = theorem_reduce(P, phi, Q, emit_collapse=True)
        gamma_used = _power_table(table, n - bin(Qm).count("1"))
        assert report.gamma.table == {
            P.elements[i]: P.elements[gamma_used[i]] for i in range(n)
        }
        X = order_complex(P)
        Y = order_complex(P.induced(Q))
        assert verify_ne_certificate(X, Y, report.certificate)
        assert verify_collapse(X, Y, report.collapse)
        assert len(report.collapse) == (X.n_faces() - Y.n_faces()) // 2
        assert betti_equal(z2_betti(X), z2_betti(Y))
        assert reduced_euler(X) == reduced_euler(Y)
    phase_c = time.time() - t_c

    elapsed = time.time() - start
    assert elapsed < 900
    _report(
        3,
        f"{class_runs} isomorphism classes fully verified ({phase_a:.0f}s); "
        f"{labeled_instances} labeled instances streamed, {membership_checks} mapped onto "
        f"classes ({phase_b:.0f}s); {len(sampled)} end-to-end labeled replays ({phase_c:.0f}s); "
        f"total {elapsed:.0f}s",
    )


def test_criterion_4_oracle_equivalence():
    """Every simplicial complex on at most 5 labeled vertices (all nonempty
    antichains of nonempty vertex subsets) against the memo-free oracle."""
    start = time.time()
    agree = 0
    nonevasive_count = 0
    for masks in iter_antichain_complexes(5):
        X = complex_from_masks(masks)
        result = is_nonevasive(X)
        if result is EVASIVE:
            assert not naive_nonevasive(X), masks
        else:
            assert naive_nonevasive(X), masks
            assert verify_witness(X, result), masks
            nonevasive_count += 1
        agree += 1
    assert agree == 7579
    elapsed = time.time() - start
    assert elapsed < 600
    _report(
        4,
        f"{agree} complexes, zero disagreements ({nonevasive_count} nonevasive) "
        f"({elapsed:.1f}s)",
    )


def test_criterion_5_join_lifting():
    """1000 seeded random reductions joined with a disjoint complex; every
    lifted certificate must verify on the joins."""
    start = time.time()
    rng = random.Random(20250809)
    posets_by_size = {n: list(iter_posets(n)) for n in (3, 4, 5)}
    upper = "ABCDE"
    done = 0
    while done < 1000:
        if rng.random() < 0.5:
            n = rng.choice((3, 4, 5))
            below = rng.choice(posets_by_size[n])
            tables = monotone_tables(below)
            table = rng.choice(tables)
            P = poset_from_masks(below)
            phi = map_from_table(P, table)
            Qm = table_fixed_mask(table) if rng.random() < 0.5 else table_image_mask(table)
            Q = frozenset(P.elements[i] for i in range(n) if Qm >> i & 1)
            X1 = order_complex(P)
            cert = theorem_reduce(P, phi, Q).certificate
            X2 = order_complex(P.induced(Q))
        else:
            k = rng.randint(1, 4)
            base_masks = rng.choice(list(iter_antichain_complexes(k)))
            base = complex_from_masks(base_masks)
            X1 = join(SimplicialComplex.point("p"), base)
            X2 = SimplicialComplex.point("p")
            cert = search_ne_reduction(X1, X2)
            assert isinstance(cert, NECertificate)
        room = 10 - len(X1.vertices)
        ky = rng.randint(1, min(5, room))
        y_masks = rng.choice(list(iter_antichain_complexes(ky)))
        Y = complex_from_masks(y_masks, labels=upper)
        lifted = lift_certificate_over_join(X1, cert, Y)
        assert verify_ne_certificate(join(X1, Y), join(X2, Y), lifted)
        assert len(X1.vertices) + len(Y.vertices) <= 10
        done += 1
    elapsed = time.time() - start
    assert elapsed < 300
    _report(5, f"{done} lifted certificates verified ({elapsed:.1f}s)")


def test_criterion_6_hall_identity():
    """Every bounded labeled poset with at most 6 elements."""
    start = time.time()
    checked = 0
    for n in range(2, 7):
        count = 0
        for below in iter_posets(n):
            if not _bounded(below):
                continue
            count += 1
            P = poset_from_masks(below)
            check = hall_check(P)
            assert check.equal, below
        assert count == BOUNDED_POSETS[n]
        checked += count
    elapsed = time.time() - start
    assert elapsed < 300
    _report(6, f"{checked} bounded posets, identity holds on all ({elapsed:.1f}s)")


def test_criterion_7_crapo_suite():
    """Every bounded labeled poset with at most 6 elements, every increasing
    self-map, every admissible Q; both identity branches must occur, and the
    bottom-not-fixed branch is additionally cross-checked through the
    bottom-freezing modification that reduces it to the fixed-bottom case."""
    start = time.time()
    totals = {"fixed-zero": 0, "zero-not-fixed": 0}
    modification_checks = 0
    checked = 0
    for n in range(2, 7):
        per_n = 0
        for below in iter_posets(n):
            if not _bounded(below):
                continue
            P = poset_from_masks(below)
            top = P.maximum()
            bottom = P.minimum()
            top_i = P.elements.index(top)
            for table in increasing_tables(below):
                phi = map_from_table(P, table)
                stab = stabilize_table(table)
                pre_mask = 0
                for i in range(n):
                    if stab[i] == top_i:
                        pre_mask |= 1 << i
                fixm = table_fixed_mask(table)
                assert fixm & pre_mask == 1 << top_i  # increasing maps fix the top only there
                free = [
                    P.elements[i]
                    for i in range(n)
                    if not (fixm >> i & 1) and not (pre_mask >> i & 1)
                ]
                base = frozenset(
                    [P.elements[i] for i in range(n) if fixm >> i & 1] + [top]
                )
                for sub_bits in range(1 << len(free)):
                    Q = base | {free[i] for i in range(len(free)) if sub_bits >> i & 1}
                    check = crapo_check(P, phi, Q)
                    assert check.equal, (below, table, sorted(Q))
                    totals[check.case] += 1
                    checked += 1
                    per_n += 1
                    if (
                        check.case == "zero-not-fixed"
                        and checked % 97 == 0
                        and stab[P.elements.index(bottom)] != top_i
                    ):
                        # freeze the bottom: same stable preimage of the top,
                        # now with the bottom fixed, so the sum must equal
                        # mu over Q plus the bottom
                        frozen = dict(phi.table)
                        frozen[bottom] = bottom
                        psi = PosetMap(P, frozen)
                        check2 = crapo_check(P, psi, Q | {bottom})
                        assert check2.case == "fixed-zero"
                        assert check2.equal
                        assert check2.lhs == check.lhs
                        modification_checks += 1
        assert per_n == CRAPO_INSTANCES[n]
    assert totals["fixed-zero"] > 0 and totals["zero-not-fixed"] > 0
    assert modification_checks > 0
    assert checked == sum(CRAPO_INSTANCES.values())
    elapsed = time.time() - start
    assert elapsed < 900
    _report(
        7,
        f"{checked} admissible instances equal ({totals['fixed-zero']} fixed-bottom, "
        f"{totals['zero-not-fixed']} moved-bottom, {modification_checks} modification "
        f"cross-checks) ({elapsed:.1f}s)",
    )


def test_criterion_8_common_expansions():
    """500 seeded zigzags A down to B up to C, with C a fresh-labeled copy of A
    produced by the same reduction machinery; the merged complex must carry
    verified certificates down to both sides."""
    start = time.time()
    rng = random.Random(8675309)
    posets_by_size = {n: list(iter_posets(n)) for n in (2, 3, 4, 5)}
    done = 0
    while done < 500:
        n = rng.choice((2, 3, 4, 5))
        below = rng.choice(posets_by_size[n])
        tables = monotone_tables(below)
        table = rng.choice(tables)
        P = poset_from_masks(below)
        phi = map_from_table(P, table)
        Q = phi.fixed_points()
        A = order_complex(P)
        cert_ab = theorem_reduce(P, phi, Q).certificate
        B = order_complex(P.induced(Q))
        removed = set(P.elements) - Q
        fresh = {v: v.upper() for v in removed}
        P2 = Poset(
            [fresh.get(e, e) for e in P.elements],
            [(fresh.get(a, a), fresh.get(b, b)) for a, b in P.lt_pairs()],
        )
        phi2 = PosetMap(
            P2, {fresh.get(e, e): fresh.get(v, v) for e, v in phi.table.items()}
        )
        C = order_complex(P2)
        cert_cb = theorem_reduce(P2, phi2, Q).certificate
        merged = common_expansion(A, B, C, cert_ab, cert_cb)
        assert set(merged.complex.vertices) == set(A.vertices) | set(C.vertices)
        assert verify_ne_certificate(merged.complex, A, merged.to_a)
        assert verify_ne_certificate(merged.complex, C, merged.to_c)
        done += 1
    elapsed = time.time() - start
    assert elapsed < 300
    _report(8, f"{done} zigzags merged with both certificates verified ({elapsed:.1f}s)")


def test_criterion_9_negative_controls():
    """The triangle boundary and the two-point complex behave as rigid
    counterexamples."""
    start = time.time()
    bd = SimplicialComplex.simplex_boundary("abc")
    assert is_nonevasive(bd) is EVASIVE
    assert free_pairs(bd) == []
    # every proper nonvoid subcomplex: all antichains of proper faces
    faces = sorted(bd.faces(), key=sorted)
    from itertools import combinations

    proper_subcomplexes = []
    for r in range(1, len(faces) + 1):
        for picks in combinations(faces, r):
            fs = frozenset(picks)
            maximal = frozenset(
                f for f in fs if not any(f < g for g in fs)
            )
            Y = SimplicialComplex(maximal)
            if Y != bd and Y not in proper_subcomplexes:
                proper_subcomplexes.append(Y)
    assert proper_subcomplexes
    for Y in proper_subcomplexes:
        assert search_ne_reduction(bd, Y) is NOT_FOUND, Y
    two = SimplicialComplex([["a"], ["b"]])
    assert is_nonevasive(two) is EVASIVE
    elapsed = time.time() - start
    assert elapsed < 1
    _report(
        9,
        f"boundary rigid against {len(proper_subcomplexes)} proper subcomplexes; "
        f"two points evasive ({elapsed:.3f}s)",
    )
