"""The four benchmark workloads.

Each workload is built from a seed (its set-up: importing the package and
generating raw inputs), then runs passes over all its instances.  Every
instance's output is checked inside the pass; an instance that raises, exits
non-zero or fails a check counts as failed, and so does every pinned count
that a pass does not reproduce.  The package is always reached through
module attributes (`L.collapse.verify_collapse`), so traced wrappers
installed on the modules see every call the benchmark makes.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import random
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

LAYER_MODULES = (
    "poset",
    "complexes",
    "evasiveness",
    "collapse",
    "reduction",
    "mobius",
    "enumeration",
    "serialization",
    "cli",
)

# sampled inputs come from `seed % SAMPLE_SEEDS`, and pins.json holds the
# counts of every one of these samples
SAMPLE_SEEDS = 32
PINS_FILE = Path(__file__).resolve().parent / "pins.json"

clock = time.perf_counter

# a pass runs the calibration kernel before its first instance and then
# between instances about this often, outside every timed section
CALIBRATE_EVERY_S = 0.2
_KERNEL_RNG = random.Random(0)
_KERNEL_VALUES = [_KERNEL_RNG.randrange(1000) for _ in range(2000)]


def calibration_run() -> float:
    """Seconds one run of a fixed piece of pure Python takes now.

    It builds frozensets and dicts, sorts with a key and scans pairs, as the
    package's inner loops do, but calls nothing of the package, and runs with
    gc off so that the package's live objects do not enter its time.  Its
    median over a worker's passes says how fast the host runs Python code
    while that worker runs.
    """
    xs = _KERNEL_VALUES
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        for _ in range(2):
            sizes = {f: len(f) for f in {frozenset(xs[i:i + 4]) for i in range(len(xs) - 4)}}
            sorted(xs, key=lambda x: (x % 7, x))
            rises = sum(1 for a, b in zip(xs, xs[1:]) if a < b)
        elapsed = clock() - t0
        if len(sizes) < 1900 or not 900 <= rises <= 1100:
            raise RuntimeError("calibration kernel input changed")
        return elapsed
    finally:
        if enabled:
            gc.enable()


def import_package(src: Path) -> SimpleNamespace:
    """Import poset_collapse afresh from `src`: the import part of set-up."""
    for name in [m for m in sys.modules if m == "poset_collapse" or m.startswith("poset_collapse.")]:
        del sys.modules[name]
    pkg = importlib.import_module("poset_collapse")
    origin = Path(pkg.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"poset_collapse was imported from {origin}, not from {src}")
    mods = {m: importlib.import_module(f"poset_collapse.{m}") for m in LAYER_MODULES}
    return SimpleNamespace(pkg=pkg, **mods)


class PassStats:
    """What one pass did: instances, failures, timed sections, work counts.

    Besides the totals it keeps, per instance and in instance order, the
    instance's latency, its certify and verify time, and its step: the time
    from the previous instance's end (or the pass start, or the calibration
    run in between) to its own end, so that the steps, with the tail after
    the last instance, sum to `pass_s`.  `calibration` holds the times of
    the pass's calibration runs.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.certify_s = 0.0
        self.verify_s = 0.0
        self.pass_s = 0.0
        # compact arrays: a worker keeps them for every pass, and float
        # lists would add 3 MB per pass to its peak RSS on crapo-exhaustive
        self.latencies = array("d")
        self.certify_each = array("d")
        self.verify_each = array("d")
        self.steps = array("d")
        self.step_start = clock()
        self.calibration: list[float] = []
        self.calibrated_at = 0.0
        self.counts: Counter = Counter()
        self.errors: list[str] = []

    def calibrate(self) -> None:
        self.calibration.append(calibration_run())
        self.calibrated_at = self.step_start = clock()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def instance(self, label, fn, *args) -> None:
        """Run one instance; `fn` returns True when every check passed.
        `label` names the instance in failure reports."""
        certify0, verify0 = self.certify_s, self.verify_s
        t0 = clock()
        try:
            ok = fn(*args)
            why = "check failed"
        except Exception as e:  # any raise is an instance failure, recorded
            ok = False
            why = f"{type(e).__name__}: {e}"[:200]
        t1 = clock()
        self.latencies.append(t1 - t0)
        self.steps.append(t1 - self.step_start)
        self.step_start = t1
        self.certify_each.append(self.certify_s - certify0)
        self.verify_each.append(self.verify_s - verify0)
        self.attempted += 1
        if not ok:
            self.fail(f"{label}: {why}")
        if t1 - self.calibrated_at >= CALIBRATE_EVERY_S:
            self.calibrate()


class Workload:
    """Set-up happens in the constructor.  `pins="file"` checks the fixed
    pins and, at full size, the seed's entry in pins.json; `pins=None`
    only the fixed pins; a dict adds or overrides pins."""

    name = ""
    # count keys that depend on the seeded sample; their pins live in pins.json
    sampled_keys: tuple[str, ...] = ()

    def __init__(self, L, seed: int, size: str, workdir: Path, pins="file"):
        self.L = L
        self.seed = seed
        self.sample_seed = seed % SAMPLE_SEEDS
        self.size = size
        self.workdir = workdir
        self.generate(random.Random(self.sample_seed))
        self.pins = dict(self.fixed_pins())
        if pins == "file":
            if size == "full" and self.sampled_keys:
                table = json.loads(PINS_FILE.read_text())[self.name]
                self.pins.update(table[str(self.sample_seed)])
        elif pins is not None:
            self.pins.update(pins)

    def generate(self, rng: random.Random) -> None:
        raise NotImplementedError

    def fixed_pins(self) -> dict:
        return {}

    def instances(self, st: PassStats) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassStats:
        st = PassStats()
        st.calibrate()
        self.instances(st)
        for key, want in self.pins.items():
            got = st.counts.get(key, 0)
            if got != want:
                st.fail(f"pinned count {key}: expected {want}, got {got}")
        st.steps.append(clock() - st.step_start)
        # the pass's time without its calibration runs
        st.pass_s = sum(st.steps)
        return st


# -- grid-cli ------------------------------------------------------------------


def _grid(k: int, d: int):
    points = list(itertools.product(range(k), repeat=d))
    label = {p: "".join(map(str, p)) for p in points}
    covers = []
    for p in points:
        for i in range(d):
            if p[i] + 1 < k:
                q = p[:i] + (p[i] + 1,) + p[i + 1:]
                covers.append([label[p], label[q]])
    image = {label[p]: label[tuple(min(x, 1) for x in p)] for p in points}
    fixed = sorted(label[p] for p in points if max(p) <= 1)
    return [label[p] for p in points], covers, image, fixed


class GridCli(Workload):
    """The grid ladder [k]^d with x -> min(x, 1) coordinatewise, Q = Fix,
    through `poset-collapse reduce --emit-collapse` and a replay of its JSON."""

    name = "grid-cli"
    RUNGS = {"full": ((3, 2), (4, 2), (5, 2), (3, 3)), "tiny": ((3, 2),)}
    # faces of Delta([k]^d) and elementary collapses down to Delta(Fix)
    FACES_STEPS = {(3, 2): (103, 46), (4, 2): (1007, 498), (5, 2): (10271, 5130), (3, 3): (3271, 1610)}

    def generate(self, rng):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.rungs = []
        for k, d in self.RUNGS[self.size]:
            elements, covers, image, fixed = _grid(k, d)
            # the seed only shuffles the order of the input files' entries
            rng.shuffle(elements)
            rng.shuffle(covers)
            keys = list(image)
            rng.shuffle(keys)
            poset = {"elements": elements, "covers": covers}
            poset_path = self.workdir / f"grid{k}{d}-poset.json"
            map_path = self.workdir / f"grid{k}{d}-map.json"
            poset_path.write_text(json.dumps(poset))
            map_path.write_text(json.dumps({"map": {x: image[x] for x in keys}}))
            out_path = self.workdir / f"grid{k}{d}-out.json"
            self.rungs.append(((k, d), poset, fixed, poset_path, map_path, out_path))

    def fixed_pins(self):
        pins = {}
        for (k, d), *_ in self.rungs:
            faces, steps = self.FACES_STEPS[(k, d)]
            pins[f"grid{k}{d}.faces"] = faces
            pins[f"grid{k}{d}.steps"] = steps
        return pins

    def instances(self, st):
        for rung in self.rungs:
            st.instance(("grid", rung[0]), self._one, st, *rung)

    def _one(self, st, kd, poset, fixed, poset_path, map_path, out_path):
        L = self.L
        ser = L.serialization
        argv = ["reduce", "--poset", str(poset_path), "--map", str(map_path),
                "--sub", "fix", "--emit-collapse", "-o", str(out_path)]
        t0 = clock()
        rc = L.cli.main(argv)
        st.certify_s += clock() - t0
        if rc != 0:
            return False
        t0 = clock()
        data = ser.load_json(out_path)
        cert = ser.certificate_from_data(data["certificate"])
        seq = ser.collapse_from_data(data["collapse"])
        st.verify_s += clock() - t0
        P = ser.poset_from_data(poset)
        X = L.complexes.order_complex(P)
        Y = L.complexes.order_complex(P.induced(fixed))
        t0 = clock()
        ok = L.evasiveness.verify_ne_certificate(X, Y, cert) and L.collapse.verify_collapse(X, Y, seq)
        st.verify_s += clock() - t0
        k, d = kd
        faces = X.n_faces()
        st.counts[f"grid{k}{d}.faces"] += faces
        st.counts[f"grid{k}{d}.steps"] += len(seq)
        st.counts["collapse.steps"] += len(seq)
        st.counts["complexes.faces_source"] += faces
        st.counts["serialization.bytes_out"] += out_path.stat().st_size
        return ok and 2 * len(seq) == faces - Y.n_faces()


# -- reduce-small ----------------------------------------------------------------


class ReduceSmall(Workload):
    """Seeded labelled posets on 5 and 6 elements, one seeded monotone map
    each, Q = Fix or image: theorem_reduce with the collapse, both replays."""

    name = "reduce-small"
    SAMPLE = {"full": {5: 1500, 6: 1500}, "tiny": {5: 10, 6: 10}}
    sampled_keys = ("instances.fix", "instances.image", "collapse.steps",
                    "complexes.faces_source", "reduction.removed")

    def generate(self, rng):
        E = self.L.enumeration
        self.items = []
        for n, k in self.SAMPLE[self.size].items():
            # sample the posets first, then draw one map per sampled poset;
            # the posets are stratified by their number of strict relations,
            # one per stratum, so that every seed's sample has the same mix
            # of small and large order complexes
            posets = sorted(E.iter_posets(n), key=lambda b: (sum(m.bit_count() for m in b), b))
            bounds = [len(posets) * i // k for i in range(k + 1)]
            for lo, hi in zip(bounds, bounds[1:]):
                below = posets[rng.randrange(lo, hi)]
                table = rng.choice(E.monotone_tables(below))
                use_fix = rng.random() < 0.5
                qmask = E.table_fixed_mask(table) if use_fix else E.table_image_mask(table)
                self.items.append((below, table, use_fix, qmask))

    def instances(self, st):
        for item in self.items:
            st.instance(("reduce", item[:2]), self._one, st, *item)

    def _one(self, st, below, table, use_fix, qmask):
        L = self.L
        P = L.enumeration.poset_from_masks(below)
        phi = L.enumeration.map_from_table(P, table)
        Q = frozenset(e for i, e in enumerate(P.elements) if qmask >> i & 1)
        t0 = clock()
        report = L.reduction.theorem_reduce(P, phi, Q, emit_collapse=True)
        st.certify_s += clock() - t0
        X = L.complexes.order_complex(P)
        Y = L.complexes.order_complex(P.induced(Q))
        t0 = clock()
        ok = (L.evasiveness.verify_ne_certificate(X, Y, report.certificate)
              and L.collapse.verify_collapse(X, Y, report.collapse))
        st.verify_s += clock() - t0
        faces = X.n_faces()
        st.counts["instances.fix" if use_fix else "instances.image"] += 1
        st.counts["collapse.steps"] += len(report.collapse)
        st.counts["complexes.faces_source"] += faces
        st.counts["reduction.removed"] += len(report.removal_order)
        return ok and 2 * len(report.collapse) == faces - Y.n_faces()


# -- crapo-exhaustive ----------------------------------------------------------------


def _bounds(below, above):
    """(bottom, top) indices of a bounded poset given as masks, else None."""
    n = len(below)
    bots = [i for i in range(n) if not below[i]]
    tops = [i for i in range(n) if not above[i]]
    if n < 2 or len(bots) != 1 or len(tops) != 1:
        return None
    full = (1 << n) - 1
    b, t = bots[0], tops[0]
    if below[t] != full & ~(1 << t) or above[b] != full & ~(1 << b):
        return None
    return b, t


class CrapoExhaustive(Workload):
    """hall_check on every bounded labelled poset with n <= 5 and crapo_check
    on every increasing map and admissible Q, plus a seeded n = 6 sample."""

    name = "crapo-exhaustive"
    MAX_N = {"full": 5, "tiny": 3}
    SAMPLE_6 = {"full": (24, 2000), "tiny": (2, 20)}  # (posets, instances)
    # every CROSS_EVERY-th eligible moved-bottom instance is re-derived
    # through the frozen-bottom map, which lands in the other branch
    CROSS_EVERY = 5
    sampled_keys = ("n6.fixed-zero", "n6.zero-not-fixed", "n6.cross-checks")

    def generate(self, rng):
        E = self.L.enumeration
        self.hall = []
        self.groups = []
        for n in range(2, self.MAX_N[self.size] + 1):
            for below in E.iter_posets(n):
                self._add_poset(below, "")
        # bounded labelled 6-posets: a bottom, a top, any poset on the other 4
        middles = list(E.iter_posets(4))
        n_posets, n_inst = self.SAMPLE_6[self.size]
        chosen = []
        for _ in range(n_posets):
            b, t = rng.sample(range(6), 2)
            rest = [i for i in range(6) if i not in (b, t)]
            mid = rng.choice(middles)
            below = [0] * 6
            for j, i in enumerate(rest):
                m = mid[j]
                below[i] = 1 << b
                while m:
                    low = (m & -m).bit_length() - 1
                    below[i] |= 1 << rest[low]
                    m &= m - 1
            below[t] = ((1 << 6) - 1) & ~(1 << t)
            chosen.append(tuple(below))
        start = len(self.groups)
        for below in chosen:
            self._add_poset(below, "n6.")
        sampled = [(g, j) for g in range(start, len(self.groups)) for j in range(len(self.groups[g][3]))]
        keep = set(rng.sample(sampled, min(n_inst, len(sampled))))
        for g in range(start, len(self.groups)):
            below, bt, prefix, items = self.groups[g]
            self.groups[g] = (below, bt, prefix, [x for j, x in enumerate(items) if (g, j) in keep])
        eligible = 0
        for _, _, _, items in self.groups:
            for x in items:
                if x[3]:
                    eligible += 1
                    x[3] = eligible % self.CROSS_EVERY == 0

    def _add_poset(self, below, prefix):
        E = self.L.enumeration
        above = E.above_masks(below)
        bt = _bounds(below, above)
        if bt is None:
            return
        bottom, top = bt
        if not prefix:
            self.hall.append(below)
        n = len(below)
        items = []
        for table in E.increasing_tables(below):
            stab = E.stabilize_table(table)
            pre = sum(1 << i for i in range(n) if stab[i] == top)
            fixm = E.table_fixed_mask(table)
            free = [i for i in range(n) if not (fixm >> i & 1) and not (pre >> i & 1)]
            bottom_fixed = bool(fixm >> bottom & 1)
            # the moved-bottom branch can be re-derived unless the bottom
            # itself stabilizes onto the top
            can_cross = not bottom_fixed and stab[bottom] != top
            for bits in range(1 << len(free)):
                q = fixm | (1 << top)
                for j, i in enumerate(free):
                    if bits >> j & 1:
                        q |= 1 << i
                items.append([table, q, bottom_fixed, can_cross])
        self.groups.append((below, bt, prefix, items))

    def fixed_pins(self):
        if self.size == "full":
            return {"hall": 424, "fixed-zero": 6306, "zero-not-fixed": 18058, "cross-checks": 2829}
        return {"hall": 8, "fixed-zero": 14, "zero-not-fixed": 26, "cross-checks": 2}

    def instances(self, st):
        for below in self.hall:
            st.instance(("hall", below), self._hall, st, below)
        for below, (bottom, top), prefix, items in self.groups:
            E = self.L.enumeration
            P = E.poset_from_masks(below)
            elems = P.elements
            for table, q, bottom_fixed, cross in items:
                phi = E.map_from_table(P, table)
                Q = frozenset(e for i, e in enumerate(elems) if q >> i & 1)
                st.instance(("crapo", below, table, q), self._crapo, st, P, phi, Q,
                            elems[bottom], bottom_fixed, cross, prefix)

    def _hall(self, st, below):
        P = self.L.enumeration.poset_from_masks(below)
        t0 = clock()
        check = self.L.mobius.hall_check(P)
        st.certify_s += clock() - t0
        st.counts["hall"] += 1
        return check.equal

    def _crapo(self, st, P, phi, Q, bottom, bottom_fixed, cross, prefix):
        M = self.L.mobius
        t0 = clock()
        check = M.crapo_check(P, phi, Q)
        st.certify_s += clock() - t0
        st.counts[prefix + check.case] += 1
        ok = check.equal and (check.case == "fixed-zero") == bottom_fixed
        if cross:
            t0 = clock()
            frozen = dict(phi.table)
            frozen[bottom] = bottom
            psi = self.L.poset.PosetMap(P, frozen)
            check2 = M.crapo_check(P, psi, Q | {bottom})
            st.verify_s += clock() - t0
            st.counts[prefix + "cross-checks"] += 1
            ok = ok and check2.case == "fixed-zero" and check2.equal and check2.lhs == check.lhs
        return ok


# -- ne-search -------------------------------------------------------------------


def _face_count(masks) -> int:
    """Nonempty faces of the complex with these facet masks."""
    faces = set()
    for m in masks:
        sub = m
        while sub:
            faces.add(sub)
            sub = (sub - 1) & m
    return len(faces)


class NeSearch(Workload):
    """is_nonevasive and verify_witness on every complex with at most 5
    labelled vertices; on a seeded sample, search_collapse to a point and
    search_ne_reduction onto a seeded induced subcomplex, both replayed."""

    name = "ne-search"
    VERTICES = {"full": 5, "tiny": 3}
    SAMPLE = {"full": 1500, "tiny": 10}
    sampled_keys = ("sample.collapsible", "sample.not-collapsible",
                    "sample.reduces", "sample.not-reducing", "collapse.steps",
                    "sample.removed")

    def generate(self, rng):
        E = self.L.enumeration
        self.all = [(m, _face_count(m)) for m in E.iter_antichain_complexes(self.VERTICES[self.size])]
        # stratified by face count, one complex per stratum, so that every
        # seed's sample has the same mix of small and large searches
        by_size = sorted(self.all, key=lambda c: (c[1], c[0]))
        k = self.SAMPLE[self.size]
        bounds = [len(by_size) * i // k for i in range(k + 1)]
        self.sample = []
        for lo, hi in zip(bounds, bounds[1:]):
            m, faces = by_size[rng.randrange(lo, hi)]
            used = 0
            for f in m:
                used |= f
            verts = [i for i in range(used.bit_length()) if used >> i & 1]
            keep = [i for i in verts if rng.random() < 0.5] or [rng.choice(verts)]
            self.sample.append((m, faces, keep))

    def fixed_pins(self):
        if self.size == "full":
            return {"complexes": 7579, "nonevasive": 1466}
        return {"complexes": 18, "nonevasive": 10}

    def instances(self, st):
        for m, faces in self.all:
            st.instance(("decide", m), self._decide, st, m, faces)
        for m, faces, keep in self.sample:
            st.instance(("search", m, keep), self._search, st, m, faces, keep)

    def _decide(self, st, masks, faces):
        L = self.L
        X = L.enumeration.complex_from_masks(masks)
        t0 = clock()
        w = L.evasiveness.is_nonevasive(X)
        st.certify_s += clock() - t0
        st.counts["complexes"] += 1
        st.counts["complexes.faces_source"] += faces
        if w is L.evasiveness.EVASIVE:
            return True
        if w is L.evasiveness.BUDGET_EXCEEDED:
            return False
        st.counts["nonevasive"] += 1
        t0 = clock()
        ok = L.evasiveness.verify_witness(X, w)
        st.verify_s += clock() - t0
        return ok

    def _search(self, st, masks, faces, keep):
        L = self.L
        ev, co, cx = L.evasiveness, L.collapse, L.complexes
        X = L.enumeration.complex_from_masks(masks)
        st.counts["complexes.faces_source"] += faces
        t0 = clock()
        seq = co.search_collapse(X, None)
        st.certify_s += clock() - t0
        ok = True
        if isinstance(seq, co.CollapseSequence):
            st.counts["sample.collapsible"] += 1
            st.counts["collapse.steps"] += len(seq)
            gone = {next(iter(tau)) for tau, _ in seq if len(tau) == 1}
            left = [v for v in X.vertices if v not in gone]
            t0 = clock()
            ok = len(left) == 1 and co.verify_collapse(X, cx.SimplicialComplex.point(left[0]), seq)
            st.verify_s += clock() - t0
        elif seq is ev.NOT_FOUND:
            st.counts["sample.not-collapsible"] += 1
        else:
            return False
        Y = cx.induced_subcomplex(X, [L.enumeration.LABELS[i] for i in keep])
        t0 = clock()
        cert = ev.search_ne_reduction(X, Y)
        st.certify_s += clock() - t0
        if isinstance(cert, ev.NECertificate):
            st.counts["sample.reduces"] += 1
            st.counts["sample.removed"] += len(cert)
            t0 = clock()
            ok = ok and ev.verify_ne_certificate(X, Y, cert)
            st.verify_s += clock() - t0
        elif cert is ev.NOT_FOUND:
            st.counts["sample.not-reducing"] += 1
        else:
            return False
        return ok


WORKLOADS = {w.name: w for w in (GridCli, ReduceSmall, CrapoExhaustive, NeSearch)}
