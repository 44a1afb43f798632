"""The acceptance gate: each criterion runs at its stated tolerance and
prints one pass/fail line (bypassing capture so the lines always show)."""

import sys
import time

from conftest import golden_counts

from novikov import _kernels as kernels
from novikov.cli import main as cli_main
from novikov.fields import GF, QQ
from novikov.fixtures import example_algebra
from novikov.properties import run_property
from novikov.serialize import from_document, loads
from novikov.solver import (
    SearchSpec,
    enumerate_search,
    enumerated_dim2,
    reverify,
)
from novikov.tensors import Tensor2
from novikov.ybe import nybe_residual, o_nybe_residual


def note(line: str) -> None:
    sys.__stderr__.write(line + "\n")
    sys.__stderr__.flush()


def _outcome(criterion: str, ok: bool, detail: str) -> None:
    note(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_criterion_1_worked_example_exact(capsys, fixture_path):
    t0 = time.perf_counter()
    code, _ = run_cli(
        capsys, "check", "ext-o", "--weight", "1", "--kappa", "-2", "--mu", "0",
        fixture_path("a2.json"), "regular", fixture_path("t2.json"), fixture_path("beta2.json"),
    )
    ok = code == 0

    code2, out2 = run_cli(
        capsys, "derive", "circ-t", "--weight", "1", fixture_path("a2.json"), fixture_path("t2.json")
    )
    alg = from_document(loads(out2))
    ok &= code2 == 0
    ok &= alg.mul[0][0] == (QQ.coerce(-3), QQ.coerce(8))
    ok &= all(all(c == 0 for c in alg.mul[i][j]) for i, j in ((0, 1), (1, 0), (1, 1)))

    code3, out3 = run_cli(
        capsys, "derive", "circ-pm", "--weight", "1", fixture_path("a2.json"), fixture_path("beta2.json")
    )
    bundle = from_document(loads(out3))
    plus, minus = bundle["plus"], bundle["minus"]
    ok &= code3 == 0
    ok &= plus.mul[0][0] == (QQ.coerce(-1), QQ.coerce(-6))  # e1 - 2(e1+3e2)
    ok &= minus.mul[0][0] == (QQ.coerce(3), QQ.coerce(6))  # e1 + 2(e1+3e2)
    ok &= plus.mul[0][1] == (QQ.coerce(0), QQ.coerce(-1)) and plus.mul[1][0] == (QQ.coerce(0), QQ.coerce(-1))
    ok &= minus.mul[0][1] == (QQ.coerce(0), QQ.coerce(3)) and minus.mul[1][0] == (QQ.coerce(0), QQ.coerce(3))
    ok &= all(c == 0 for c in plus.mul[1][1]) and all(c == 0 for c in minus.mul[1][1])

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _outcome("1 (worked example, exact)", ok, f"{elapsed:.2f}s < 1s, all values exact")


def test_criterion_2_exhaustive_tensor_operator_equivalence():
    t0 = time.perf_counter()
    field = GF(3)
    algs = enumerated_dim2(field)
    disagreements = 0
    pairs = 0
    for alg in algs:
        for idx in range(81):
            v = idx
            cells = []
            for _ in range(4):
                cells.append(v % 3)
                v //= 3
            r = Tensor2(field, ((cells[3], cells[2]), (cells[1], cells[0])))
            lhs = nybe_residual(alg, r).is_zero()
            rhs = o_nybe_residual(alg, r).is_zero
            pairs += 1
            if lhs != rhs:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 60.0 and pairs == len(algs) * 81
    _outcome(
        "2 (tensor vs operator form, exhaustive F3)",
        ok,
        f"{len(algs)} algebras x 81 tensors = {pairs} pairs, {disagreements} disagreements, {elapsed:.1f}s < 60s",
    )


def test_criterion_3_shifted_rota_baxter_equivalence(novikov_dim2_f5):
    import random

    t0 = time.perf_counter()
    p = 5
    tables = novikov_dim2_f5
    ident = (1, 0, 0, 1)
    disagreements = 0
    checks = 0
    for a_idx, mul in enumerate(tables):
        rng = random.Random(7_000_003 + a_idx)
        for _ in range(200):
            t = (rng.randrange(p), rng.randrange(p), rng.randrange(p), rng.randrange(p))
            for lam in (0, 1, 2):
                for sign in (1, -1):
                    hk = (-1 + sign * lam) % p
                    lhs = kernels.hkappa_ok(mul, 2, p, t, lam, hk)
                    shifted = tuple((a + sign * b) % p for a, b in zip(t, ident))
                    w = (lam - 2 * sign) % p
                    rhs = kernels.rb_ok(mul, 2, p, shifted, w)
                    checks += 1
                    if lhs != rhs:
                        disagreements += 1
    elapsed = time.perf_counter() - t0
    expected = len(tables) * 200 * 3 * 2
    ok = disagreements == 0 and checks == expected
    _outcome(
        "3 (combined-mass vs shifted Rota-Baxter, F5)",
        ok,
        f"{len(tables)} algebras x 200 maps x 3 weights x 2 signs = {checks} checks, "
        f"{disagreements} disagreements, {elapsed:.1f}s [{kernels.BACKEND} kernels]",
    )


def test_criterion_4_semidirect_and_dual_exhaustive():
    t0 = time.perf_counter()
    semi = run_property("P-SEMI", trials=0, seed=1, field=GF(2))
    dual = run_property("P-DUAL", trials=0, seed=1, field=GF(2))
    count = golden_counts()["novikov-algebra/dim2/F2"]
    ok = (
        semi.passed
        and dual.passed
        and semi.checked >= count * 32
        and semi.hypothesis_hits > 0
        and dual.hypothesis_hits > 0
    )
    elapsed = time.perf_counter() - t0
    _outcome(
        "4 (semidirect and dual, exhaustive F2)",
        ok,
        f"P-SEMI {semi.checked} checks / P-DUAL {dual.checked} valid bimodules, "
        f"0 disagreements, {elapsed:.1f}s",
    )


def test_criterion_5_extension_theorems_seeded():
    t0 = time.perf_counter()
    budgets = {"P-EXT-STAR": 75, "P-DELTA-PM": 130, "P-R-PM": 70}
    total = {}
    ok = True
    for prop_id, trials in budgets.items():
        checked = 0
        hits = 0
        for p in (5, 7):
            res = run_property(prop_id, trials=trials, seed=17, field=GF(p))
            ok &= res.passed
            checked += res.checked
            hits += res.hypothesis_hits
        total[prop_id] = (checked, hits)
        ok &= checked >= 500 and hits > 0
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k}: {v[0]} checks/{v[1]} hits" for k, v in total.items())
    _outcome("5 (extension theorems, 500+ seeded instances F5+F7)", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_6_generalized_operator_exhaustive():
    t0 = time.perf_counter()
    res = run_property("P-GOPER", trials=0, seed=1, field=GF(2))
    count = golden_counts()["novikov-algebra/dim2/F2"]
    elapsed = time.perf_counter() - t0
    ok = res.passed and res.checked == count * 16 and elapsed < 120.0
    _outcome(
        "6 (generalized operators vs lifted tensor, exhaustive F2)",
        ok,
        f"{res.checked} maps across {count} algebras, 0 disagreements, {elapsed:.1f}s < 120s",
    )


def test_criterion_7_dual_product_closed_form():
    t0 = time.perf_counter()
    res = run_property("P-CIRC-DELTA", trials=40, seed=5, field=GF(5))
    # the worked value (3 x first dual vector) is asserted inside the property
    elapsed = time.perf_counter() - t0
    ok = res.passed and res.checked > 40
    _outcome(
        "7 (dual-product closed form vs pairing)",
        ok,
        f"{res.checked} instances including the worked value, {elapsed:.1f}s",
    )


def test_criterion_8_determinism_and_oracle_integrity(capsys, fixture_path):
    t0 = time.perf_counter()
    ok = True
    # byte-identical reruns of a solve stream
    _, out1 = run_cli(capsys, "solve", "nybe", fixture_path("a2_f3.json"), "--field", "F3")
    _, out2 = run_cli(capsys, "solve", "nybe", fixture_path("a2_f3.json"), "--field", "F3")
    ok &= out1 == out2 and len(out1) > 0

    # shard layouts union to the same set
    full = enumerate_search(SearchSpec("novikov-algebra", GF(3), 2))
    for k in (2, 3, 5):
        merged = []
        for i in range(k):
            merged.extend(
                enumerate_search(
                    SearchSpec("novikov-algebra", GF(3), 2, shard_index=i, shard_count=k)
                ).solutions
            )
        ok &= sorted(merged) == full.solutions

    # every emitted solution re-verifies through the object path
    counts = golden_counts()
    a2f3 = example_algebra(GF(3))
    for spec, key in (
        (SearchSpec("novikov-algebra", GF(2), 2), "novikov-algebra/dim2/F2"),
        (SearchSpec("novikov-algebra", GF(3), 2), "novikov-algebra/dim2/F3"),
        (SearchSpec("nybe-solution", GF(3), 2, algebra=a2f3), "nybe-solution/a2/F3"),
        (SearchSpec("rota-baxter", GF(3), 2, algebra=a2f3, weight=-1), "rota-baxter/a2/F3/weight=-1"),
        (SearchSpec("invariant-symmetric-tensor", GF(3), 2, algebra=a2f3), "invariant-symmetric-tensor/a2/F3"),
    ):
        res = enumerate_search(spec)
        ok &= len(res.solutions) == counts[key]
        ok &= all(reverify(spec, s) for s in res.solutions)
        rerun = enumerate_search(spec)
        ok &= rerun.check_hash == res.check_hash

    elapsed = time.perf_counter() - t0
    _outcome(
        "8 (determinism and oracle integrity)",
        ok,
        f"byte-identical streams, shard unions stable, all solutions re-verify, {elapsed:.1f}s",
    )
