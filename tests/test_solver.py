import itertools
import json
import os
import random

import pytest

from novikov.algebra import dual_context, novikov_residual, regular
from novikov.errors import NovikovError, SpaceTooLarge
from novikov.fields import GF, QQ
from novikov.fixtures import example_algebra
from novikov.linalg import Matrix
from novikov.operators import LinMap, balanced_residual, bimodule_hom_residual, equivalent_residual
from novikov.solver import (
    SearchSpec,
    balanced_hom_basis,
    balanced_hom_equivalent_basis,
    enumerate_search,
    enumerated_dim2,
    golden_counts,
    hom_map_basis,
    invariant_form_basis,
    invariant_symmetric_basis,
    random_instance,
    reverify,
    sample_from_basis,
    solution_to_object,
    trunc_poly_algebra,
)
from novikov.tensors import Tensor2
from novikov.ybe import BilForm, bilform_invariance, invariance_residual


def test_goldens_match_enumeration():
    counts = golden_counts()
    for p in (2, 3):
        res = enumerate_search(SearchSpec("novikov-algebra", GF(p), 2))
        assert len(res.solutions) == counts[f"novikov-algebra/dim2/F{p}"]


def test_solutions_reverify_object_path():
    spec = SearchSpec("novikov-algebra", GF(3), 2)
    res = enumerate_search(spec)
    assert all(reverify(spec, s) for s in res.solutions)


def test_deterministic_and_sharded():
    spec = SearchSpec("novikov-algebra", GF(2), 2)
    r1 = enumerate_search(spec)
    r2 = enumerate_search(spec)
    assert r1.solutions == r2.solutions and r1.check_hash == r2.check_hash
    merged = []
    for i in range(4):
        shard = SearchSpec("novikov-algebra", GF(2), 2, shard_index=i, shard_count=4)
        merged.extend(enumerate_search(shard).solutions)
    assert sorted(merged) == r1.solutions


def test_nybe_search_contains_known_solution(a2_f3):
    spec = SearchSpec("nybe-solution", GF(3), 2, algebra=a2_f3)
    res = enumerate_search(spec)
    assert (0, 0, 0, 1) in res.solutions  # e2⊗e2
    assert all(reverify(spec, s) for s in res.solutions)
    assert len(res.solutions) == golden_counts()["nybe-solution/a2/F3"]


def test_rota_baxter_search_contains_identity(a2_f3):
    spec = SearchSpec("rota-baxter", GF(3), 2, algebra=a2_f3, weight=-1)
    res = enumerate_search(spec)
    assert (1, 0, 0, 1) in res.solutions
    assert all(reverify(spec, s) for s in res.solutions)


def test_search_guards():
    with pytest.raises(NovikovError):
        SearchSpec("novikov-algebra", GF(11), 2)
    with pytest.raises(NovikovError):
        SearchSpec("unknown-kind", GF(3), 2)
    with pytest.raises(SpaceTooLarge):
        enumerate_search(SearchSpec("novikov-algebra", GF(7), 3))  # 7^27 candidates


def test_jsonl_round_trip(a2_f3):
    spec = SearchSpec("nybe-solution", GF(3), 2, algebra=a2_f3)
    res = enumerate_search(spec)
    lines = [json.loads(line) for line in res.to_jsonl().splitlines()]
    assert len(lines) == len(res.solutions)
    assert all(line["kind"] == "nybe-solution" for line in lines)
    assert [tuple(line["coeffs"]) for line in lines] == res.solutions


def test_random_instance_families():
    tp = random_instance(0, "trunc-poly-novikov", QQ, 4)
    assert novikov_residual(tp).is_zero
    a = random_instance(5, "enumerated-dim2", GF(2))
    assert novikov_residual(a).is_zero
    m1 = random_instance(9, "random-maps-over-Fp", GF(5), shape=(3, 2))
    m2 = random_instance(9, "random-maps-over-Fp", GF(5), shape=(3, 2))
    assert m1 == m2
    with pytest.raises(NovikovError):
        random_instance(0, "no-such-family")


def test_enumerated_lexicographic_indexing():
    algs = enumerated_dim2(GF(2))
    assert random_instance(3, "enumerated-dim2", GF(2)).mul == algs[3].mul
    assert len(algs) == golden_counts()["novikov-algebra/dim2/F2"]


def test_balanced_hom_space_members_verify(a2):
    import random as _random

    reg = regular(a2)
    basis = balanced_hom_basis(reg)
    assert basis  # identity and the worked extension live here
    rng = _random.Random(4)
    for _ in range(5):
        beta = sample_from_basis(basis, rng, QQ)
        assert balanced_residual(reg, beta).is_zero
        assert bimodule_hom_residual(reg, beta).is_zero
    for beta in balanced_hom_equivalent_basis(reg):
        assert equivalent_residual(reg, beta, 1).is_zero


def test_invariant_spaces_verify(a2_f3):
    for s in invariant_symmetric_basis(a2_f3):
        assert invariance_residual(a2_f3, s).is_zero
    tp = trunc_poly_algebra(QQ, 3)
    for form in invariant_form_basis(tp):
        rep, _ = bilform_invariance(tp, form)
        assert rep.is_zero


def test_invariant_space_size_matches_bruteforce(a2_f3):
    # the linear solve and the exhaustive scan must agree exactly
    basis = invariant_symmetric_basis(a2_f3)
    spec = SearchSpec("invariant-symmetric-tensor", GF(3), 2, algebra=a2_f3)
    res = enumerate_search(spec)
    assert 3 ** len(basis) == len(res.solutions)


def _all_maps(ctx):
    f, n, m = ctx.field, ctx.alg.dim, ctx.mdim
    for coeffs in itertools.product(range(f.p), repeat=n * m):
        yield LinMap(Matrix(f, n, m, coeffs))


def _all_symmetric(alg, make):
    n = alg.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for coeffs in itertools.product(range(alg.field.p), repeat=len(pairs)):
        grid = [[0] * n for _ in range(n)]
        for (i, j), c in zip(pairs, coeffs):
            grid[i][j] = grid[j][i] = c
        yield make(alg.field, tuple(tuple(row) for row in grid))


MAP_SPACES = {
    "hom": (hom_map_basis, (bimodule_hom_residual,)),
    "balanced-hom": (balanced_hom_basis, (balanced_residual, bimodule_hom_residual)),
    "balanced-hom-equivalent": (
        balanced_hom_equivalent_basis,
        (balanced_residual, bimodule_hom_residual, lambda ctx, beta: equivalent_residual(ctx, beta, 1)),
    ),
}


def _space_cases(space, alg):
    """(basis, every candidate object, object-path predicate) per context."""
    if space == "invariant-symmetric":
        yield invariant_symmetric_basis(alg), _all_symmetric(alg, Tensor2), lambda s: invariance_residual(alg, s).is_zero
    elif space == "invariant-form":
        yield invariant_form_basis(alg), _all_symmetric(alg, BilForm), lambda b: bilform_invariance(alg, b)[0].is_zero
    else:
        basis_fn, residuals = MAP_SPACES[space]
        for ctx in (regular(alg, validate=False), dual_context(alg, validate=False)):
            yield basis_fn(ctx), _all_maps(ctx), lambda beta, ctx=ctx: all(r(ctx, beta).is_zero for r in residuals)


@pytest.mark.parametrize("space", ["invariant-symmetric", "invariant-form", *MAP_SPACES])
@pytest.mark.parametrize("p", [2, 3])
def test_linear_space_sizes_match_bruteforce(p, space):
    # completeness, not just membership: the span of the basis holds every
    # object on which the object-path residuals vanish, and nothing else
    algs = enumerated_dim2(GF(p))
    if p != 2:
        algs = random.Random(5).sample(algs, 4)
    for alg in algs:
        for basis, candidates, holds in _space_cases(space, alg):
            assert sum(map(holds, candidates)) == p ** len(basis), (space, alg.mul)


def test_golden_dir_override(tmp_path, monkeypatch):
    custom = tmp_path / "counts.json"
    custom.write_text(json.dumps({"novikov-algebra/dim2/F2": 52}))
    monkeypatch.setenv("NOVA_GOLDEN_DIR", str(tmp_path))
    assert golden_counts() == {"novikov-algebra/dim2/F2": 52}
