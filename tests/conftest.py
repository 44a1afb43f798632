import itertools
import json
import pathlib

import pytest

from novikov._kernels import pure
from novikov.algebra import regular
from novikov.fields import GF, QQ
from novikov.fixtures import example_algebra, example_beta, example_t
from novikov.tensors import Tensor2

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def golden_counts() -> dict:
    """The pinned enumeration counts, by search."""
    return json.loads((REPO / "goldens" / "counts.json").read_text(encoding="utf-8"))


def tensor2_from_pairs(field, n: int, pairs) -> Tensor2:
    """Σ c·e_i⊗e_j from (i, j, c) triples."""
    grid = [[field.zero()] * n for _ in range(n)]
    for i, j, c in pairs:
        grid[i][j] += field.coerce(c)
    return Tensor2(field, tuple(map(tuple, grid)))


@pytest.fixture
def a2():
    return example_algebra(QQ)


@pytest.fixture
def a2_f3():
    return example_algebra(GF(3))


@pytest.fixture
def a2_regular(a2):
    return regular(a2)


@pytest.fixture
def t2():
    return example_t(QQ)


@pytest.fixture
def beta2():
    return example_beta(QQ)


@pytest.fixture
def fixture_path():
    def inner(name: str) -> str:
        return str(FIXTURES / name)

    return inner


def _commute(a: tuple, b: tuple, n: int, p: int) -> bool:
    """AB = BA for row-major n x n matrices over F_p."""
    return not any(
        sum(a[i * n + k] * b[k * n + j] - b[i * n + k] * a[k * n + j] for k in range(n)) % p
        for i in range(n)
        for j in range(n)
    )


def commuting_novikov_tables(n: int, p: int) -> tuple[int, list]:
    """Every Novikov table of dimension n over F_p, found without the search
    or polarization: (the number of right-commutative tables, the sorted
    flat tables that are also left-symmetric).

    Right-commutativity (a∘b)∘c = (a∘c)∘b says that the right
    multiplications R_c = R(e_c) commute pairwise, and a table is the tuple
    (R_0, ..., R_{n-1}) with (e_j∘e_c)_t = R_c[t][j].  So the
    right-commutative tables are the pairwise commuting tuples of matrices,
    built by intersecting centralizers; each is then checked with the pure
    kernel's ``novikov_ok``.
    """
    mats = list(itertools.product(range(p), repeat=n * n))
    centralizer = [{b for b, mb in enumerate(mats) if _commute(ma, mb, n, p)} for ma in mats]
    right_commutative, tables = 0, []

    def extend(chosen: list, allowed: set) -> None:
        nonlocal right_commutative
        if len(chosen) == n:
            right_commutative += 1
            r = [mats[c] for c in chosen]
            mul = tuple(r[c][t * n + j] for j in range(n) for c in range(n) for t in range(n))
            if pure.novikov_ok(mul, n, p):
                tables.append(mul)
            return
        for m in sorted(allowed):
            extend(chosen + [m], allowed & centralizer[m])

    extend([], set(range(len(mats))))
    return right_commutative, sorted(tables)


@pytest.fixture(scope="session")
def novikov_dim3_f2():
    """The dimension-3 Novikov tables over F_2 from the commuting-tuple
    oracle, shared by the tests that need them."""
    return commuting_novikov_tables(3, 2)


@pytest.fixture(scope="session")
def novikov_dim2_f5():
    """The dimension-2 Novikov tables over F_5 from the pure kernel's
    exhaustive scan (no search), shared by the tests that need them."""
    return pure.enumerate_novikov_dim2(5)
