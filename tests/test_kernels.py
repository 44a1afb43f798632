import ast
import pathlib

from novikov._kernels import pure

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "novikov"


def _imports_kernels(node) -> bool:
    if isinstance(node, ast.Import):
        return any("_kernels" in alias.name.split(".") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return "_kernels" in module or any(alias.name == "_kernels" for alias in node.names)
    return False


def test_object_path_never_imports_kernels():
    """The kernels are an independent oracle only: no module outside
    ``_kernels/`` imports them, so ``reverify`` and every residual stay
    independent of the code they are checked against."""
    modules = [p for p in sorted(SRC.rglob("*.py")) if "_kernels" not in p.relative_to(SRC).parts]
    assert len(modules) > 10
    offenders = [
        str(p.relative_to(SRC))
        for p in modules
        if any(_imports_kernels(node) for node in ast.walk(ast.parse(p.read_text(), str(p))))
    ]
    assert offenders == []


def test_kernels_match_object_path():
    """The kernel predicates and the generic residual ops agree."""
    import random as _random

    from novikov.algebra import Algebra, novikov_residual
    from novikov.fields import GF
    from novikov.operators import LinMap, rota_baxter_residual
    from novikov.linalg import Matrix
    from novikov.tensors import Tensor2
    from novikov.ybe import nybe_residual, o_nybe_residual

    rng = _random.Random(8)
    f5 = GF(5)
    for _ in range(150):
        mul = tuple(rng.randrange(5) for _ in range(8))
        grid = tuple(tuple(tuple(mul[(i * 2 + j) * 2 + k] for k in range(2)) for j in range(2)) for i in range(2))
        alg = Algebra(f5, 2, grid)
        assert pure.novikov_ok(mul, 2, 5) == novikov_residual(alg).is_zero
        t = tuple(rng.randrange(5) for _ in range(4))
        lam = rng.randrange(5)
        assert pure.rb_ok(mul, 2, 5, t, lam) == rota_baxter_residual(
            alg, LinMap(Matrix(f5, 2, 2, t)), lam
        ).is_zero
        r = tuple(rng.randrange(5) for _ in range(4))
        tens = Tensor2(f5, ((r[0], r[1]), (r[2], r[3])))
        assert pure.nybe_ok(mul, 2, 5, r) == nybe_residual(alg, tens).is_zero()
        assert pure.o_nybe_ok(mul, 2, 5, r) == o_nybe_residual(alg, tens).is_zero
