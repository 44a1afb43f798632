"""Pure-Python mod-p kernels: hand-written identity predicates for the random
checks, and the independent oracle the residual-derived search is tested
against.

Everything here works on flat int tuples: a multiplication table is
``mul[(i*n + j)*n + k]`` = coefficient of e_k in e_i∘e_j, a matrix is
row-major ``t[i*n + j]``, a 2-tensor is ``r[i*n + j]``.
"""

from __future__ import annotations


def _prod(mul, n, p, a, b, out):
    """out += a∘b for coordinate lists a, b (out length n, reduced later)."""
    for i in range(n):
        ai = a[i]
        if not ai:
            continue
        for j in range(n):
            bj = b[j]
            if not bj:
                continue
            c = ai * bj
            base = (i * n + j) * n
            for k in range(n):
                m = mul[base + k]
                if m:
                    out[k] += c * m
    return out


def product(mul, n, p, a, b):
    out = [0] * n
    _prod(mul, n, p, a, b, out)
    return [x % p for x in out]


def novikov_ok(mul, n, p):
    """Left-symmetry and right-commutativity on all basis triples."""
    for i in range(n):
        for j in range(n):
            ij = mul[(i * n + j) * n : (i * n + j) * n + n]
            ji = mul[(j * n + i) * n : (j * n + i) * n + n]
            for k in range(n):
                for t in range(n):
                    # ((e_i∘e_j)∘e_k)_t etc. via one contraction each
                    a1 = 0  # (ij)∘k
                    a2 = 0  # i∘(jk)
                    a3 = 0  # (ji)∘k
                    a4 = 0  # j∘(ik)
                    a5 = 0  # (ik)∘j
                    for s in range(n):
                        a1 += ij[s] * mul[(s * n + k) * n + t]
                        a2 += mul[(j * n + k) * n + s] * mul[(i * n + s) * n + t]
                        a3 += ji[s] * mul[(s * n + k) * n + t]
                        a4 += mul[(i * n + k) * n + s] * mul[(j * n + s) * n + t]
                        a5 += mul[(i * n + k) * n + s] * mul[(s * n + j) * n + t]
                    if (a1 - a2 - a3 + a4) % p:
                        return False
                    if (a1 - a5) % p:
                        return False
    return True


def enumerate_novikov_dim2(p):
    """All dim-2 tables over F_p passing the Novikov identities, in
    lexicographic coefficient order (flat 8-tuples)."""
    out = []
    total = p ** 8
    digits = [0] * 8
    for idx in range(total):
        v = idx
        for m in range(7, -1, -1):
            digits[m] = v % p
            v //= p
        t = tuple(digits)
        if novikov_ok(t, 2, p):
            out.append(t)
    return out


def ext_o_regular_ok(mul, n, p, t, beta, lam, kappa, mu):
    """T(x)∘T(y) - T(Tx∘y + x∘Ty + lam·x∘y) - kappa·B(x)∘B(y) - mu·B(x∘y) = 0
    on basis pairs, for the regular module."""
    tc = [[t[i * n + j] for i in range(n)] for j in range(n)]  # tc[j] = T(e_j)
    bc = None
    if beta is not None:
        bc = [[beta[i * n + j] for i in range(n)] for j in range(n)]
    for x in range(n):
        ex = [1 if s == x else 0 for s in range(n)]
        tx = tc[x]
        for y in range(n):
            ey = [1 if s == y else 0 for s in range(n)]
            ty = tc[y]
            lhs = [0] * n
            _prod(mul, n, p, tx, ty, lhs)
            inner = [0] * n
            _prod(mul, n, p, tx, ey, inner)
            _prod(mul, n, p, ex, ty, inner)
            base = (x * n + y) * n
            for k in range(n):
                inner[k] += lam * mul[base + k]
            # subtract T(inner)
            for i in range(n):
                ci = inner[i]
                if ci:
                    for k in range(n):
                        lhs[k] -= ci * tc[i][k]
            if bc is not None:
                bb = [0] * n
                _prod(mul, n, p, bc[x], bc[y], bb)
                for k in range(n):
                    lhs[k] -= kappa * bb[k]
                if mu:
                    for i in range(n):
                        ci = mul[base + i]
                        if ci:
                            for k in range(n):
                                lhs[k] -= mu * ci * bc[i][k]
            for k in range(n):
                if lhs[k] % p:
                    return False
    return True


def rb_ok(mul, n, p, t, lam):
    return ext_o_regular_ok(mul, n, p, t, None, lam, 0, 0)


def hkappa_ok(mul, n, p, t, lam, hk):
    """The identity-extension equation with combined mass hk."""
    ident = [0] * (n * n)
    for i in range(n):
        ident[i * n + i] = 1
    return ext_o_regular_ok(mul, n, p, t, tuple(ident), lam, hk, 0)


def nybe_ok(mul, n, p, r):
    """r13∘r23 + r12⋆r23 + r13∘r12 = 0 (dense accumulation, n is small)."""
    acc = [0] * (n * n * n)
    for a in range(n):
        for b in range(n):
            rab = r[a * n + b]
            if not rab:
                continue
            for c in range(n):
                for d in range(n):
                    rcd = r[c * n + d]
                    if not rcd:
                        continue
                    co = rab * rcd
                    # r13∘r23: out[a][c][b∘d]
                    base_bd = (b * n + d) * n
                    base_bc = (b * n + c) * n
                    base_cb = (c * n + b) * n
                    base_ac = (a * n + c) * n
                    for k in range(n):
                        m = mul[base_bd + k]
                        if m:
                            acc[(a * n + c) * n + k] += co * m
                        sm = mul[base_bc + k] + mul[base_cb + k]
                        if sm:
                            acc[(a * n + k) * n + d] += co * sm
                        m2 = mul[base_ac + k]
                        if m2:
                            acc[(k * n + d) * n + b] += co * m2
    return all(x % p == 0 for x in acc)


def enybe_ok(mul, n, p, r, eps):
    """nybe(r) == eps * (r+tau r)13∘(r+tau r)23."""
    acc = [0] * (n * n * n)
    for a in range(n):
        for b in range(n):
            rab = r[a * n + b]
            if not rab:
                continue
            for c in range(n):
                for d in range(n):
                    rcd = r[c * n + d]
                    if not rcd:
                        continue
                    co = rab * rcd
                    base_bd = (b * n + d) * n
                    base_bc = (b * n + c) * n
                    base_cb = (c * n + b) * n
                    base_ac = (a * n + c) * n
                    for k in range(n):
                        m = mul[base_bd + k]
                        if m:
                            acc[(a * n + c) * n + k] += co * m
                        sm = mul[base_bc + k] + mul[base_cb + k]
                        if sm:
                            acc[(a * n + k) * n + d] += co * sm
                        m2 = mul[base_ac + k]
                        if m2:
                            acc[(k * n + d) * n + b] += co * m2
    if eps:
        s = [(r[i * n + j] + r[j * n + i]) % p for i in range(n) for j in range(n)]
        for a in range(n):
            for b in range(n):
                sab = s[a * n + b]
                if not sab:
                    continue
                for c in range(n):
                    for d in range(n):
                        scd = s[c * n + d]
                        if not scd:
                            continue
                        co = eps * sab * scd
                        base_bd = (b * n + d) * n
                        for k in range(n):
                            m = mul[base_bd + k]
                            if m:
                                acc[(a * n + c) * n + k] -= co * m
    return all(x % p == 0 for x in acc)


def o_nybe_ok(mul, n, p, r):
    """Operator form of the tensor equation on dual basis pairs."""
    # hat columns: hat_col[i] = row i of r; hat_t_col[j] = column j of r
    hat = [[r[i * n + t] for t in range(n)] for i in range(n)]
    hat_t = [[r[t * n + j] for t in range(n)] for j in range(n)]
    for i in range(n):
        ha = hat[i]
        for j in range(n):
            hb = hat[j]
            lhs = [0] * n
            _prod(mul, n, p, ha, hb, lhs)
            # inner_s = -Lstar(ha)[j][s] - R(hat_t[j])[i][s]
            inner = [0] * n
            for s in range(n):
                v = 0
                for a in range(n):
                    ca = ha[a]
                    if ca:
                        v += ca * (mul[(a * n + s) * n + j] + mul[(s * n + a) * n + j])
                    cb = hat_t[j][a]
                    if cb:
                        v += cb * mul[(s * n + a) * n + i]
                inner[s] = -v
            for t in range(n):
                acc = lhs[t]
                for s in range(n):
                    acc -= inner[s] * r[s * n + t]
                if acc % p:
                    return False
    return True


def invariant_symmetric_ok(mul, n, p, s):
    """(L(x)⊗id + id⊗Lstar(x))s = 0 for every basis x."""
    for x in range(n):
        for i in range(n):
            for j in range(n):
                acc = 0
                for a in range(n):
                    sa = s[a * n + j]
                    if sa:
                        acc += sa * mul[(x * n + a) * n + i]
                    sb = s[i * n + a]
                    if sb:
                        acc += sb * (mul[(x * n + a) * n + j] + mul[(a * n + x) * n + j])
                if acc % p:
                    return False
    return True


def bilform_invariant_ok(mul, n, p, b):
    """B(e_i∘e_j, e_k) + B(e_j, e_i⋆e_k) = 0 on basis triples (b symmetric grid)."""
    for i in range(n):
        for j in range(n):
            base = (i * n + j) * n
            for k in range(n):
                acc = 0
                for t in range(n):
                    acc += mul[base + t] * b[t * n + k]
                    acc += (mul[(i * n + k) * n + t] + mul[(k * n + i) * n + t]) * b[j * n + t]
                if acc % p:
                    return False
    return True
