"""Clifford generator tables, Hurwitz-Radon bounds, normed bilinear pairings,
and the quadratic Hopf maps they induce.

Generators are built, never copied from a table: left multiplications in the
Cayley-Dickson algebras give the base cases up to seven generators, one
doubling step bootstraps the eighth, and the period-8 tensor construction
extends to larger sizes, kept as signed permutations. A pairing's norm
identity is proved by the Hurwitz equations on its slabs, each cleared to
integers, and that proof is also the one certificate of a generator system:
with the identity as slab 0, the Hurwitz equations of the slabs
[I, E_1, ..., E_k] are exactly E_i^2 = -I, E_i^T E_i = I and
E_i E_j = -E_j E_i. So normed_pairing, the one entry to the generator
systems, proves the slabs of each pairing it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from . import _linalg
from .jets import FracQuadMap
from .polycore import CertificateError, Poly, PolyMap, _quadratic_polys, _quadratic_terms, as_rational
from .spheres import QuadSphereMap, hopf_construction

KAPPA_DOMAIN_CAP = 1 << 20

# Minimal dimensions of representations with k anticommuting orthogonal
# complex structures, k = 0..7; beyond that the dimension multiplies by 16
# every 8 generators.
_BASE_DIMS = (1, 2, 4, 4, 8, 8, 8, 8)


class SizeInfeasible(Exception):
    def __init__(self, r: int, n: int):
        super().__init__(f"no normed pairing of size [{r}, {n}, {n}]: r exceeds rho({n}) = {rho(n)}")
        self.r = r
        self.n = n


def _check_ints(**sizes) -> None:
    # type(), not isinstance(): bool is an int, and True is no size
    for name, value in sizes.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


def rho(n: int) -> int:
    """Hurwitz-Radon function: write n = 2^(4a+b) * odd with 0 <= b <= 3,
    then rho(n) = 8a + 2^b."""
    _check_ints(n=n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    a, b = divmod((n & -n).bit_length() - 1, 4)
    return 8 * a + (1 << b)


def kappa(m: int) -> int:
    """Largest n with a nonsingular bilinear [m, n, n]-pairing.

    Computed by the recursion kappa(2^t + r) = 2^t when r < rho(2^t) and
    2^t + kappa(r) otherwise, for 0 <= r < 2^t, run as a loop over the top
    bits of m. Neither function caches: a table of every value up to the
    cap would otherwise keep each one.
    """
    _check_ints(m=m)
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m > KAPPA_DOMAIN_CAP:
        raise ValueError(f"kappa domain is capped at {KAPPA_DOMAIN_CAP}")
    head = 0
    while True:
        t = m.bit_length() - 1
        r = m - (1 << t)
        if r < 8 * (t >> 2) + (1 << (t & 3)):  # rho(2^t)
            return head + (1 << t)
        head, m = head + (1 << t), r


@dataclass(frozen=True)
class _SignedPerm:
    """Matrix with exactly one entry +-1 per column: column j holds
    signs[j] at row perm[j]. Closed under product and Kronecker."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.perm)

    @staticmethod
    def eye(n: int) -> "_SignedPerm":
        return _SignedPerm(tuple(range(n)), (1,) * n)

    def __matmul__(self, other: "_SignedPerm") -> "_SignedPerm":
        return _SignedPerm(
            tuple(self.perm[p] for p in other.perm),
            tuple(self.signs[other.perm[j]] * other.signs[j] for j in range(other.dim)),
        )

    def kron(self, other: "_SignedPerm") -> "_SignedPerm":
        d = other.dim
        perm = []
        signs = []
        for j1 in range(self.dim):
            for j2 in range(d):
                perm.append(self.perm[j1] * d + other.perm[j2])
                signs.append(self.signs[j1] * other.signs[j2])
        return _SignedPerm(tuple(perm), tuple(signs))


@lru_cache(maxsize=None)
def _cayley_dickson_table(dim: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Basis multiplication table of the dim-dimensional Cayley-Dickson
    algebra: entry [i][j] is (index, sign) with e_i * e_j = sign * e_index."""
    if dim == 1:
        return (((0, 1),),)
    half = dim // 2
    sub = _cayley_dickson_table(half)

    def conj_sign(j: int) -> int:
        return 1 if j == 0 else -1

    table = [[(0, 0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if i < half and j < half:
                idx, sg = sub[i][j]
                table[i][j] = (idx, sg)
            elif i < half and j >= half:
                # (a, 0)(0, d) = (0, d a)
                idx, sg = sub[j - half][i]
                table[i][j] = (half + idx, sg)
            elif i >= half and j < half:
                # (0, b)(c, 0) = (0, b conj(c))
                idx, sg = sub[i - half][j]
                table[i][j] = (half + idx, sg * conj_sign(j))
            else:
                # (0, b)(0, d) = (-conj(d) b, 0)
                idx, sg = sub[j - half][i - half]
                table[i][j] = (idx, -sg * conj_sign(j - half))
    return tuple(tuple(row) for row in table)


def _left_multiplication(dim: int, i: int) -> _SignedPerm:
    return _SignedPerm(*zip(*_cayley_dickson_table(dim)[i]))


def _double(gens: Sequence[_SignedPerm], dim: int) -> list[_SignedPerm]:
    """One extra anticommuting structure on twice the dimension.

    Existing generators act as diag(E, -E); the new one swaps the halves
    with a sign twist.
    """
    out = []
    for g in gens:
        perm = list(g.perm) + [dim + p for p in g.perm]
        signs = list(g.signs) + [-s for s in g.signs]
        out.append(_SignedPerm(tuple(perm), tuple(signs)))
    swap_perm = [dim + j for j in range(dim)] + list(range(dim))
    swap_signs = [1] * dim + [-1] * dim
    out.append(_SignedPerm(tuple(swap_perm), tuple(swap_signs)))
    return out


@lru_cache(maxsize=None)
def _generator_perms(k: int) -> tuple[_SignedPerm, ...]:
    if k <= 7:
        dim = _BASE_DIMS[k]
        return tuple(_left_multiplication(dim, i) for i in range(1, k + 1))
    if k == 8:
        return tuple(_double(_generator_perms(7), 8))
    eight = _generator_perms(8)
    volume = eight[0]
    for g in eight[1:]:
        volume = volume @ g
    sub = _generator_perms(k - 8)
    sub_dim = sub[0].dim if sub else 1
    eye = _SignedPerm.eye(sub_dim)
    out = [eye.kron(g) for g in eight]
    out.extend(f.kron(volume) for f in sub)
    return tuple(out)


@dataclass(frozen=True, init=False)
class NormedPairing:
    """Bilinear f: R^left x R^right -> R^target with |f(x, y)| = |x| |y|.

    The pairing is stored once, as the polynomial map f, whose coordinate c
    holds its terms x_i y_j in (i, j) order; `==` and `hash` compare it.
    tensor[i][j][c], the coefficient of x_i y_j in coordinate c, is a Fraction
    view of f built on first read. The constructor accepts any nested sequence
    of rationals as the tensor; one that is not left_dim slabs of right_dim
    rows of target_dim entries raises ValueError before anything is built.
    The norm identity |f(x, y)|^2 = |x|^2 |y|^2 is proved exactly once, by the
    Hurwitz equations on the tensor's slabs, before f is stored, and a tensor
    that fails it raises ValueError. So every instance carries its proof, and
    __call__, hopf_map and pairing_to_rounding reuse the proved f.
    """

    left_dim: int
    right_dim: int
    target_dim: int
    f: PolyMap

    def __init__(self, left_dim: int, right_dim: int, target_dim: int, tensor):
        _check_ints(left_dim=left_dim, right_dim=right_dim, target_dim=target_dim)
        tensor = [[[as_rational(c) for c in row] for row in slab] for slab in tensor]
        r, s, n = left_dim, right_dim, target_dim
        if len(tensor) != r or any(len(slab) != s or any(len(row) != n for row in slab) for slab in tensor):
            raise ValueError(f"tensor shape must be {r} x {s} x {n}")
        entries = [(i, j, c, x) for i, slab in enumerate(tensor) for j, row in enumerate(slab)
                   for c, x in enumerate(row) if x]
        _store_pairing(self, r, s, n, entries)

    def entries(self) -> Iterator[tuple[int, int, int, Fraction]]:
        """(i, j, c, x) for each nonzero coefficient x of x_i y_j in coordinate
        c, coordinate by coordinate, in f's stored order."""
        r = self.left_dim
        coords, den = _quadratic_terms(self.f.coords)
        for c, (_, _, quad) in enumerate(coords):
            for i, j, x in quad:
                yield i, j - r, c, Fraction(x, den)

    @cached_property
    def tensor(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        tensor = [[[Fraction(0)] * self.target_dim for _ in range(self.right_dim)] for _ in range(self.left_dim)]
        for i, j, c, x in self.entries():
            tensor[i][j][c] = x
        return tuple([tuple([tuple(row) for row in slab]) for slab in tensor])

    def _norm_squares(self) -> tuple[Poly, Poly]:
        """|x|^2 and |y|^2 as polynomials on R^(left + right)."""
        r, m = self.left_dim, self.left_dim + self.right_dim
        xx, yy = _quadratic_polys(m, [[(i, i, 1) for i in range(r)], [(i, i, 1) for i in range(r, m)]])
        return xx, yy

    def __call__(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        xs = [as_rational(v) for v in x]
        ys = [as_rational(v) for v in y]
        if len(xs) != self.left_dim or len(ys) != self.right_dim:
            raise ValueError("argument dimensions mismatch")
        return self.f(xs + ys)

    @staticmethod
    def checked(left_dim: int, right_dim: int, target_dim: int, tensor) -> "NormedPairing":
        """The constructor, which proves |f(x,y)|^2 = |x|^2 |y|^2 exactly."""
        return NormedPairing(left_dim, right_dim, target_dim, tensor)


def _store_pairing(pairing: NormedPairing, r: int, s: int, n: int, entries) -> NormedPairing:
    """Store the [r, s, n] pairing with nonzero coefficients x of x_i y_j in
    coordinate c, given as entries (i, j, c, x) in (i, j) order, after proving
    its norm identity: only NormedPairing's constructor and normed_pairing come here."""
    if not _hurwitz_equations_hold(r, s, entries):
        raise ValueError("tensor does not satisfy the norm identity")
    # each coordinate gets its terms in (i, j) order; float sums of f follow that order
    coords = [[] for _ in range(n)]
    for i, j, c, x in entries:
        coords[c].append((i, r + j, x))
    f = PolyMap(r + s, _quadratic_polys(r + s, coords))
    for name, value in (("left_dim", r), ("right_dim", s), ("target_dim", n), ("f", f)):
        object.__setattr__(pairing, name, value)
    return pairing


def _hurwitz_equations_hold(r: int, s: int, entries) -> bool:
    """Whether the slabs of the entries (i, j, c, x) satisfy
    M_i M_k^T + M_k M_i^T = 2 delta_ik I_s for all i <= k, where slab M_i is
    the s x n matrix with x at row j, column c.

    Entry (j, l) of the difference of the two sides is, up to a nonzero
    factor, the coefficient of x_i x_k y_j y_l in |f(x, y)|^2 - |x|^2 |y|^2,
    so this is the norm identity read coefficient by coefficient. Slab k is
    cleared to integers over its own denominator D_k when it is reached,
    which scales the equations of the pair (i, k) by D_i D_k; one denominator
    for the whole tensor could be the lcm of all its entries' denominators.
    Each product M_i M_k^T is summed column by column over the nonzero
    entries, and slab pairs go in order of k up to the first that fails, so
    a failure among the first slabs is found among the first pairs.
    """
    slabs = [[] for _ in range(r)]
    for i, j, c, x in entries:
        slabs[i].append((j, c, x))
    columns = []  # slab i: column c -> [(j, cleared x)]
    for k, slab in enumerate(slabs):
        (ints,), den = _linalg.cleared([[x for _, _, x in slab]])
        right = {}
        for (j, c, _), v in zip(slab, ints):
            right.setdefault(c, []).append((j, v))
        columns.append(right)
        for i in range(k + 1):
            prod = {}  # entry (j, l) of M_i M_k^T, times D_i D_k
            for c, col in columns[i].items():
                other = right.get(c)
                if other:
                    for j, a in col:
                        for l, b in other:
                            prod[j, l] = prod.get((j, l), 0) + a * b
            if i == k:
                # M_k M_k^T is symmetric: the equation says it is I_s
                unit = den * den
                if any(prod.pop((j, j), 0) != unit for j in range(s)) or any(prod.values()):
                    return False
            elif any(v + prod.get((l, j), 0) for (j, l), v in prod.items()):
                return False
    return True


def normed_pairing(r: int, n: int) -> NormedPairing:
    """The block-diagonal Clifford pairing of size [r, n, n].

    Feasible exactly when r <= rho(n); the first slot acts as
    x_0 * identity plus x_i times the i-th generator on each block. Its
    slabs, and so the generators, are proved before the pairing is stored.
    """
    _check_ints(r=r, n=n)
    if r < 1 or n < 1:
        raise ValueError("sizes must be positive")
    if r > rho(n):
        raise SizeInfeasible(r, n)
    perms = _generator_perms(r - 1)
    d = perms[0].dim if perms else 1
    # the Hurwitz equations cannot see a perm entry outside the block, which
    # would be stored in another coordinate, so each generator is checked to
    # be a permutation first
    for i, g in enumerate(perms):
        if sorted(g.perm) != list(range(d)):
            raise CertificateError(f"generator {i} is not a permutation")
    if n % d:
        raise CertificateError(f"rho admitted r={r} but block size {d} does not divide n={n}")
    entries = [(i, off + col, off + p, sign)
               for i, gen in enumerate((_SignedPerm.eye(d), *perms))
               for off in range(0, n, d)
               for col, (p, sign) in enumerate(zip(gen.perm, gen.signs))]
    try:
        return _store_pairing(object.__new__(NormedPairing), r, n, n, entries)
    except ValueError as exc:
        raise CertificateError(f"pairing [{r}, {n}, {n}]: {exc}") from None


def stiefel_hopf_feasible(r: int, s: int, n: int) -> tuple[bool, int, Iterator[int]]:
    """Necessary parity condition for a nonsingular [r, s, n]-pairing.

    Every binomial C(n, k) with n - r < k < s must be even. By Lucas, C(n, k)
    is odd iff k AND n == k, so the odd ones are the submasks of n in the
    range. Returns whether there are none, how many there are, and an iterator
    over them in increasing order; the count is taken bit by bit, so a caller
    builds only as many of them as it takes.
    """
    _check_ints(r=r, s=s, n=n)
    if r < 1 or s < 1 or n < 1:
        raise ValueError("sizes must be positive")
    lo = max(n - r + 1, 0)
    hi = min(s, n + 1)
    count = max(_submasks_below(n, hi) - _submasks_below(n, lo), 0)
    return not count, count, _submasks_between(n, lo, hi)


def _submasks_below(n: int, x: int) -> int:
    """The number of submasks k of n (k AND n == k) with k < x, for x >= 0."""
    count = 0
    for b in reversed(range(x.bit_length())):
        if x >> b & 1:
            # k agrees with x above bit b and has 0 there: any submask below b
            count += 1 << (n & ((1 << b) - 1)).bit_count()
            if not n >> b & 1:
                break
    return count


def _submasks_between(n: int, lo: int, hi: int) -> Iterator[int]:
    """The submasks of n in [lo, hi), in increasing order, for 0 <= lo <= n."""
    # the least submask above lo - 1: set every bit below the highest bit of
    # lo - 1 outside n, then carry into the lowest free bit of n above them
    k = lo - 1
    k |= (1 << (k & ~n).bit_length()) - 1
    k = ((k | ~n) + 1) & n
    while k < hi:
        yield k
        if k == n:
            return
        k = ((k | ~n) + 1) & n


def hopf_map(pairing: NormedPairing) -> QuadSphereMap:
    """The quadratic sphere-to-sphere map (2 f(x, y), |x|^2 - |y|^2).

    The pairing's proved |f|^2 = |x|^2 |y|^2 is the factorization
    hopf_construction needs, so <f, f> = (|x|^2 + |y|^2)^2 is not expanded.
    """
    return hopf_construction(pairing.f, *pairing._norm_squares())


def pairing_to_rounding(pairing: NormedPairing) -> FracQuadMap:
    """View a normed pairing as the fractional map f(x, y) / |x|^2.

    Its lines-to-circles identity |f|^2 = |x|^2 * |y|^2 is the pairing's own,
    proved at construction. The denominator vanishes at the origin, so the
    result is a global line-rounder rather than a germ; FracQuadMap.is_germ
    reports False.
    """
    xx, _ = pairing._norm_squares()
    return FracQuadMap(numer=pairing.f, denom=xx)
