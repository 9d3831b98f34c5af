"""Test oracle: the general column Hermite form of the subgroup of Z^2 spanned
by any number of shift vectors, written independently of the two-generator
determinant certificate in quandleworks.collapse.

hnf is ((a, b), (0, c)): basis columns (a, 0) and (b, c) with a, c >= 0 and
0 <= b < a when both are positive.  index is a*c for rank 2 and None
(infinite) otherwise.  basis_combinations expresses each basis column as an
integer combination of the generators, one inclusion; contains() decides the
other, and hnf_close checks both before returning.  The library's
CollapseLattice keeps only the generators and the combinations: it accepts
unimodular pairs alone, whose Hermite form is the identity.
"""

from dataclasses import dataclass

from quandleworks import CollapseError, RingElem


@dataclass(frozen=True)
class HermiteLattice:
    """The general result: generators, column Hermite form, rank, index
    (None when infinite) and the combinations giving each basis column."""

    generators: tuple[RingElem, ...]
    hnf: tuple[tuple[int, int], tuple[int, int]]
    rank: int
    index: int | None
    basis_combinations: tuple[tuple[int, ...], tuple[int, ...]]

    def basis_columns(self) -> tuple[tuple[int, int], tuple[int, int]]:
        (a, b), (_, c) = self.hnf
        return (a, 0), (b, c)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = a*x + b*y and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def contains(lattice: HermiteLattice, value) -> bool:
    """Whether a RingElem or an integer pair lies in the lattice."""
    if isinstance(value, RingElem):
        p, q = value.n1, value.n2
    else:
        p, q = int(value[0]), int(value[1])
    (a, b), (_, c) = lattice.hnf
    if c:
        if q % c:
            return False
        p -= (q // c) * b
    elif q:
        return False
    if a:
        return p % a == 0
    return p == 0


def combination_sums(lattice) -> tuple[tuple[int, int], ...]:
    """The integer pairs that the basis combinations of a HermiteLattice or
    a library CollapseLattice sum to over its generators."""
    return tuple((sum(k * g.n1 for k, g in zip(comb, lattice.generators)),
                  sum(k * g.n2 for k, g in zip(comb, lattice.generators)))
                 for comb in lattice.basis_combinations)


def _verify_lattice(lattice: HermiteLattice) -> None:
    # mutual membership: generators inside the basis span, and each basis
    # column an explicit integer combination of the generators
    for g in lattice.generators:
        if not contains(lattice, g):
            raise CollapseError("lattice", f"generator {g} escapes its own lattice")
    for col, sums in zip(lattice.basis_columns(), combination_sums(lattice)):
        if sums != col:
            raise CollapseError("lattice",
                                f"combination certificate broken for column {col}")


def hnf_close(shifts) -> HermiteLattice:
    """Column Hermite form of the subgroup of Z^2 generated by the shifts."""
    gens = tuple(shifts)
    m = len(gens)

    def combo(alpha, u, beta, v):
        return [alpha * u[0] + beta * v[0],
                alpha * u[1] + beta * v[1],
                [alpha * cu + beta * cv for cu, cv in zip(u[2], v[2])]]

    carrier = None  # the single basis vector allowed a nonzero second coordinate
    firsts = []     # vectors already reduced to the first axis
    for i, g in enumerate(gens):
        if not (g.n1 or g.n2):
            continue
        unit = [0] * m
        unit[i] = 1
        vec = [g.n1, g.n2, unit]
        if vec[1] == 0:
            firsts.append(vec)
        elif carrier is None:
            carrier = vec
        else:
            g2, alpha, beta = _xgcd(carrier[1], vec[1])
            merged = combo(alpha, carrier, beta, vec)
            for old in (carrier, vec):
                reduced = combo(1, old, -(old[1] // g2), merged)
                if reduced[0]:
                    firsts.append(reduced)
            carrier = merged

    a_val, a_comb = 0, [0] * m
    for vec in firsts:
        g2, alpha, beta = _xgcd(a_val, vec[0])
        a_comb = [alpha * ca + beta * cv for ca, cv in zip(a_comb, vec[2])]
        a_val = g2

    if carrier is not None and carrier[1] < 0:
        carrier = combo(-1, carrier, 0, carrier)
    b_val, c_val = (carrier[0], carrier[1]) if carrier else (0, 0)
    b_comb = carrier[2] if carrier else [0] * m
    if a_val and c_val:
        k = b_val // a_val  # floor keeps 0 <= b < a
        b_val -= k * a_val
        b_comb = [cb - k * ca for cb, ca in zip(b_comb, a_comb)]

    rank = (1 if a_val else 0) + (1 if c_val else 0)
    index = a_val * c_val if rank == 2 else None
    lattice = HermiteLattice(gens, ((a_val, b_val), (0, c_val)), rank, index,
                             (tuple(a_comb), tuple(b_comb)))
    _verify_lattice(lattice)
    return lattice
