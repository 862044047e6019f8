"""A tour of the lattice machinery.

Walks from the D6 root lattice to the signature-(2,4) reference
lattice: discriminant forms, orthogonal complements, the index-2
identities, overlattice enumeration, and the glue construction with
its index chain.  Everything printed is exact.
"""

from fractions import Fraction

from latconf.finite_forms import finite_form_isometric
from latconf.lattices import (
    Dn,
    E8,
    E10,
    Sublattice,
    Zpq,
    enumerate_integral_overlattices,
    gauss_reduce_binary,
    hyperbolic,
    index_exponent,
    orthogonal_complement,
    overlattice_from_isotropic,
    transcendental_slice,
)
from latconf.matrices import Matrix, frac_to_str


def show(title):
    print()
    print(f"== {title} ==")


def gram_str(m):
    return "\n".join(
        "  [" + ", ".join(frac_to_str(x) for x in row) + "]" for row in m.data
    )


def main():
    show("Discriminant form of D6")
    form = Dn(6).discriminant_form()
    print(f"group: Z/{form.orders[0]} x Z/{form.orders[1]}")
    print("bilinear form:")
    print(gram_str(form.bilinear))

    show("Complement of D6(-1) inside the odd unimodular Z^{2,10}")
    ambient = Zpq(2, 2).direct_sum(E8().rescale(-1))
    rows = [[1 if j == 4 + i else 0 for j in range(12)]
            for i in (1, 2, 3, 4, 5, 6)]
    comp = orthogonal_complement(Sublattice(ambient, Matrix(rows)))
    t = comp.as_lattice()
    print(f"signature: {t.signature()}, parity: {t.parity()}, "
          f"|disc|: {abs(t.det())}")
    l = transcendental_slice()
    same = finite_form_isometric(
        t.discriminant_form(), l.discriminant_form(), "bilinear"
    )
    print(f"discriminant form matches the reference lattice: "
          f"{same is not None}")

    show("Complement of D6 inside E8")
    rows = [[1 if j == i else 0 for j in range(8)] for i in (1, 2, 3, 4, 5, 6)]
    comp = orthogonal_complement(Sublattice(E8(), Matrix(rows)))
    print("Gauss-reduced Gram matrix:")
    print(gram_str(gauss_reduce_binary(comp.gram())))

    show("Integral overlattices of H(2) + E10(-1)")
    a = hyperbolic(2).direct_sum(E10().rescale(-1))
    for info in enumerate_integral_overlattices(a):
        tag = "unimodular" if info.unimodular else f"|disc| {abs(info.lattice.det())}"
        print(f"  index {info.index}: {info.parity}, {tag}")

    show("Gluing the doubled reference lattice")
    l2 = transcendental_slice().rescale(2)
    lam = l2.discriminant_form()
    a_el = l2.disc_element([Fraction(1, 4), 0, 0, 0, 0, 0])
    b_el = l2.disc_element([0, Fraction(1, 4), 0, 0, 0, 0])
    g3 = lam.zero()
    for i in range(4):
        g3 = lam.add(
            g3,
            l2.disc_element([0, 0] + [Fraction(1, 2) if j == i else 0
                                      for j in range(4)]),
        )
    gens = [lam.smul(2, a_el), lam.smul(2, b_el), g3]
    print(f"discriminant group orders: {sorted(lam.orders)}")
    integral = sum(1 for x in lam.elements() if lam.b(x, x) == 0)
    print(f"elements of integral norm: {integral}")
    glue = overlattice_from_isotropic(l2, gens, check_quadratic=False)
    print(f"glue index: {glue.index}, glued |disc|: "
          f"{abs(glue.lattice.det())}, parity: {glue.lattice.parity()}")

    show("The two-adic index chain")
    exp = index_exponent(0, 2, 7, kappa_trivial=False)
    print(f"index exponent: {exp}")
    print(f"chain: 4 * 2^{exp} = {4 * 2 ** exp} = 16 * {glue.index}")


if __name__ == "__main__":
    main()
