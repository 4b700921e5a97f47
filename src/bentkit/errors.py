"""Exception types shared across the package.

The CLI maps these onto exit codes: malformed input and field/arity
problems exit 2, a missing bent structure exits 3, and a violated
construction hypothesis exits 4.
"""


class NonIrreducible(ValueError):
    """Modulus is not an irreducible polynomial of the requested degree."""


class UnsupportedDegree(ValueError):
    """A degree or arity outside its cap, a row of gf2n.CAPS."""


class NotADivisor(ValueError):
    """Relative trace or subfield test asked for r that does not divide n."""


class SingularMap(ValueError):
    """Linearized polynomial is not invertible."""


class ArityMismatch(ValueError):
    """Function arities do not line up (composition, pointwise sum, ...)."""


class NotBent(ValueError):
    """A dual was requested for a function that is not bent."""


class NotBentAdmissible(ValueError):
    """Family parameters fail the bentness criterion, so no dual exists."""


class ZeroDenominator(ValueError):
    """A closed-form coefficient has a vanishing denominator."""


class SideConditionFailed(ValueError):
    """A construction hypothesis does not hold.

    `condition` carries a stable kebab-case name for the violated clause;
    `witness` optionally points at the failing data.
    """

    def __init__(self, condition: str, detail: str = "", witness=None):
        self.condition = condition
        self.witness = witness
        msg = condition if not detail else f"{condition}: {detail}"
        super().__init__(msg)


class CertificateInvalid(ValueError):
    """A generic build was attempted from a certificate that does not hold."""
