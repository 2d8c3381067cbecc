"""Exception types shared across the package."""


class NotInvertible(ValueError):
    """No modular inverse exists: gcd(a, m) != 1."""


class DenominatorNotCoprime(ValueError):
    """A denominator shares a factor with the modulus, so the congruence is undefined."""


class DivisionByZeroPoly(ZeroDivisionError):
    """Polynomial division by the zero polynomial."""


class BothZero(ValueError):
    """gcd of two zero polynomials is undefined."""


class NotOddPrime(ValueError):
    """The instance must be an odd prime."""


class EvenN(ValueError):
    """The congruence is only asserted for odd n."""
