"""Exception and warning types shared across the package."""


class InvalidInput(ValueError):
    """Malformed argument: wrong shape, non-finite entries, bad range or schema."""


class PreconditionFailed(ValueError):
    """Operation requires a physical covariance matrix and the input is not one."""


class NumericalDomainError(ArithmeticError):
    """A quantity left its mathematically guaranteed domain (e.g. det M <= 0)."""


class QuadratureWarning(UserWarning):
    """Quadrature result is not trustworthy at the requested grid/radius."""


class GridSizeError(InvalidInput):
    """A sweep or quadrature grid exceeds the point budget."""
