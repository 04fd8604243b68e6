"""Exception types shared across the package."""


class ElastoconsError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetric(ElastoconsError):
    """A tensor required to be symmetric exceeds the symmetry tolerance."""


class NotUnit(ElastoconsError):
    """A direction vector required to have unit length does not."""


class Singular(ElastoconsError):
    """A tensor required to be invertible is numerically singular."""


class NewtonDivergence(ElastoconsError):
    """Damped Newton iteration failed to reduce the residual below tolerance."""


class NonFinite(ElastoconsError):
    """A computed quantity contains NaN or Inf."""


class DomainError(ElastoconsError):
    """A constitutive map was evaluated outside its domain (e.g. det F <= 0)."""


class FitDegenerate(ElastoconsError):
    """Probe set is rank-deficient; a least-squares fit is not identifiable."""


class PreconditionFailure(ElastoconsError):
    """An operation's precondition check failed (e.g. a required invariance)."""


class NonHyperbolicState(ElastoconsError):
    """A sampled acoustic tensor has a negative eigenvalue; refusing to step."""


class Blowup(ElastoconsError):
    """Field norms exceeded the blowup threshold or became non-finite."""


class ConfigError(ElastoconsError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Configuration text could not be parsed."""


class ValidationError(ConfigError):
    """Configuration parsed but contains invalid keys or values."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))
