"""Exception types shared across the package."""


class CouplingError(ValueError):
    """Grid spacing is too coarse for the requested oscillation scale h."""


class NonContractionError(RuntimeError):
    """Neumann iteration stopped contracting; h is too large for this operator."""

    def __init__(self, h, message=None):
        self.h = h
        super().__init__(message or f"transport map is not a contraction at h={h}")


class MaxTermsExceededError(RuntimeError):
    """Neumann series failed to reach the requested tolerance within max_terms."""

    def __init__(self, h, max_terms, message=None):
        self.h = h
        self.max_terms = max_terms
        super().__init__(
            message or f"Neumann series at h={h} did not converge in {max_terms} terms"
        )


class CarrierOverflowError(OverflowError):
    """exp(phase/h) exceeds double range on the grid square; h is too small for it."""

    def __init__(self, h, exponent):
        self.h = h
        super().__init__(
            f"carrier exp(phase/h) overflows at h={h}: its exponent reaches {exponent:.1f}"
        )


class PrecisionError(RuntimeError):
    """np.longdouble is no wider than a double, so the extended-precision residual cannot run."""

    def __init__(self, eps):
        self.eps = eps
        super().__init__(
            f"residual_norm needs an extended-precision long double, but np.longdouble "
            f"has eps {eps:.3g}, that of a double"
        )


class DegenerateProbeError(RuntimeError):
    """Probe point unusable: on the support frame or conditioning bound exceeded."""

    def __init__(self, z0, reason):
        self.z0 = z0
        self.reason = reason
        super().__init__(f"degenerate probe {z0}: {reason}")


class ConfigError(ValueError):
    """Experiment configuration is malformed; message names the offending field."""
