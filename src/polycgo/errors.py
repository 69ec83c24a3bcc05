"""Exception types shared across the package."""


def _with_ratios(message, ratios):
    """message, followed by the Neumann term-norm ratios ||t_k|| / ||t_(k-1)|| if any."""
    if not ratios:
        return message
    return f"{message}; term-norm ratios ||t_k||/||t_(k-1)||: " + ", ".join(
        f"{r:.4g}" for r in ratios
    )


class CouplingError(ValueError):
    """Grid spacing is too coarse for the requested oscillation scale h."""


class NonContractionError(RuntimeError):
    """Neumann iteration stopped contracting; h is too large for this operator."""

    def __init__(self, h, message=None, ratios=()):
        self.h = h
        self.ratios = tuple(ratios)
        super().__init__(
            _with_ratios(message or f"transport map is not a contraction at h={h}", ratios)
        )


class MaxTermsExceededError(RuntimeError):
    """Neumann series failed to reach the requested tolerance within max_terms."""

    def __init__(self, h, max_terms, message=None, ratios=()):
        self.h = h
        self.max_terms = max_terms
        self.ratios = tuple(ratios)
        super().__init__(
            _with_ratios(
                message or f"Neumann series at h={h} did not converge in {max_terms} terms", ratios
            )
        )


class CarrierOverflowError(OverflowError):
    """exp(phase/h) exceeds double range on the grid square; h is too small for it."""

    def __init__(self, h, exponent):
        self.h = h
        super().__init__(
            f"carrier exp(phase/h) overflows at h={h}: its exponent reaches {exponent:.1f}"
        )


class PairingOverflowError(OverflowError):
    """A pairing value of the recovery left the double range; the difference is too large."""

    def __init__(self, j0, k0, z0, h):
        self.j0, self.k0, self.z0, self.h = j0, k0, z0, h
        super().__init__(f"pairing of level ({j0},{k0}) at z0={z0:g}, h={h} is not finite")


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
