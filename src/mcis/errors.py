"""Exception types shared across the package."""


class McisError(Exception):
    """Base class for all package errors."""


class ConfigError(McisError):
    """A configuration value or combination is invalid."""


class BandwidthSplitError(ConfigError):
    """W != W_A + 2*W_I."""


class ChannelSplitError(ConfigError):
    """C != C_A + C_I, or a channel group is empty."""


class OddInterfacesError(ConfigError):
    """Base-station interface count m must be even (uplink/downlink halves)."""


class NonSquareBsError(ConfigError):
    """Base-station count b must be a perfect square."""


class BadBeamwidthError(ConfigError):
    """Beamwidth outside (0, 2*pi]."""


class DegenerateScaleError(McisError):
    """H^2 * ln(n) <= e: the iterated logarithm in the cell-size rule is undefined."""


class ClusterMismatchError(McisError):
    """BS round-robin frame length k8+1 is not a perfect square."""


class ScheduleInvalidError(McisError):
    """The schedule auditor found interference or duplex violations."""


class HorizonTooShortError(McisError):
    """Simulation horizon shorter than one full TDMA super-frame."""


class DegenerateFitError(McisError):
    """Scaling fit needs at least 4 distinct x values with nonzero variance."""
