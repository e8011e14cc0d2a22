"""Exception types shared across the package."""


class HeatplanError(Exception):
    """Base class for all errors raised by heatplan."""

    def __reduce__(self):
        # unpickle without __init__, whose arguments ``args`` does not hold,
        # so a worker's error reaches the caller as itself
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls, args, state):
    err = cls.__new__(cls, *args)
    err.__dict__.update(state)
    return err


class ParameterError(HeatplanError):
    """A parameter is outside its documented range or has the wrong shape.

    ``field``, when given, names it within the object being built, e.g.
    ``"robots[1].start"``, and starts the message."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(f"{field} {message}" if field else message)


class DomainError(HeatplanError):
    """A continuous point lies outside the map's world rectangle."""


class GenerationError(HeatplanError):
    """A map or scenario generator could not satisfy its constraints."""


class MapFormatError(HeatplanError):
    """A map or scenario document failed to parse.

    ``field`` names the offending location, e.g. ``"occupancy[3]"`` or
    ``"robots[1].start"``.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class UnknownLabelError(HeatplanError):
    """An instruction referenced a label no region carries."""

    def __init__(self, token, available):
        self.token = token
        self.available = tuple(sorted(set(available)))
        super().__init__(
            f"no region labeled {token!r}; available labels: {', '.join(self.available) or '(none)'}"
        )


class DegenerateFieldError(HeatplanError):
    """A heat state carries no mass, so no score field exists."""


class SingularConfigurationError(HeatplanError):
    """Two robots occupy the same point; pairwise terms are undefined."""


class RenderError(HeatplanError):
    """A requested render layer is missing its input data, or that data is
    not on the map's grid."""

    def __init__(self, layer, message=""):
        self.layer = layer
        super().__init__(f"layer {layer!r}: {message}" if message else f"missing data for layer {layer!r}")
