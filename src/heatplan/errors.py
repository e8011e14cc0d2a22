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
    """An argument breaks its rule: a value outside its documented range or
    of the wrong shape, a point outside the world, an instruction naming a
    label the map lacks, a heat state without mass, coincident robots.

    ``field``, when given, names it within the object being built, e.g.
    ``"robots[1].start"``, and starts the message."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(f"{field} {message}" if field else message)


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
