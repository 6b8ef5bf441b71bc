"""Exception types shared across the package, and the field-type check
that the configuration dataclasses share."""

import numbers


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class NumericError(ArithmeticError):
    """A forward computation produced NaN or Inf, or diverged."""


class TapeError(RuntimeError):
    """Misuse of the autodiff tape (double backward, foreign loss, ...)."""


class ConfigError(ValueError):
    """Invalid model or training configuration."""


class DataError(ValueError):
    """Malformed dataset, window request, or file contents."""


def check_types(cfg, ints=(), bools=(), floats=()):
    """`ConfigError` naming the field unless the ``ints`` fields hold
    integers (for ``enc_hidden`` a sequence of them), made Python ints (also
    on a frozen dataclass); the ``bools`` fields bools; and the ``floats``
    fields real numbers. A bool is neither an integer nor a float setting."""
    for name in (*ints, *bools, *floats):
        v = getattr(cfg, name)
        vs = tuple(v) if name == "enc_hidden" else (v,)
        kind = bool if name in bools else numbers.Integral if name in ints else numbers.Real
        if not all(isinstance(x, kind) and (kind is bool or not isinstance(x, bool)) for x in vs):
            raise ConfigError(f"invalid {type(cfg).__name__}: {name} has the wrong type ({v!r})")
        if name in ints:
            object.__setattr__(cfg, name, tuple(map(int, vs)) if name == "enc_hidden" else int(v))
