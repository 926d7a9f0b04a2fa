"""Exception hierarchy shared by all simulator modules.

Each class maps to one CLI exit code, so failures stay distinguishable
end to end: validation -> 2, capacity -> 3, verification -> 4.  Input parsers
type JSON fields as ``docs/schemas`` does, through ``json_int``/``json_number``/
``json_array``/``json_index``, and hold objects to the schemas' required and
allowed keys through ``json_object``.  ``check_memory`` is the one rule for
sizes that cost memory: bytes needed against physical memory, checked
before allocating.
"""
import os


class MbqcError(Exception):
    """Base class for all package errors."""


class ValidationError(MbqcError):
    """Malformed input: bad graph, out-of-range index, broken invariant."""


class CapacityError(MbqcError):
    """Requested size exceeds a configured cap (qubits, branches, spins)."""


class ContradictionError(MbqcError):
    """A forced measurement outcome has (near-)zero probability."""


class VerificationError(MbqcError):
    """A self-check that should hold by construction failed."""


def physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_memory(need: int, what: str) -> None:
    """Refuse, before anything is allocated, ``what`` when its ``need`` bytes
    exceed physical memory."""
    have = physical_memory()
    if need > have:
        raise CapacityError(f"{what} needs {need} bytes, "
                            f"more than the {have} bytes of physical memory")


def json_int(value, what: str) -> int:
    """A JSON Schema ``integer``: an int or an integral float (``2.0``),
    never a bool or a string."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def json_number(value, what: str) -> float:
    """A JSON Schema ``number``: an int or a float, never a bool or a string."""
    if type(value) in (int, float):
        return float(value)
    raise ValidationError(f"{what} must be a number, got {value!r}")


def json_array(value, what: str) -> list:
    """A JSON Schema ``array``: a list, never a string or an object."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be an array, got {value!r}")
    return value


def json_index(key: str, what: str) -> int:
    """An object key matching the schemas' ``^[0-9]+$``, as an int."""
    if not (key.isascii() and key.isdigit()):
        raise ValidationError(f"{what} must be a string of digits, got {key!r}")
    return int(key)


def json_object(value, required, what: str, optional=()) -> dict:
    """A JSON object with every key of ``required`` and no key outside
    ``required`` and ``optional`` (``additionalProperties: false``)."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object, got {value!r}")
    unknown = sorted(str(k) for k in value if k not in required and k not in optional)
    if unknown:
        raise ValidationError(f"{what} has unknown keys {unknown}")
    missing = [k for k in required if k not in value]
    if missing:
        raise ValidationError(f"{what} lacks required keys {missing}")
    return value
