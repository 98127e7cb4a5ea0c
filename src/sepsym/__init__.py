"""Separating sets of elementary symmetric functions over finite fields.

Exact orbit counts and information bounds, the crossover threshold chi
with its root bracket, the ternary defect classification, and
brute-force separation checks over small fields.

A public name imports its module the first time it is read (PEP 562), so
``import sepsym`` loads no module it does not use.
"""

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("ChiRecord", "chi_exact", "chi_record", "chi_table", "lnln_floor",
                     "x0_bracket"), "chi"),
    **dict.fromkeys(("ParameterError", "ScaleError"), "errors"),
    **dict.fromkeys(("esym_all", "fingerprint", "index_set_nq"), "esym"),
    **dict.fromkeys(("delta3", "gamma", "orbit_count", "size_sq"), "exactcount"),
    **dict.fromkeys(("F3Class", "classify3", "predicted_delta3"), "f3"),
    **dict.fromkeys(("FieldSpec", "field_for_order", "make_field"), "gf"),
    **dict.fromkeys(("enumerate_orbits",), "orbits"),
    **dict.fromkeys(("SeparationVerdict", "check_minimal", "check_separating",
                     "min_separating_size"), "separating"),
}

__all__ = list(_HOME)


def __getattr__(name):
    """A public name from its module, or a submodule (sepsym.gf), imported on first read."""
    home = _HOME.get(name, name)
    if home not in _HOME.values():
        raise AttributeError(f"module 'sepsym' has no attribute {name!r}")
    __import__(f"sepsym.{home}")  # as an import statement does, so -X importtime lists it
    value = globals()[home] if home == name else getattr(globals()[home], name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
