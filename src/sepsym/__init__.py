"""Separating sets of elementary symmetric functions over finite fields.

Exact orbit counts and information bounds, the crossover threshold chi
with its root bracket, the ternary defect classification, and
brute-force separation checks over small fields.
"""

from sepsym.chi import ChiRecord, chi_exact, chi_record, chi_table, lnln_floor, x0_bracket
from sepsym.errors import ParameterError, ScaleError
from sepsym.esym import esym_all, fingerprint, index_set_nq
from sepsym.exactcount import delta3, gamma, orbit_count, size_sq
from sepsym.f3 import F3Class, classify3, predicted_delta3
from sepsym.gf import FieldSpec, field_for_order, make_field
from sepsym.orbits import enumerate_orbits
from sepsym.separating import (
    SeparationVerdict,
    check_minimal,
    check_separating,
    min_separating_size,
)

__version__ = "0.1.0"

__all__ = [
    "ChiRecord",
    "F3Class",
    "FieldSpec",
    "ParameterError",
    "ScaleError",
    "SeparationVerdict",
    "check_minimal",
    "check_separating",
    "chi_exact",
    "chi_record",
    "chi_table",
    "classify3",
    "delta3",
    "enumerate_orbits",
    "esym_all",
    "field_for_order",
    "fingerprint",
    "gamma",
    "index_set_nq",
    "lnln_floor",
    "make_field",
    "min_separating_size",
    "orbit_count",
    "predicted_delta3",
    "size_sq",
    "x0_bracket",
]
