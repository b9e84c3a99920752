"""Residue-class covering system for Collatz dynamics.

Exact arithmetic for odd-to-odd trajectories and total stopping times, the
mod-18 residue classes with their CRT-derived progression table, the two
generalized map schemata, and machine verification of the system's claims.
"""

from .arith import (BudgetExceededError, CollatzTrace, DEFAULT_BUDGET, OddStep,
                    four_d_plus_one, odd_step, sigma_infinity, trace,
                    two_adic_valuation)
from .covering import (Profile, ProfileTable, RESIDUE_ORDER, classify,
                       cover_audit, cyclic_recurrence_check, derive_profile,
                       digit_root_class, digital_root, residue_class)
from .mapgen import (SchemaTable, SigmaSchemaTable, build_schema,
                     build_sigma_schema, render, render_str)
from .reports import (Counterexample, Deferred, VerifyReport, build_report,
                      report_to_json, report_to_text)
from .verify import (verify_conjecture1, verify_cyclic, verify_range,
                     verify_sigma_relation, verify_theorem1_symbolic)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "CollatzTrace", "Counterexample",
    "DEFAULT_BUDGET", "Deferred", "OddStep", "Profile", "ProfileTable",
    "RESIDUE_ORDER", "SchemaTable", "SigmaSchemaTable",
    "VerifyReport", "build_report", "build_schema", "build_sigma_schema", "classify", "cover_audit", "cyclic_recurrence_check",
    "derive_profile", "digit_root_class", "digital_root", "four_d_plus_one",
    "odd_step", "render", "render_str", "report_to_json", "report_to_text",
    "residue_class", "sigma_infinity", "trace", "two_adic_valuation",
    "verify_conjecture1", "verify_cyclic", "verify_range",
    "verify_sigma_relation", "verify_theorem1_symbolic",
]
