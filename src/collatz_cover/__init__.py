"""Residue-class covering system for Collatz dynamics.

Exact arithmetic for odd-to-odd trajectories and total stopping times, the
mod-18 residue classes with their CRT-derived progression table, the two
generalized map schemata, and machine verification of the system's claims.

Each public name loads its module on first access (PEP 562), so that
importing one submodule, as the CLI does, compiles only what it imports.
"""

__version__ = "0.1.0"

_SOURCES = {
    "arith": ("BudgetExceededError", "DEFAULT_BUDGET", "sigma_infinity",
              "two_adic_valuation"),
    "covering": ("Profile", "ProfileTable", "RESIDUE_ORDER", "classify",
                 "cyclic_recurrence_check", "derive_profile",
                 "digit_root_class", "digital_root", "residue_class"),
    "mapgen": ("SchemaTable", "SigmaSchemaTable", "build_schema",
               "build_sigma_schema", "render_str"),
    "reports": ("Counterexample", "Deferred", "VerifyReport", "build_report",
                "report_to_json", "report_to_text"),
    "verify": ("cover_audit", "verify_conjecture1", "verify_cyclic",
               "verify_range", "verify_sigma_relation",
               "verify_theorem1_symbolic"),
}

_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
