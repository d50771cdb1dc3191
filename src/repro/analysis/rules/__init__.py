"""Built-in repro-lint rules.

Importing this package registers every rule with
:mod:`repro.analysis.registry`; adding a rule is adding a module here
(and importing it below) with one ``@register``-decorated class.
"""

from repro.analysis.rules import (  # noqa: F401  (import registers rules)
    determinism,
    float_fold,
    function_length,
    set_iteration,
    slots_discipline,
    telemetry_guard,
    unit_suffix,
)

__all__ = [
    "determinism",
    "float_fold",
    "function_length",
    "set_iteration",
    "slots_discipline",
    "telemetry_guard",
    "unit_suffix",
]
