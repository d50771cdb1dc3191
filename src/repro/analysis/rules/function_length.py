"""Rule ``function-length``: no function longer than 150 lines.

A function that long has stopped being one step: the serving engine's
event loop once grew to 844 lines with seven nested closures, and every
phase of an iteration (admission, build, fast-forward, growth, pricing,
retire) had to be read together to change any one of them.  Lines count
from the ``def`` line to the function's last line, comments and docstring
included.  Each nested function is measured on its own, as is its parent.

A function that is long for a reason takes an inline
``# repro-lint: ignore[function-length]`` above its ``def`` with a
justification.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.registry import Module, Rule, register

#: Longest allowed function, ``def`` line to last line inclusive.
MAX_FUNCTION_LINES = 150


@register
class FunctionLengthRule(Rule):
    id = "function-length"
    summary = f"functions longer than {MAX_FUNCTION_LINES} lines"
    rationale = (
        "A function that no longer fits one screenful of intent hides its "
        "phases from review: split it into named steps. Counted from the "
        "def line to the last line.")

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            length = node.end_lineno - node.lineno + 1
            if length > MAX_FUNCTION_LINES:
                yield self.finding(
                    module, node,
                    f"function {node.name!r} is {length} lines long "
                    f"(limit {MAX_FUNCTION_LINES}); split it into phases")
