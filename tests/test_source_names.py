"""Every module-level function or class of `src/pacomp` is named somewhere in
`src/pacomp` outside its own definition (a call, an attribute, an import), or
is a library entry point on the allowlist below.  A definition that only
tests, the benchmark or itself name is a leftover of a deleted path or a
reference that belongs in `tests/helpers`.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pacomp"

# library entry points that nothing in src/pacomp calls on purpose, each with
# the reason a caller outside the package wants it
ENTRY_POINTS = {
    "max_reach": "optimal reachability of a PA with an attaining deterministic strategy",
    "exp_total_reward": "extremal expected total reward of a PA, without a threshold",
    "mo_achievable": "multi-objective achievability on one PA, with its witness",
    "measure": "the exact finite-horizon path measure that projections preserve",
    "generators": "the finite generator list of one polytopic uncertainty set, as dicts",
    "dist_leq": "one lifting check on two Fraction distributions",
    "is_strong_sim": "checks a given relation, where strong_sim computes the greatest one",
    "apply_reward_sum": "the reward-sum rule, which no script row applies yet (ROADMAP item 17)",
}


def _named(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_definition_is_named_in_src_pacomp_or_an_entry_point():
    defined, named_outside = set(), set()
    statements = [stmt for path in sorted(SRC.rglob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    for stmt in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not stmt.name.startswith("__"):
                defined.add(stmt.name)
    for stmt in statements:
        own = getattr(stmt, "name", None)
        named_outside |= _named(stmt) - {own}
    unnamed = sorted(defined - named_outside - set(ENTRY_POINTS))
    assert not unnamed, f"defined in src/pacomp but named nowhere else there: {unnamed}"
    stale = sorted(n for n in ENTRY_POINTS if n not in defined or n in named_outside)
    assert not stale, f"allowlisted but undefined or named in src/pacomp: {stale}"
