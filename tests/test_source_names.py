"""Every function, class and method of `src/pacomp` is reachable from the
program: from a module-level statement (the command table `cli.COMMANDS`,
the document types `modelio._TYPES`, the rule table `proofrules.RULES`, ...)
or from a library entry point on the allowlist below, through the names that
reached code uses.  A definition that only tests, the benchmark, itself or
other unreached code name is a leftover of a deleted path or a reference
that belongs in `tests/helpers`.

Names are matched across modules, and a method is reached when reached code
names its attribute anywhere, so the check is conservative: it may miss an
orphan whose name is shared, but it flags nothing the program uses.  Imports
are not uses, and a class brings along its bases, decorators, class-level
statements and dunder methods.
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
    "path_project": "one composed path's projection; strategy_project checks the model once",
    "dist_leq": "one lifting check on two Fraction distributions",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _named(nodes) -> set:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions(tree):
    """(label, name, nodes whose names the definition uses once reached) for
    each module-level function and class and each method, and the module's
    own top-level statements, which always run."""
    defs, roots = [], []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            own = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
            for item in stmt.body:
                if not isinstance(item, _DEFS) or item.name.startswith("__"):
                    own.append(item)
                else:
                    defs.append((f"{stmt.name}.{item.name}", item.name, [item]))
            defs.append((stmt.name, stmt.name, own))
        elif isinstance(stmt, _DEFS):
            defs.append((stmt.name, stmt.name, [stmt]))
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            roots.append(stmt)
    return defs, roots


def test_every_definition_is_reached_from_the_program_or_an_entry_point():
    defs, roots = [], []
    for path in sorted(SRC.rglob("*.py")):
        more_defs, more_roots = _definitions(ast.parse(path.read_text(encoding="utf-8")))
        defs += more_defs
        roots += more_roots
    by_name = {}
    for label, name, nodes in defs:
        by_name.setdefault(name, []).append((label, nodes))
    reached, used = set(), {}  # label -> names its nodes use
    pending = list(_named(roots) | set(ENTRY_POINTS))
    seen = set(pending)
    while pending:
        for label, nodes in by_name.get(pending.pop(), ()):
            if label not in reached:
                reached.add(label)
                used[label] = _named(nodes)
                for name in used[label] - seen:
                    seen.add(name)
                    pending.append(name)
    unreached = sorted(label for label, _, _ in defs if label not in reached)
    assert not unreached, f"defined in src/pacomp but unreached from the program: {unreached}"
    named = _named(roots).union(*(names - {label.rpartition(".")[2]}
                                  for label, names in used.items()))
    stale = sorted(n for n in ENTRY_POINTS if n not in by_name or n in named)
    assert not stale, f"allowlisted but undefined or named by reached code: {stale}"
