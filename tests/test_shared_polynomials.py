"""No code in `src/pacomp` writes a polynomial's `terms` after
`Polynomial.__init__`.

`algebra.parse_poly` keeps each string's parse and hands the same
`Polynomial` to every document that contains that string, so one write to
its term map would change every model parsed from the same text.  The check
is syntactic: an assignment to or a `del` of `.terms` or `.terms[...]`
(augmented assignments and loop targets included), a call of a mutating
dict method on `.terms`, and `setattr`/`delattr` naming "terms".  The one
write allowed is `self.terms = clean` in `Polynomial.__init__`.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pacomp"

ALLOWED = {("algebra.py", "Polynomial.__init__", "self.terms")}
_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__",
             "__ior__"}
_ATTR_WRITERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _is_terms(node) -> bool:
    """`node` is `x.terms` or an item of it, `x.terms[k]...`."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _writes(tree):
    """(qualified name of the enclosing definition, the written expression)
    for each write to a `terms` attribute in `tree`."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
                node.ctx, (ast.Store, ast.Del)) and _is_terms(node):
            out.append((scope, ast.unparse(node)))
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in _MUTATORS
                    and _is_terms(func.value)):
                out.append((scope, ast.unparse(node)))
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _ATTR_WRITERS and any(
                    isinstance(a, ast.Constant) and a.value == "terms" for a in node.args):
                out.append((scope, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def test_no_code_writes_a_polynomials_terms_after_init():
    writes = {(path.name, scope, text)
              for path in sorted(SRC.rglob("*.py"))
              for scope, text in _writes(ast.parse(path.read_text(encoding="utf-8")))}
    assert writes - ALLOWED == set(), "a shared polynomial's terms written"
    assert ALLOWED <= writes, "the allowed write in Polynomial.__init__ moved"


def test_the_check_sees_each_kind_of_write():
    source = """
def f(p, q, m):
    p.terms = {}
    p.terms[m] += 1
    del q.terms[m]
    for p.terms in ():
        pass
    p.terms.update({})
    q.terms.pop(m)
    setattr(p, "terms", {})
    object.__setattr__(q, "terms", {})
    d = dict(p.terms)
    d.update(q.terms)
    return p.terms.get(m), d
"""
    assert _writes(ast.parse(source)) == [
        ("f", "p.terms"), ("f", "p.terms[m]"), ("f", "q.terms[m]"), ("f", "p.terms"),
        ("f", "p.terms.update({})"), ("f", "q.terms.pop(m)"), ("f", "setattr(p, 'terms', {})"),
        ("f", "object.__setattr__(q, 'terms', {})"),
    ]
