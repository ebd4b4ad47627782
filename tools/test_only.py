"""Find what in ``src/`` only tests reach, and hold it to a keep-list.

A *consumer* is any Python file under ``src/``, ``benchmarks/``,
``examples/`` or ``tools/`` that pytest does not collect; this script
is none. Every file under ``tests/``, and every ``test_*.py`` and
``conftest.py`` wherever it lives (the private benchmarks among them),
is on the test side. The scan reports four classes of hit, each by
``ast``, never by words (a docstring or a comment naming something is
not a use of it):

1. functions, classes and methods that no consumer references (an
   ``ast.Name``, an ``ast.Attribute`` or a ``from ... import`` alias
   outside an ``__init__.py``; a reference from inside the definition
   itself does not count);
2. defaulted parameters that no consumer call passes, by keyword or by
   position (a call with ``*args`` / ``**kwargs`` passes everything);
   a dataclass's defaulted fields are parameters of its generated
   ``__init__``, set by a call to the class or a subclass, by
   ``replace(x, field=...)`` or by ``obj.field = ...`` (a field the
   class's own methods assign on ``self`` is state, and so is a
   ``default_factory`` field);
3. instance attributes (``self.x = ...``) and dataclass / named-tuple
   fields that no consumer reads; ``self.x += 1``, ``self.x =
   self.x + 1`` and a discarded ``self.x.append(...)`` are writes;
4. IR attributes whose key no consumer names outside the function
   that writes them: a literal key of a ``set_attr`` call, or of the
   ``attributes=`` dict an op is created with by ``create`` /
   ``Operation`` (a dict display, or a local the function builds from
   one and from ``local["key"] = ...`` stores).

Names are matched by name alone, so a name shares its uses with
everything else of that name (a miss, never a false hit), and a name
reached only through ``getattr``, a string or a call through a variable
is a false hit: such a name goes on the keep-list with the consumer
that reaches it.

Every hit must be on the keep-list, ``tools/test_only_keep.json``: one
entry per name with its ``key`` (the hit's own, or an ``fnmatch``
pattern), its ``class`` and ``why`` it stays (a non-test consumer or a
ROADMAP item).
An entry that matches no hit is stale.

One walk of each parsed tree files every fact both checks read, by
kind and name, in one index per file: the four classes and the
gone-list are lookups into it, never walks of their own.

The same parse holds the gone-list, ``tools/gone.json`` under the root
(a root without one is an error): the names a change deleted and where
they must stay gone; this script is one of the files it covers. Each
entry has ``names``, a ``kind``, a ``scope`` list, the ``reason`` and
the ``pr`` that deleted them, and may carry ``at_most`` (default 0),
the number of hits it allows, counted over all its scopes. A kind is
matched on the AST, never on a comment or a docstring:

- ``def``: a def or class named N;
- ``import``: an imported module or ``from`` name, relative imports
  resolved; a dotted N such as ``repro.core.dse`` matches its
  submodules too;
- ``call``: a call whose callee is N or ends in ``.N`` (N may be dotted,
  ``graph.dependencies``); ``N(kw=)`` also requires the keyword ``kw``;
- ``keyword``: a parameter or keyword argument named N; ``**`` is a
  ``**`` spread in a call or a ``**kwargs`` parameter;
- ``name``: any identifier: a name, an attribute (a dotted N matches an
  attribute chain's end, ``options.cipher``), a def, a parameter, a
  keyword or an import alias;
- ``string``: the regex N found in a line of a string constant other
  than a docstring;
- ``loop``: a ``for``, a ``while`` or a comprehension (``names`` is
  empty).

A scope is a file or directory under the root (``.py`` files under
``src``, ``benchmarks``, ``examples``, ``tools`` and ``tests``),
optionally narrowed to ``::Class``, ``::function`` or
``::Class.method`` of a file. A scope that names no file, class or
function is a missing anchor, an error like a found name, so a renamed
anchor cannot leave its entry passing with nothing to look at. Usage::

    python tools/test_only.py [--root DIR] [--keep FILE]

Prints each unlisted hit, each stale entry, each gone name found and
each missing anchor, and exits 1 if there is any; exits 0 when clean.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

DIRS = ("src", "benchmarks", "examples", "tools", "tests")
SELF = Path(__file__).resolve()
KEEP = SELF.with_name("test_only_keep.json")
GONE = "tools/gone.json"
GONE_KINDS = ("def", "import", "call", "keyword", "name", "string", "loop")
GONE_FIELDS = {"names", "kind", "scope", "reason", "pr", "at_most"}

_MUTATORS = {
    "append", "extend", "add", "update", "insert", "setdefault",
    "clear", "discard", "appendleft",
}
_FIELD_BASES = {"NamedTuple"}


@dataclass(frozen=True)
class Hit:
    key: str
    kind: int
    where: str
    tested: bool

    def line(self) -> str:
        reach = "test-only" if self.tested else "unreferenced"
        return f"{self.where}: class {self.kind} {reach}: {self.key}"


@dataclass
class _File:
    rel: str
    tree: ast.Module
    #: ``(kind, name)`` -> the nodes that are one (``_facts``)
    facts: Dict[Tuple[str, str], List[ast.AST]]


def _parse(root: Path) -> List[_File]:
    files = []
    for name in DIRS:
        base = root / name
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            package = rel.split("/")[1 if rel.startswith("src/") else 0:-1]
            init = path.name == "__init__.py"
            facts: Dict[Tuple[str, str], List[ast.AST]] = defaultdict(list)
            nodes = [tree]
            # breadth first, as ``ast.walk``; a Load / Store / Del
            # context is no fact and gets no parent
            for node in nodes:
                for child in ast.iter_child_nodes(node):
                    if not isinstance(child, ast.expr_context):
                        child.parent = node  # type: ignore[attr-defined]
                        nodes.append(child)
                for fact in _facts(node, package, init):
                    facts[fact].append(node)
            files.append(_File(rel, tree, facts))
    return files


def _tested(rel: str) -> bool:
    """Whether pytest collects the file at ``rel``, or it is under
    ``tests/``."""
    name = rel.rpartition("/")[2]
    return (rel.startswith("tests/") or name == "conftest.py"
            or fnmatch.fnmatchcase(name, "test_*.py"))


def _index(files: List[_File]) -> Dict[Tuple[str, str], List[ast.AST]]:
    """The facts of ``files`` merged, in file order."""
    index: Dict[Tuple[str, str], List[ast.AST]] = defaultdict(list)
    for file in files:
        for fact, nodes in file.facts.items():
            index[fact] += nodes
    return dict(index)


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _enclosing(node: ast.AST, kinds) -> Optional[ast.AST]:
    """The nearest of ``node`` and its ancestors that is a ``kinds``."""
    while node is not None and not isinstance(node, kinds):
        node = getattr(node, "parent", None)
    return node


def _inside(node: ast.AST, owner: Optional[ast.AST]) -> bool:
    while owner is not None and node is not None:
        if node is owner:
            return True
        node = getattr(node, "parent", None)
    return False


def _decorators(node: ast.AST) -> Set[str]:
    names = set()
    for deco in getattr(node, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _base_names(cls: ast.ClassDef) -> Set[str]:
    names = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _literal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# -- the facts ------------------------------------------------------------


def _facts(node: ast.AST, package: List[str],
           init: bool) -> Iterator[Tuple[str, str]]:
    """The ``(kind, name)`` pairs ``node`` is, ``package`` being the
    dotted parts of the package its file is in and ``init`` whether that
    file is an ``__init__.py``. The gone kinds are the module
    docstring's; the scan's are:

    - ``ref``: a name, an attribute, or a ``from`` alias outside an
      ``__init__.py``, by the name it uses;
    - ``callee``: a call by the name it calls (``cls(...)`` calls its
      class); ``super``: an ``x.__init__(...)`` call by each base of
      each class around it;
    - ``store``: ``obj.x = ...`` or ``object.__setattr__(obj, "x",
      ...)`` by ``x``; ``self-store``: each ``self.x = ...``;
    - ``read``: an attribute load that is not a self-update;
    - ``class``: each class; ``subclass`` by each base, ``init`` by
      name when it defines its own ``__init__``, ``dataclass`` by name;
    - ``literal``: a string constant by its value;
    - ``ir-write``: a ``set_attr`` call with a literal key, or a
      ``create`` / ``Operation`` call with ``attributes=``; ``local``:
      an assignment of a dict display to a name, or of ``name["key"]``,
      by the name.
    """
    if isinstance(node, ast.Name):
        yield "name", node.id
        yield "ref", node.id
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            yield "literal", node.value
            if not _docstring(node):
                yield "string", ""
    elif isinstance(node, ast.Call):
        for tail in _tails(_dotted(node.func)):
            yield "call", tail
            for keyword in node.keywords:
                yield "call", f"{tail}({keyword.arg or '**'}=)"
        yield from _call_facts(node)
    elif isinstance(node, ast.Attribute):
        for tail in _tails(_dotted(node)):
            yield "name", tail
        yield "ref", node.attr
        if isinstance(node.ctx, ast.Store):
            yield "store", node.attr
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                yield "self-store", ""
        elif isinstance(node.ctx, ast.Load) and not _is_self_update(node):
            yield "read", node.attr
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        for name in {name for name, _ in _dict_stores(node)}:
            yield "local", name
    elif isinstance(node, ast.arg):
        yield "keyword", node.arg
        yield "name", node.arg
        if node.parent.kwarg is node:
            yield "keyword", "**"
    elif isinstance(node, ast.keyword):
        yield "keyword", node.arg or "**"
        if node.arg:
            yield "name", node.arg
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        yield "def", node.name
        yield "name", node.name
        if isinstance(node, ast.ClassDef):
            yield "class", ""
            for base in _base_names(node):
                yield "subclass", base
            if any(isinstance(i, ast.FunctionDef) and i.name == "__init__"
                   for i in node.body):
                yield "init", node.name
            if "dataclass" in _decorators(node):
                yield "dataclass", node.name
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        yield from _imported(node, package)
        if isinstance(node, ast.ImportFrom) and not init:
            for alias in node.names:
                yield "ref", alias.name
    elif isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.ListComp,
                           ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        yield "loop", ""


def _call_facts(node: ast.Call) -> Iterator[Tuple[str, str]]:
    func = node.func
    if isinstance(func, ast.Name):
        owner = _enclosing(node, ast.ClassDef) if func.id == "cls" else None
        yield "callee", func.id if owner is None else owner.name
    elif isinstance(func, ast.Attribute):
        yield "callee", func.attr
        if (func.attr == "__setattr__" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)):
            yield "store", node.args[1].value
        elif func.attr == "__init__":
            cls = _enclosing(node, ast.ClassDef)
            while cls is not None:
                for base in _base_names(cls):
                    yield "super", base
                cls = _enclosing(cls.parent, ast.ClassDef)
        elif (func.attr == "set_attr" and node.args
              and _literal(node.args[0]) is not None):
            yield "ir-write", ""
    if (getattr(func, "attr", getattr(func, "id", None))
            in ("create", "Operation")
            and any(k.arg == "attributes" for k in node.keywords)):
        yield "ir-write", ""


def _dotted(node: ast.AST) -> List[str]:
    """``["a", "b", "c"]`` of ``a.b.c``, as far back as it is names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def _tails(parts: List[str]) -> List[str]:
    """``c``, ``b.c`` and ``a.b.c`` of ``a.b.c``."""
    return [".".join(parts[i:]) for i in range(len(parts))]


def _docstring(node: ast.Constant) -> bool:
    expr = getattr(node, "parent", None)
    owner = getattr(expr, "parent", None)
    return (isinstance(expr, ast.Expr)
            and isinstance(owner, (ast.Module, ast.ClassDef,
                                   ast.FunctionDef, ast.AsyncFunctionDef))
            and owner.body[0] is expr)


def _imported(node, package: List[str]) -> Iterator[Tuple[str, str]]:
    """An import's modules (and each dotted prefix) and bound names."""
    base = []
    if isinstance(node, ast.ImportFrom):
        if node.level:
            base = package[:max(0, len(package) - node.level + 1)]
        base += [node.module] if node.module else []
    for alias in node.names:
        module = ".".join(base + [alias.name]).split(".")
        for end in range(1, len(module) + 1):
            yield "import", ".".join(module[:end])
        yield "name", alias.name
        if alias.asname:
            yield "name", alias.asname


def _is_self_update(node: ast.Attribute) -> bool:
    """``self.x = f(self.x)``-style loads and discarded mutator calls."""
    parent = getattr(node, "parent", None)
    if (isinstance(parent, ast.Attribute) and parent.attr in _MUTATORS):
        call = getattr(parent, "parent", None)
        if isinstance(call, ast.Call) and isinstance(
                getattr(call, "parent", None), ast.Expr):
            return True
    stmt = _enclosing(node, ast.stmt)
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    return any(
        isinstance(t, ast.Attribute) and t.attr == node.attr
        and isinstance(t.value, ast.Name) and isinstance(node.value, ast.Name)
        and t.value.id == node.value.id
        for t in targets
    )


def _dict_stores(node) -> Iterator[Tuple[str, List[str]]]:
    """``(name, literal keys)`` of each ``name = {...}`` and
    ``name["key"] = ...`` target of an assignment."""
    for target in getattr(node, "targets", None) or [node.target]:
        if isinstance(target, ast.Name) and isinstance(node.value, ast.Dict):
            yield target.id, _dict_keys(node.value)
        elif (isinstance(target, ast.Subscript)
              and isinstance(target.value, ast.Name)
              and _literal(target.slice) is not None):
            yield target.value.id, [_literal(target.slice)]


def _dict_keys(value: Optional[ast.AST]) -> List[str]:
    if not isinstance(value, ast.Dict):
        return []
    return [key for key in map(_literal, value.keys) if key is not None]


# -- definitions under src/ -----------------------------------------------


@dataclass
class _Def:
    node: ast.AST
    qual: str
    name: str
    path: str
    cls: Optional[ast.ClassDef]


def _definitions(files: List[_File]) -> Iterator[_Def]:
    for file in files:
        if not file.rel.startswith("src/"):
            continue
        path = file.rel[len("src/"):]
        for node in file.tree.body:
            if isinstance(node, _FUNCS):
                yield _Def(node, node.name, node.name, path, None)
            elif isinstance(node, ast.ClassDef):
                yield _Def(node, node.name, node.name, path, None)
                for item in node.body:
                    if isinstance(item, _FUNCS):
                        yield _Def(item, f"{node.name}.{item.name}",
                                   item.name, path, node)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _class1(defs: List[_Def], uses, tested) -> Iterator[Hit]:
    for item in defs:
        if _dunder(item.name) or any(
                not _inside(ref, item.node)
                for ref in uses.get(("ref", item.name), ())):
            continue
        yield Hit(f"{item.path}::{item.qual}", 1,
                  f"src/{item.path}:{item.node.lineno}",
                  ("ref", item.name) in tested)


# -- defaulted parameters -------------------------------------------------


def _called(index, names: List[str], kind: str = "callee") -> List[ast.Call]:
    """The calls of ``index`` to any of ``names``."""
    return [node for name in names for node in index.get((kind, name), ())]


def _defaulted(func: ast.FunctionDef, skip_first: bool):
    args = func.args
    positional = list(args.posonlyargs) + list(args.args)
    if skip_first and positional:
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _family(cls: str, uses) -> List[str]:
    """``cls`` and every class below it."""
    names, todo = [], [cls]
    while todo:
        name = todo.pop()
        if name in names:
            continue
        names.append(name)
        todo.extend(sub.name for sub in uses.get(("subclass", name), ()))
    return names


def _passes(call: ast.Call, param: str, index: Optional[int],
            spread: bool = True) -> bool:
    """Whether ``call`` passes ``param`` by keyword, by position ``index``
    (None for a keyword-only one) or, if ``spread``, by any ``*args`` or
    ``**kwargs`` spread. An ``x.__init__(...)`` call other than
    ``super().__init__(...)`` passes the instance first."""
    if spread and (any(isinstance(a, ast.Starred) for a in call.args)
                   or any(k.arg is None for k in call.keywords)):
        return True
    func = call.func
    unbound = (isinstance(func, ast.Attribute) and func.attr == "__init__"
               and getattr(getattr(func.value, "func", None), "id",
                           None) != "super")
    return any(k.arg == param for k in call.keywords) or (
        index is not None
        and sum(not isinstance(a, ast.Starred) for a in call.args)
        - unbound > index)


def _sets(param: str, index: Optional[int], calls: List[ast.Call]) -> bool:
    return any(_passes(call, param, index) for call in calls)


def _field_knob(item: ast.AnnAssign) -> Optional[bool]:
    """Whether a field is a knob of the generated ``__init__``: True for
    a default a caller may replace, False for a required parameter or a
    ``default_factory`` (a fresh container, meter or drawn id per
    instance is state), None for ``init=False`` (not a parameter)."""
    value = item.value
    if not (isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None))
            == "field"):
        return value is not None
    keywords = {k.arg: k.value for k in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return None
    return "default" in keywords


def _dataclass_fields(cls: ast.ClassDef, uses):
    """``[(name, knob, AnnAssign)]`` of the generated ``__init__``'s
    parameters in order, inherited fields first (a redeclared field
    keeps its inherited place)."""
    fields: Dict[str, Tuple[Optional[bool], ast.AnnAssign]] = {}
    for base in _base_names(cls):
        found = uses.get(("dataclass", base))
        if found and found[-1] is not cls:
            for name, knob, node in _dataclass_fields(found[-1], uses):
                fields[name] = (knob, node)
    for item in cls.body:
        if (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.dump(item.annotation)):
            fields[item.target.id] = (_field_knob(item), item)
    return [(name, knob, node) for name, (knob, node) in fields.items()
            if knob is not None]


def _owner(store: ast.AST) -> Optional[str]:
    """The class whose method a ``store`` fact stores on ``self`` in, or
    ``None`` for a store on any other object."""
    target = store.value if isinstance(store, ast.Attribute) else store.args[0]
    if isinstance(target, ast.Name) and target.id == "self":
        cls = _enclosing(store, ast.ClassDef)
        return cls.name if cls is not None else None
    return None


def _dataclass_hits(files, uses, tested) -> Iterator[Hit]:
    """Each defaulted field of a generated ``__init__`` that no consumer
    sets: by keyword or position to the class or a subclass, through
    ``replace(x, f=...)`` or by ``obj.f = ...``. A field that methods of
    the class (or of a subclass) assign on ``self`` is state, not a
    knob."""
    for file in files:
        if not file.rel.startswith("src/"):
            continue
        path = file.rel[len("src/"):]
        for cls in file.facts.get(("class", ""), ()):
            if ("dataclass" not in _decorators(cls)
                    or ("init", cls.name) in uses):
                continue
            family = _family(cls.name, uses)
            names = [n for n in family
                     if n == cls.name or ("init", n) not in uses]

            def sets(name, index, side, supers=()):
                calls = _called(side, names) + list(supers)
                return (_sets(name, index, calls)
                        or _sets(name, None, _called(side, ["replace"]))
                        or any(owner is None or owner in family for owner
                               in map(_owner, side.get(("store", name), ()))))

            supers = _called(uses, [cls.name], "super")
            for index, (name, knob, node) in enumerate(
                    _dataclass_fields(cls, uses)):
                if not knob or not _inside(node, cls) or sets(
                        name, index, uses, supers):
                    continue
                yield Hit(f"{path}::{cls.name}.__init__({name}=)", 2,
                          f"src/{path}:{node.lineno}",
                          sets(name, index, tested))


def _class2(defs, files, uses, tested) -> Iterator[Hit]:
    yield from _dataclass_hits(files, uses, tested)
    for item in defs:
        node = item.node
        if not isinstance(node, _FUNCS):
            continue
        if _dunder(item.name) and item.name != "__init__":
            continue
        method = item.cls is not None and "staticmethod" not in _decorators(
            node)
        names = [item.name]
        if item.name == "__init__" and item.cls is not None:
            family = _family(item.cls.name, uses)
            names = family[:1] + [n for n in family[1:]
                                  if ("init", n) not in uses]
        calls = [c for c in _called(uses, names) if not _inside(c, node)]
        if item.name == "__init__":
            calls += _called(uses, [item.cls.name], "super")
        tested_calls = _called(tested, names)
        for param, index in _defaulted(node, method):
            if _sets(param, index, calls):
                continue
            yield Hit(
                f"{item.path}::{item.qual}({param}=)", 2,
                f"src/{item.path}:{node.lineno}",
                any(_passes(c, param, index, spread=False)
                    for c in tested_calls),
            )


# -- attributes and fields ------------------------------------------------


def _attributes(files: List[_File]) -> Iterator[Tuple[str, str, int]]:
    """``(path, Class.attr, line)`` for each attribute a class writes."""
    for file in files:
        if not file.rel.startswith("src/"):
            continue
        path = file.rel[len("src/"):]
        stores: Dict[ast.AST, List[ast.Attribute]] = defaultdict(list)
        for store in file.facts.get(("self-store", ""), ()):
            func = _enclosing(store, _FUNCS)
            while func is not None:
                stores[func].append(store)
                func = _enclosing(func.parent, _FUNCS)
        for cls in file.facts.get(("class", ""), ()):
            seen: Set[str] = set()
            fields = "dataclass" in _decorators(cls) or (
                _base_names(cls) & _FIELD_BASES)
            for item in cls.body:
                if (fields and isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and "ClassVar" not in ast.dump(item.annotation)):
                    name = item.target.id
                    if name not in seen:
                        seen.add(name)
                        yield path, f"{cls.name}.{name}", item.lineno
            for func in cls.body:
                for node in stores.get(func, ()):
                    if node.attr not in seen:
                        seen.add(node.attr)
                        yield path, f"{cls.name}.{node.attr}", node.lineno


def _class3(files, uses, tested) -> Iterator[Hit]:
    for path, qual, line in _attributes(files):
        attr = qual.split(".", 1)[1]
        if _dunder(attr) or ("read", attr) in uses:
            continue
        yield Hit(f"{path}::{qual}", 3, f"src/{path}:{line}",
                  ("read", attr) in tested)


# -- IR attributes --------------------------------------------------------


def _written_keys(call: ast.Call, owner: Optional[ast.AST],
                  file: _File) -> List[str]:
    """Literal keys of a ``set_attr`` call or of the ``attributes=`` an
    op is created with (a dict display, or a local that ``owner`` builds
    before the call)."""
    if (isinstance(call.func, ast.Attribute)
            and call.func.attr == "set_attr"):
        return [_literal(call.args[0])]
    value = next(keyword.value for keyword in call.keywords
                 if keyword.arg == "attributes")
    if not isinstance(value, ast.Name) or owner is None:
        return _dict_keys(value)
    keys = []
    for node in file.facts.get(("local", value.id), ()):
        if node.lineno <= call.lineno and _inside(node, owner):
            keys += [key for name, found in _dict_stores(node)
                     if name == value.id for key in found]
    return keys


def _class4(files: List[_File], uses, tested) -> Iterator[Hit]:
    for file in files:
        if not file.rel.startswith("src/"):
            continue
        path, seen = file.rel[len("src/"):], set()
        for call in file.facts.get(("ir-write", ""), ()):
            owner = _enclosing(call, _FUNCS)
            for key in _written_keys(call, owner, file):
                if key in seen or any(
                        not _inside(ref, owner)
                        for ref in uses.get(("literal", key), ())):
                    continue
                seen.add(key)
                yield Hit(f"{path}::ir[{key}]", 4,
                          f"{file.rel}:{call.lineno}",
                          ("literal", key) in tested)


# -- the gone-list --------------------------------------------------------


def _anchors(files: List[_File], scope: str):
    """``[(file, node or None)]`` a scope covers; empty when the file,
    class or function it names does not exist."""
    path, _, qual = scope.partition("::")
    covered = [f for f in files
               if f.rel == path or f.rel.startswith(path + "/")]
    if not qual:
        return [(f, None) for f in covered]
    if [f.rel for f in covered] != [path]:
        return []
    node = covered[0].tree
    for part in qual.split("."):
        node = next((item for item in node.body if isinstance(
            item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and item.name == part), None)
        if node is None:
            return []
    return [(covered[0], node)]


def _gone_hits(file: _File, entry: dict) -> Iterator[Tuple[str, ast.AST]]:
    kind = entry["kind"]
    if kind == "loop":
        for node in file.facts.get(("loop", ""), ()):
            yield type(node).__name__.lower(), node
        return
    for name in entry["names"]:
        if kind != "string":
            yield from ((name, node)
                        for node in file.facts.get((kind, name), ()))
            continue
        for node in file.facts.get(("string", ""), ()):
            if any(re.search(name, line)
                   for line in node.value.splitlines()):
                yield name, node


def gone(files: List[_File], entries: List[dict]):
    """``(found, missing)``: a line for each hit of an entry with more
    than its ``at_most``, and one for each scope that no longer exists."""
    found, missing = [], []
    for entry in entries:
        if entry["kind"] not in GONE_KINDS or not set(entry) <= GONE_FIELDS:
            raise ValueError(f"{GONE}: not a gone entry: {entry}")
        label = f"{entry['reason']} (PR {entry['pr']})"
        hits = {}
        for scope in entry["scope"]:
            anchors = _anchors(files, scope)
            if not anchors:
                missing.append(f"{GONE}: missing anchor {scope}: {label}")
            for file, anchor in anchors:
                for name, node in _gone_hits(file, entry):
                    if anchor is None or _inside(node, anchor):
                        hits[id(node), name] = (file.rel, node.lineno, name)
        at_most = entry.get("at_most", 0)
        if len(hits) > at_most:
            bound = f" ({len(hits)} hits, at most {at_most})" * bool(at_most)
            found += [f"{rel}:{line}: gone {entry['kind']} {name!r}{bound}: "
                      f"{label}" for rel, line, name in sorted(hits.values())]
    return found, missing


# -- driver ---------------------------------------------------------------


def scan(consumers: List[_File], tests: List[_File]) -> List[Hit]:
    """Every hit of the four classes under ``src/``."""
    uses, tested = _index(consumers), _index(tests)
    defs = list(_definitions(consumers))
    hits = list(_class1(defs, uses, tested))
    hits += _class2(defs, consumers, uses, tested)
    hits += _class3(consumers, uses, tested)
    hits += _class4(consumers, uses, tested)
    return hits


def check(hits: List[Hit], keep: List[dict]):
    """``(unlisted hits, stale entries, listed hits)``."""
    matched = [False] * len(keep)
    unlisted, listed = [], []
    for hit in hits:
        entries = [
            i for i, entry in enumerate(keep)
            if entry["class"] == hit.kind
            and (hit.key == entry["key"]
                 or fnmatch.fnmatchcase(hit.key, entry["key"]))
        ]
        for i in entries:
            matched[i] = True
        (listed if entries else unlisted).append(hit)
    stale = [entry for entry, used in zip(keep, matched) if not used]
    return unlisted, stale, listed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path,
                        default=SELF.parent.parent)
    parser.add_argument("--keep", type=Path, default=KEEP)
    args = parser.parse_args(argv)
    keep = json.loads(args.keep.read_text(encoding="utf-8"))
    entries = json.loads((args.root / GONE).read_text(encoding="utf-8"))
    files = _parse(args.root)
    scanned = [f for f in files if (args.root / f.rel).resolve() != SELF]
    unlisted, stale, listed = check(scan(
        [f for f in scanned if not _tested(f.rel)],
        [f for f in scanned if _tested(f.rel)]), keep)
    found, missing = gone(files, entries)
    for hit in unlisted:
        print(hit.line())
    for entry in stale:
        print(f"{args.keep.name}: stale class {entry['class']} entry: "
              f"{entry['key']} (no longer a hit)")
    for line in found + missing:
        print(line)
    print(f"{len(unlisted)} unlisted, {len(stale)} stale, "
          f"{len(listed)} kept", file=sys.stderr)
    print(f"gone: {len(entries)} entries, {len(found)} found, "
          f"{len(missing)} missing anchors", file=sys.stderr)
    return 1 if unlisted or stale or found or missing else 0


if __name__ == "__main__":
    sys.exit(main())
