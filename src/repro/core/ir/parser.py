"""Parser for the textual IR form produced by the printer.

Round-trips the generic MLIR-like syntax of
:mod:`repro.core.ir.printer`: modules, functions, generic operations
with operands/attributes/result types, and nested regions with block
arguments. Used for IR snapshot files and as a structural test oracle
(print → parse → print must be a fixed point).

Grammar (informal)::

    module    := 'builtin.module' '@' NAME '{' func* '}'
    func      := 'func.func' '@' NAME '(' args ')' '->' '(' types ')'
                 [ 'attributes' attr-dict ] [ '{' op* '}' ]
    op        := [results '='] OPNAME ['(' operands ')']
                 [attr-dict] [':' types] ['{' region* '}']
    region    := [ '^bb' N '(' args ')' ':' ] op*
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from repro.core.ir.module import Module
from repro.core.ir.ops import Operation, Region, Value
from repro.core.ir.types import (
    FunctionType,
    MemRefType,
    ScalarType,
    StreamType,
    TensorType,
    TokenType,
    Type,
)
from repro.errors import ParseError

_TOKEN_RE = re.compile(
    r"""
    (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<arrow>->)
  | (?P<number>-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<ssa>%[A-Za-z0-9_]+)
  | (?P<caret>\^[A-Za-z0-9_]+)
  | (?P<symbol>@[A-Za-z0-9_.\-]*)
  | (?P<punct>[{}()\[\]<>=,:])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    position = 0
    while position < len(text):
        char = text[position]
        if char.isspace():
            position += 1
            continue
        if text.startswith("//", position):
            end = text.find("\n", position)
            position = len(text) if end < 0 else end
            continue
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {char!r} at offset {position}"
            )
        kind = match.lastgroup or "punct"
        tokens.append((kind, match.group()))
        position = match.end()
    tokens.append(("eof", ""))
    return tokens


class IRParser:
    """Parses printer output back into an IR module."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.position = 0
        self.values: Dict[str, Value] = {}

    # ------------------------------------------------------------------

    def _peek(self) -> Tuple[str, str]:
        return self.tokens[self.position]

    def _advance(self) -> Tuple[str, str]:
        token = self.tokens[self.position]
        if token[0] != "eof":
            self.position += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None
                ) -> Tuple[str, str]:
        token = self._peek()
        if token[0] != kind or (text is not None and token[1] != text):
            raise ParseError(
                f"expected {text or kind!r}, found {token[1]!r}"
            )
        return self._advance()

    def _accept(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._peek()
        if token[0] == kind and (text is None or token[1] == text):
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------

    def parse_module(self) -> Module:
        """Parse a whole module."""
        self._expect("ident", "builtin.module")
        name_token = self._expect("symbol")
        module = Module(name_token[1][1:])
        self._expect("punct", "{")
        while not self._accept("punct", "}"):
            module.body.append(self._parse_top_level())
        return module

    def _parse_top_level(self) -> Operation:
        token = self._peek()
        if token[1] == "func.func":
            return self._parse_func()
        return self._parse_op()

    def _parse_func(self) -> Operation:
        self._expect("ident", "func.func")
        name = self._expect("symbol")[1][1:]
        self._expect("punct", "(")
        arg_entries: List[Tuple[Optional[str], Type]] = []
        while not self._accept("punct", ")"):
            if self._peek()[0] == "ssa":
                ssa = self._advance()[1]
                self._expect("punct", ":")
                arg_entries.append((ssa, self._parse_type()))
            else:
                arg_entries.append((None, self._parse_type()))
            self._accept("punct", ",")
        self._expect("arrow")
        self._expect("punct", "(")
        results: List[Type] = []
        while not self._accept("punct", ")"):
            results.append(self._parse_type())
            self._accept("punct", ",")

        attrs: Dict[str, Any] = {}
        if self._accept("ident", "attributes"):
            attrs = self._parse_attr_dict()
        attrs["sym_name"] = name
        attrs["function_type"] = FunctionType(
            tuple(t for _n, t in arg_entries), tuple(results)
        )

        op = Operation("func.func", attributes=attrs, num_regions=1)
        if self._accept("punct", "{"):
            block = op.regions[0].add_block(
                [t for _n, t in arg_entries]
            )
            for (ssa, _t), value in zip(arg_entries, block.arguments):
                if ssa is not None:
                    # keep the printed name: diagnostics mention it, so
                    # reparsing the same text must yield the same names
                    value.name = ssa[1:]
                    self.values[ssa] = value
            while not self._accept("punct", "}"):
                block.append(self._parse_op())
        return op

    # ------------------------------------------------------------------

    def _parse_op(self) -> Operation:
        result_names: List[str] = []
        if self._peek()[0] == "ssa":
            result_names.append(self._advance()[1])
            while self._accept("punct", ","):
                result_names.append(self._expect("ssa")[1])
            self._expect("punct", "=")
        op_name = self._expect("ident")[1]

        operands: List[Value] = []
        if self._accept("punct", "("):
            while not self._accept("punct", ")"):
                ssa = self._expect("ssa")[1]
                if ssa not in self.values:
                    raise ParseError(f"use of undefined value {ssa}")
                operands.append(self.values[ssa])
                self._accept("punct", ",")

        attrs: Dict[str, Any] = {}
        if self._peek() == ("punct", "{") and not self._region_follows():
            attrs = self._parse_attr_dict()

        result_types: List[Type] = []
        if self._accept("punct", ":"):
            result_types.append(self._parse_type())
            while self._accept("punct", ","):
                result_types.append(self._parse_type())

        if result_names and len(result_types) != len(result_names):
            raise ParseError(
                f"{op_name}: {len(result_names)} results but "
                f"{len(result_types)} result types"
            )

        op = Operation(
            op_name,
            operands=operands,
            result_types=result_types,
            attributes=attrs,
        )
        for name, value in zip(result_names, op.results):
            value.name = name[1:]
            self.values[name] = value

        if self._accept("punct", "{"):
            self._parse_region_into(op)
        return op

    def _region_follows(self) -> bool:
        """Disambiguate attr-dict '{' from region '{'.

        A region starts with '^bb', an op name (ident containing '.')
        or a results list; an attribute dict starts with 'ident ='.
        """
        kind, text = self.tokens[self.position + 1]
        if kind == "caret" or kind == "ssa":
            return True
        if kind == "punct" and text == "}":
            # empty braces: treat as empty attr-dict
            return False
        if kind == "ident":
            following = self.tokens[self.position + 2]
            return not (following == ("punct", "="))
        return False

    def _parse_region_into(self, op: Operation) -> None:
        region = Region(op)
        op.regions.append(region)
        if self._peek()[0] == "caret":
            self._advance()
            self._expect("punct", "(")
            arg_entries: List[Tuple[str, Type]] = []
            while not self._accept("punct", ")"):
                ssa = self._expect("ssa")[1]
                self._expect("punct", ":")
                arg_entries.append((ssa, self._parse_type()))
                self._accept("punct", ",")
            self._expect("punct", ":")
            block = region.add_block([t for _n, t in arg_entries])
            for (ssa, _t), value in zip(arg_entries, block.arguments):
                value.name = ssa[1:]
                self.values[ssa] = value
        else:
            block = region.add_block()
        while not self._accept("punct", "}"):
            block.append(self._parse_op())

    # ------------------------------------------------------------------

    def _parse_attr_dict(self) -> Dict[str, Any]:
        self._expect("punct", "{")
        attrs: Dict[str, Any] = {}
        while not self._accept("punct", "}"):
            key = self._expect("ident")[1]
            self._expect("punct", "=")
            attrs[key] = self._parse_attr_value()
            self._accept("punct", ",")
        return attrs

    def _parse_attr_value(self) -> Any:
        kind, text = self._peek()
        if kind == "string":
            self._advance()
            return text[1:-1]
        if kind == "number":
            self._advance()
            if "." in text or "e" in text or "E" in text:
                return float(text)
            return int(text)
        if kind == "ident" and text in ("true", "false"):
            self._advance()
            return text == "true"
        if kind == "punct" and text == "[":
            self._advance()
            items: List[Any] = []
            while not self._accept("punct", "]"):
                items.append(self._parse_attr_value())
                self._accept("punct", ",")
            return items
        if kind == "punct" and text == "(":
            self._advance()
            items = []
            while not self._accept("punct", ")"):
                items.append(self._parse_attr_value())
                self._accept("punct", ",")
            return tuple(items)
        if kind == "ident" and text in ("tensor", "memref", "stream"):
            return self._parse_type()
        raise ParseError(f"cannot parse attribute value near {text!r}")

    # ------------------------------------------------------------------

    _SCALARS = ("f32", "f64", "i1", "i8", "i32", "i64", "index")

    def _parse_type(self) -> Type:
        kind, text = self._peek()
        if kind == "ident" and text in self._SCALARS:
            self._advance()
            return ScalarType(text)
        if kind == "ident" and text == "token":
            self._advance()
            return TokenType()
        if kind == "ident" and text in ("tensor", "memref"):
            self._advance()
            self._expect("punct", "<")
            # '2x3xf32' tokenizes as number '2' + ident 'x3xf32';
            # reassemble consecutive number/ident tokens.
            pieces = []
            while self._peek()[0] in ("number", "ident"):
                pieces.append(self._advance()[1])
            dims_and_elem = "".join(pieces)
            parts = dims_and_elem.split("x")
            element = ScalarType(parts[-1])
            dims = tuple(int(d) for d in parts[:-1])
            space, layout = "default", "row_major"
            while self._accept("punct", ","):
                modifier = self._expect("ident")[1]
                if modifier in ("row_major", "col_major", "aos",
                                "soa"):
                    layout = modifier
                else:
                    space = modifier
            self._expect("punct", ">")
            if text == "tensor":
                return TensorType(dims, element)
            return MemRefType(dims, element, space, layout)
        if kind == "ident" and text == "stream":
            self._advance()
            self._expect("punct", "<")
            element = self._parse_type()
            depth = 0
            if self._accept("punct", ","):
                depth = int(self._expect("number")[1])
            self._expect("punct", ">")
            return StreamType(element, depth)
        raise ParseError(f"cannot parse type near {text!r}")


def parse_module(text: str) -> Module:
    """Parse printed IR text back into a module."""
    return IRParser(text).parse_module()
