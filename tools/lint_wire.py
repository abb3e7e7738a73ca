#!/usr/bin/env python3
"""Wire-invariant linter: the checks on rpc::Endpoint the build cannot make.

Each bus endpoint is declared once, in the endpoint list of
src/api/service_ops.hpp, and the build enforces what that list implies:
src/rpc/server.cpp static_asserts that every Endpoint value has exactly one
route, and tests/test_transport.cpp fuzzes every id. What no compiler sees
is checked here textually:

  1. enum  -- wire values are contiguous from 0 and kEndpointCount is the
              last member (wire.hpp)
  2. name  -- kEndpointNames (wire.cpp) holds the snake_case literal at the
              member's wire index (kDcRegister -> "dc_register")
  3. docs  -- docs/api.md has a wire-endpoints table row for the name

Exit 0 when clean; prints one line per violation and exits 1 otherwise.
`--self-test` proves the linter still bites: it injects a phantom endpoint
and asserts the name and docs checks fail for it, then renumbers a member
and asserts the contiguity check fails.
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

WIRE_HPP = ROOT / "src" / "rpc" / "wire.hpp"
WIRE_CPP = ROOT / "src" / "rpc" / "wire.cpp"
DOCS_FILE = ROOT / "docs" / "api.md"

SENTINEL = "kEndpointCount"


def camel_to_snake(member: str) -> str:
    """kDcAddLocator -> dc_add_locator (the wire naming convention)."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", member[1:]).lower()


def parse_enum(text: str) -> tuple[list[tuple[str, int]], list[str]]:
    """Returns ([(member, value), ...] in declaration order, errors)."""
    errors: list[str] = []
    match = re.search(r"enum class Endpoint[^{]*\{(.*?)\};", text, re.DOTALL)
    if not match:
        return [], ["wire.hpp: cannot find `enum class Endpoint`"]
    body = match.group(1)
    members = [(m.group(1), int(m.group(2)))
               for m in re.finditer(r"\b(k[A-Za-z0-9]+)\s*=\s*(\d+)", body)]
    tail = re.findall(r"\b(k[A-Za-z0-9]+)\b(?!\s*=)", body)
    if SENTINEL not in tail:
        errors.append(f"wire.hpp: enum must end with the {SENTINEL} sentinel")
    for index, (member, value) in enumerate(members):
        if value != index:
            errors.append(
                f"wire.hpp: {member} = {value}, expected {index} "
                "(wire values must be contiguous from 0)")
    return members, errors


def parse_name_table(text: str) -> list[str]:
    match = re.search(r"kEndpointNames\[\]\s*=\s*\{(.*?)\};", text, re.DOTALL)
    if not match:
        return []
    return re.findall(r'"([a-z0-9_]+)"', match.group(1))


def lint(sources: dict[str, str]) -> list[str]:
    """Pure check over file contents; returns the violation list."""
    members, errors = parse_enum(sources["wire.hpp"])
    if not members:
        return errors or ["wire.hpp: no Endpoint members found"]

    names = parse_name_table(sources["wire.cpp"])
    for index, (member, _value) in enumerate(members):
        snake = camel_to_snake(member)
        if index >= len(names):
            errors.append(f"wire.cpp: kEndpointNames has no entry for {member}")
        elif names[index] != snake:
            errors.append(
                f'wire.cpp: kEndpointNames[{index}] is "{names[index]}", '
                f'expected "{snake}" for {member}')

        if not re.search(rf"\|\s*`{snake}`\s*\|", sources["docs"]):
            errors.append(
                f"docs/api.md: no wire-endpoints table row for `{snake}` "
                f"({member})")

    return errors


def load_sources() -> dict[str, str]:
    return {
        "wire.hpp": WIRE_HPP.read_text(),
        "wire.cpp": WIRE_CPP.read_text(),
        "docs": DOCS_FILE.read_text(),
    }


def self_test(sources: dict[str, str]) -> int:
    """Inject defects; the linter must flag each one."""
    baseline = lint(sources)
    if baseline:
        print("self-test: tree must be clean first; current violations:")
        for error in baseline:
            print(f"  {error}")
        return 1

    members, _ = parse_enum(sources["wire.hpp"])
    phantom = dict(sources)
    phantom["wire.hpp"] = sources["wire.hpp"].replace(
        f"  {SENTINEL},",
        f"  kZzLintSelfTest = {len(members)},\n  {SENTINEL},")
    errors = lint(phantom)
    hits = [e for e in errors if "ZzLintSelfTest" in e or "zz_lint_self_test" in e]
    expected = {"wire.cpp:", "docs/api.md:"}
    seen = {prefix for prefix in expected for e in hits if e.startswith(prefix)}

    last, value = members[-1]
    renumbered = dict(sources)
    renumbered["wire.hpp"] = re.sub(
        rf"\b{last}\s*=\s*{value}\b", f"{last} = {value + 1}", sources["wire.hpp"])
    if any("contiguous" in e for e in lint(renumbered)):
        seen.add("wire.hpp:")
    expected.add("wire.hpp:")

    missing = expected - seen
    if missing:
        print(f"self-test FAILED: injected defects not flagged by: {sorted(missing)}")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"self-test ok: injected defects tripped all {len(expected)} checks")
    return 0


def main(argv: list[str]) -> int:
    sources = load_sources()
    if "--self-test" in argv:
        return self_test(sources)
    errors = lint(sources)
    if errors:
        print(f"lint_wire: {len(errors)} violation(s)")
        for error in errors:
            print(f"  {error}")
        return 1
    members, _ = parse_enum(sources["wire.hpp"])
    print(f"lint_wire: {len(members)} endpoints consistent "
          "(contiguous ids, names, docs rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
