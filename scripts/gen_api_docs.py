#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks every ``repro`` module, emitting a markdown reference with module
summaries, public class/function signatures, and their first docstring
paragraphs.  Run after API changes:

    python scripts/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

OUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return ""
    para = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in para.splitlines())


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def document_module(modname: str, lines: list[str]) -> None:
    mod = importlib.import_module(modname)
    lines.append(f"## `{modname}`\n")
    summary = first_paragraph(mod.__doc__)
    if summary:
        lines.append(summary + "\n")
    public = getattr(mod, "__all__", None)
    members = []
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_"):
            continue
        if public is not None and name not in public:
            continue
        if inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", modname) != modname:
            continue
        members.append((name, obj))
    for name, obj in members:
        if inspect.isclass(obj):
            lines.append(f"### class `{name}{signature_of(obj)}`\n")
            doc = first_paragraph(obj.__doc__)
            if doc:
                lines.append(doc + "\n")
            for mname, meth in sorted(vars(obj).items()):
                if mname.startswith("_") or not callable(meth):
                    continue
                mdoc = first_paragraph(getattr(meth, "__doc__", None))
                lines.append(f"- `{mname}{signature_of(meth)}`"
                             + (f" — {mdoc}" if mdoc else ""))
            lines.append("")
        elif inspect.isfunction(inspect.unwrap(obj)):  # also lru_cache etc.
            lines.append(f"### `{name}{signature_of(obj)}`\n")
            doc = first_paragraph(obj.__doc__)
            if doc:
                lines.append(doc + "\n")


def main() -> int:
    lines = [
        "# API reference",
        "",
        "_Generated by `scripts/gen_api_docs.py`; do not edit by hand._",
        "",
    ]
    names = ["repro"]
    for m in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(m.name)
    for name in sorted(set(names)):
        if ".__main__" in name or name.endswith("__main__"):
            continue
        document_module(name, lines)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUT} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
