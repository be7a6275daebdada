"""``# simlint: disable=RULE`` suppression comments.

Two forms, mirroring the usual linter conventions:

* **line** — a trailing comment on the flagged line silences the named
  rules for that line only::

      t0 = time.perf_counter()  # simlint: disable=SIM101 -- perf harness

  Everything after the rule list is free-form justification.

* **file** — a comment on a line of its own (nothing but the comment)
  silences the named rules for the whole file::

      # simlint: disable-file=SIM101 -- this module IS the wall-clock harness

``disable=all`` / ``disable-file=all`` silence every rule.  Comments are
found with :mod:`tokenize`, so the markers never match inside string
literals.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Set

_MARKER = re.compile(
    r"#\s*simlint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

_ALL = "all"


@dataclass
class SuppressionIndex:
    """Which rules are silenced on which lines of one file."""

    #: line number -> rule ids silenced on that line ({"all"} = every rule)
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule ids silenced for the whole file
    file_wide: Set[str] = field(default_factory=set)

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        idx = cls()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            # Unparseable source produces its own diagnostic elsewhere;
            # there is nothing to suppress.
            return idx
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _MARKER.search(tok.string)
            if m is None:
                continue
            rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
            if m.group("scope"):
                idx.file_wide |= rules
            else:
                idx.by_line.setdefault(tok.start[0], set()).update(rules)
        return idx

    def is_suppressed(self, rule: str, line: int) -> bool:
        if _ALL in self.file_wide or rule in self.file_wide:
            return True
        on_line = self.by_line.get(line)
        return on_line is not None and (_ALL in on_line or rule in on_line)
