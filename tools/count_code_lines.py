"""Count the code lines of the rpmdag package.

A code line is a source line that holds at least one token other than a
comment, a docstring or whitespace. A docstring here is any statement made
of string literals alone. Multi-line tokens count every line they span.

    python3 tools/count_code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/rpmdag next to this script's parent. Prints one
`count path` line per module, then the total. It only reports: the exit
status is 0 whenever the files tokenize.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        rows.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(rows)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "rpmdag"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
