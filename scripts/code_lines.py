"""Count the code lines of Python modules.

A code line holds at least one token other than a comment, a docstring, or
NL/NEWLINE/INDENT/DEDENT. A docstring is a string literal that forms a
statement on its own, which is how a module, class or function docstring
tokenizes. A token spanning several lines counts on each of them.

Usage: python scripts/code_lines.py [PATH ...]

Each PATH is a module or a directory, searched for *.py (default:
src/frogline). Prints one line per module and the total.
"""

import os
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                   tokenize.ENCODING}


def _significant(tokens):
    return [tok for tok in tokens
            if tok.type not in (tokenize.NL, tokenize.COMMENT)]


def code_lines(path):
    """The number of code lines in the module at `path`."""
    with open(path, "rb") as f:
        tokens = _significant(tokenize.tokenize(f.readline))
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and tokens[i - 1].type in STATEMENT_START
                and tokens[i + 1].type in (tokenize.NEWLINE,
                                           tokenize.ENDMARKER)):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                yield from (os.path.join(root, name)
                            for name in sorted(files) if name.endswith(".py"))
        else:
            yield path


def main(argv):
    total = 0
    for path in modules(argv or ["src/frogline"]):
        count = code_lines(path)
        total += count
        print("%6d  %s" % (count, path))
    print("%6d  total" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
