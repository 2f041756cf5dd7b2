"""Tests generated from the ``repro`` parser itself, so a new command or
a new documented invocation is covered without editing them.

- Every command rejects a flag that only another command defines (exit
  2, and the message names the command and the flag).
- Every command's ``--help`` renders (argparse formats help lazily, so
  a bad help string fails only at ``--help`` time).
- Every ``python -m repro ...`` line in a fenced code block of the
  README, EXPERIMENTS.md and ``docs/*.md`` parses.  Each case is named
  by its file and its invocation text, not its line number, so editing
  a doc renames no case; the text enters as its command and a short
  digest, so a report that cuts long test names still tells the cases
  apart.
"""

import hashlib
import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser, commands, main, parse_args

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: A command line: an optional ``$`` prompt and ``VAR=value`` prefixes.
INVOCATION = re.compile(r"\s*(\$ )?(\w+=\S* )*python -m repro ")
COMMANDS = commands(build_parser())


def _flags(sub) -> set:
    return {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}


def _required(sub) -> list:
    """A placeholder value for each required option of ``sub``."""
    return [x for a in sub._actions if a.required and a.option_strings
            for x in (a.option_strings[0], "x")]


def test_the_table_lists_every_command():
    assert {"table1", "figure7", "all", "sweep", "trace", "check",
            "analyze", "gaps", "list", "obs merge"} <= set(COMMANDS)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_a_flag_of_another_command_exits_2(name, capsys):
    every = set().union(*(_flags(s) for s in COMMANDS.values()))
    flag = sorted(every - _flags(COMMANDS[name]))[0]
    argv = [*name.split(), *_required(COMMANDS[name]), flag, "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"repro {name}: error: unrecognized arguments: {flag} 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name", list(COMMANDS))
def test_help_renders(name, capsys):
    assert main([*name.split(), "--help"]) == 0
    assert f"usage: repro {name}" in capsys.readouterr().out


def documented_invocations() -> list:
    """``(file:line, argv)`` of every line inside a fenced code block
    that runs ``python -m repro``, with ``\\`` continuations joined and ``#``
    comments stripped."""
    found = []
    for path in [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
                 *sorted((ROOT / "docs").glob("*.md"))]:
        lines = path.read_text().splitlines()
        fenced = False
        for i, line in enumerate(lines):
            if line.lstrip().startswith("```"):
                fenced = not fenced
            if not fenced or not INVOCATION.match(line):
                continue
            j = i
            while line.rstrip().endswith("\\") and j + 1 < len(lines):
                j += 1
                line = line.rstrip()[:-1] + " " + lines[j]
            words = shlex.split(line, comments=True)
            argv = words[words.index("-m") + 2:]
            found.append((f"{path.relative_to(ROOT)}:{i + 1}", argv))
    return found


def invocation_ids(invocations: list) -> list:
    """``<doc>:<command>-<digest>`` per invocation, the digest being the
    first 7 hex digits of the SHA-1 of the space-joined argv; a repeat
    within one doc gets ``#2``, ``#3``, ... in document order."""
    ids, seen = [], {}
    for where, argv in invocations:
        digest = hashlib.sha1(" ".join(argv).encode()).hexdigest()[:7]
        key = f"{where.rsplit(':', 1)[0]}:{argv[0]}-{digest}"
        seen[key] = seen.get(key, 0) + 1
        ids.append(key if seen[key] == 1 else f"{key}#{seen[key]}")
    return ids


INVOCATIONS = documented_invocations()


def test_the_docs_hold_invocations():
    assert len(INVOCATIONS) >= 30


def test_an_invocation_id_names_its_doc_and_text_and_numbers_a_repeat():
    gaps = "gaps-" + hashlib.sha1(b"gaps").hexdigest()[:7]
    sweep = "sweep-" + hashlib.sha1(b"sweep --jobs 2").hexdigest()[:7]
    assert invocation_ids([("a.md:3", ["gaps"]), ("a.md:9", ["gaps"]),
                           ("b.md:2", ["gaps"]), ("a.md:12", ["sweep", "--jobs", "2"])]
                          ) == [f"a.md:{gaps}", f"a.md:{gaps}#2", f"b.md:{gaps}",
                                f"a.md:{sweep}"]


def test_the_documented_invocation_ids_are_short_and_distinct():
    ids = invocation_ids(INVOCATIONS)
    assert len(set(ids)) == len(ids)
    assert max(map(len, ids)) <= 40


@pytest.mark.parametrize(("where", "argv"), INVOCATIONS,
                         ids=invocation_ids(INVOCATIONS))
def test_documented_invocation_parses(where, argv, capsys):
    try:
        parse_args(argv)
    except SystemExit:
        pytest.fail(f"{where}: 'repro {' '.join(argv)}' does not parse: "
                    f"{capsys.readouterr().err.strip()}")
