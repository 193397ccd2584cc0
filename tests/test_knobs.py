"""The knob census (``tests/data/knobs.json``) still describes the tree.

The paper's model has three inputs, alpha, s and n; every other option
is implementation.  The census lists every defaulted parameter of what
``repro``, ``repro.core``, ``repro.fusion``, ``repro.serving`` and
``repro.streaming`` export (constructors and dataclass fields included),
and every optional flag of ``repro.cli.build_parser()``.  Each option
names one reason to exist:

* ``caller`` — a non-test file that sets it (the CLI, a paper bench, an
  e2e workload, an example, the conformance engine, or the layer that
  forwards a value from one of those);
* ``record`` — a result field, and the producer file that fills it;
* ``deployment`` — a host, port or timeout, and where one is set;
* ``test-seam`` — the test or golden builder that needs it.

Each flag names the test or README line that uses it.  Every entry's
``text`` must still appear in its named file, so an entry goes stale
when its caller stops passing the option.  An option or flag without an
entry fails here: name its caller, or make it a module constant.
"""

from __future__ import annotations

import argparse
import enum
import importlib
import inspect
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CENSUS = Path(__file__).parent / "data" / "knobs.json"

#: The packages whose exports the census covers.
MODULES = ("repro", "repro.core", "repro.fusion", "repro.serving", "repro.streaming")
#: An option's possible reasons to exist (exactly one per entry).
REASONS = ("caller", "record", "deployment", "test-seam")


def exported_options() -> set[str]:
    """``Name.parameter`` for every defaulted parameter the modules export."""
    found: dict[str, object] = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if inspect.isclass(obj) and issubclass(obj, enum.Enum):
                continue  # its "signature" is the functional Enum API
            try:
                signature = inspect.signature(obj)
            except (TypeError, ValueError):  # a builtin constructor
                continue
            for parameter in signature.parameters.values():
                if parameter.default is parameter.empty:
                    continue
                key = f"{name}.{parameter.name}"
                assert found.setdefault(key, obj) is obj, f"{key} names two objects"
    return set(found)


def cli_flags() -> set[str]:
    """``command --flag`` for every optional flag of every subcommand."""
    from repro.cli import build_parser

    (commands,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        f"{command} {max(action.option_strings, key=len)}"
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


def census_problems(
    options: set[str], flags: set[str], census: dict, root: Path = REPO
) -> list[str]:
    """Everything that keeps ``census`` from describing the tree at ``root``."""
    found = []
    for what, live, entries in (
        ("option", options, census["options"]),
        ("flag", flags, census["flags"]),
    ):
        found += [
            f"{what} {key} is not in the census" for key in sorted(live - set(entries))
        ]
        found += [
            f"{what} {key} no longer exists" for key in sorted(set(entries) - live)
        ]
    texts: dict[str, str] = {}
    for key, entry in {**census["options"], **census["flags"]}.items():
        reasons = [reason for reason in (*REASONS, "used_by") if reason in entry]
        if len(reasons) != 1 or set(entry) != {reasons[0], "text"}:
            found.append(f"{key}: needs one of {REASONS} (or used_by) and a text")
            continue
        path = entry[reasons[0]]
        in_tests = path.startswith("tests/")
        if reasons[0] in ("caller", "record", "deployment") and in_tests:
            found.append(f"{key}: a {reasons[0]} is not a test ({path})")
        if reasons[0] == "test-seam" and not in_tests:
            found.append(f"{key}: a test-seam names a test, not {path}")
        if path not in texts:
            file = root / path
            texts[path] = file.read_text() if file.is_file() else ""
        if entry["text"] not in texts[path]:
            found.append(f"{key}: {path} no longer contains {entry['text']!r}")
    return found


def test_the_census_describes_the_tree():
    census = json.loads(CENSUS.read_text())
    assert census_problems(exported_options(), cli_flags(), census) == []


def test_the_paper_inputs_are_cli_flags():
    census = json.loads(CENSUS.read_text())["options"]
    for name in ("alpha", "s", "n"):
        assert census[f"CopyParams.{name}"]["caller"] == "src/repro/cli.py"


def test_the_check_names_each_kind_of_drift(tmp_path):
    """An unlisted option, an unlisted flag, a vanished one, and an entry
    whose caller file is gone or stopped passing the option all fail."""
    (tmp_path / "caller.py").write_text("run(alpha=0.2)\n")
    census = {
        "options": {
            "f.alpha": {"caller": "caller.py", "text": "alpha=0.2"},
            "f.beta": {"caller": "caller.py", "text": "beta="},
            "f.gone": {"caller": "deleted.py", "text": "gone="},
            "f.seam": {"test-seam": "caller.py", "text": "run("},
        },
        "flags": {"run --old": {"used_by": "caller.py", "text": "run"}},
    }
    options = {"f.alpha", "f.beta", "f.gone", "f.seam", "f.new"}
    assert census_problems(options, {"run --new"}, census, tmp_path) == [
        "option f.new is not in the census",
        "flag run --new is not in the census",
        "flag run --old no longer exists",
        "f.beta: caller.py no longer contains 'beta='",
        "f.gone: deleted.py no longer contains 'gone='",
        "f.seam: a test-seam names a test, not caller.py",
    ]
