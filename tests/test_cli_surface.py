"""The command-line surface, pinned option by option.

Walks the parsers ``python -m repro lab``, ``serve`` and ``serve-bench``
build (every subcommand, nested ones included) and compares each
command's options and positionals against a literal table: for an
option, its action, type, nargs and default; for a positional, its
nargs.  A refactor of the CLI layer may reorder or regroup arguments,
but it must not add, drop, rename or re-default any of them.

The parsers are captured through the public ``repro.__main__.main``
entry point, so the test does not depend on how each module builds its
parser.  Also covers two ``lab check`` behaviours: the ``--strict``
exit code and the ``--json`` payload shape.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.__main__ import main

STORE = ".lab/runs.sqlite"
WORKLOAD_TARGET = {
    "--preset": ("store", None, None, None),
    "--family": ("store", None, None, None),
    "--grid": ("store", None, "*", []),
    "--mix": ("append", None, None, None),
    "--engine": ("append", None, None, None),
    "--timing": ("append", None, None, None),
    "--seed": ("store", "int", None, None),
}
LEASE = {
    "--lease-ttl": ("store", "float", None, 30.0),
    "--skew-grace": ("store", "float", None, 5.0),
    "--chunk-size": ("store", "int", None, 4),
}
FLAG = ("store_true", None, 0, False)
JSON = {"--json": FLAG}
STORE_ARG = {"--store": ("store", None, None, STORE)}

SURFACE: dict[str, dict[str, tuple]] = {
    "lab": {},
    "lab run": {
        **WORKLOAD_TARGET,
        "--progress": FLAG,
        "--fast-path": FLAG,
        "--serial": FLAG,
        "--workers": ("store", "int", None, None),
        "--fleet": ("store", "int", None, 0),
        **LEASE,
        "--no-store": FLAG,
        **STORE_ARG,
    },
    "lab check": {
        **WORKLOAD_TARGET,
        "--verify": FLAG,
        "--fast-path": FLAG,
        "--strict": FLAG,
        **JSON,
        **STORE_ARG,
    },
    "lab bisect": {
        "--knob": ("store", None, None, "violation"),
        "--family": ("append", None, None, None),
        "--grid": ("store", None, "*", []),
        "--engine": ("store", None, None, "herlihy"),
        "--timing-kind": ("store", None, None, "stragglers"),
        "--seeds": ("store", "int", None, 3),
        "--lo": ("store", "float", None, 1.05),
        "--hi": ("store", "float", None, 6.0),
        "--iters": ("store", "int", None, 8),
        **JSON,
    },
    "lab ls": {
        "--engine": ("store", None, None, None),
        "--limit": ("store", "int", None, 0),
        **STORE_ARG,
    },
    "lab show": {**JSON, **STORE_ARG, "key": ("positional", None)},
    "lab diff": {
        **STORE_ARG,
        "a": ("positional", None),
        "b": ("positional", None),
    },
    "lab stats": {
        "--by": ("store", None, None, "engine"),
        "--engine": ("append", None, None, None),
        "--compare": ("store", None, 2, None),
        **JSON,
        **STORE_ARG,
    },
    "lab work": {
        "--worker-id": ("store", None, None, None),
        "--fast-path": FLAG,
        "--max-chunks": ("store", "int", None, None),
        **JSON,
        **LEASE,
        **STORE_ARG,
    },
    "lab fleet": {},
    "lab fleet status": {**JSON, **STORE_ARG},
    "lab merge": {
        "dest": ("positional", None),
        "sources": ("positional", "+"),
    },
    "lab export": {**STORE_ARG, "dest": ("positional", None)},
    "lab families": {},
    "lab mixes": {},
    "lab timings": {},
    "lab presets": {},
    "serve": {
        "--host": ("store", None, None, "127.0.0.1"),
        "--port": ("store", "int", None, 8642),
        "--store": ("store", None, None, ":memory:"),
        "--concurrency": ("store", "int", None, 4),
        "--queue-depth": ("store", "int", None, 64),
        "--rate": ("store", "float", None, 50.0),
        "--burst": ("store", "float", None, 100.0),
        "--max-run-seconds": ("store", "float", None, 30.0),
        "--engine": ("store", None, None, "herlihy"),
        "--fast-path": FLAG,
    },
    "serve-bench": {
        "--scenarios": ("store", "int", None, 64),
        "--clients": ("store", "int", None, 4),
        "--concurrency": ("store", "int", None, 4),
        "--queue-depth": ("store", "int", None, 64),
        "--rate": ("store", "float", None, 0.0),
        "--engine": ("store", None, None, "herlihy"),
        "--store": ("store", None, None, ":memory:"),
        "--json": ("store", None, None, ""),
    },
}

_ACTION_NAMES = {
    argparse._StoreAction: "store",
    argparse._StoreTrueAction: "store_true",
    argparse._AppendAction: "append",
}


class _Captured(Exception):
    pass


def _parser_for(command: str, monkeypatch) -> argparse.ArgumentParser:
    """The parser ``python -m repro <command>`` parses its argv with."""
    seen: list[argparse.ArgumentParser] = []

    def capture(self, args=None, namespace=None):
        seen.append(self)
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_args", capture)
        with pytest.raises(_Captured):
            main([command])
    return seen[0]


def _walk(parser: argparse.ArgumentParser, name: str, out: dict) -> None:
    spec: dict[str, tuple] = {}
    out[name] = spec
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            assert action.required, f"{name}: a subcommand must be required"
            for child_name, child in action.choices.items():
                _walk(child, f"{name} {child_name}", out)
        elif action.option_strings:
            (option,) = action.option_strings
            spec[option] = (
                _ACTION_NAMES[type(action)],
                getattr(action.type, "__name__", None),
                action.nargs,
                action.default,
            )
        else:
            spec[action.dest] = ("positional", action.nargs)


@pytest.fixture
def surface(monkeypatch) -> dict[str, dict[str, tuple]]:
    out: dict[str, dict[str, tuple]] = {}
    for command in ("lab", "serve", "serve-bench"):
        _walk(_parser_for(command, monkeypatch), command, out)
    return out


def test_every_command_is_pinned(surface):
    assert sorted(surface) == sorted(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_command_surface(surface, command):
    assert surface[command] == SURFACE[command]


class TestCheckExitAndPayload:
    def test_strict_turns_error_diagnostics_into_exit_1(self, capsys):
        # `chain` is not strongly connected: an error-severity diagnostic.
        assert main(["lab", "check", "--family", "chain"]) == 0
        assert "1 with errors" in capsys.readouterr().out
        assert main(["lab", "check", "--family", "chain", "--strict"]) == 1
        assert main(["lab", "check", "--family", "cycle", "--strict"]) == 0

    def test_json_payload_shape(self, capsys):
        assert main(["lab", "check", "--preset", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["checks"]
        checks = payload["checks"]
        assert len(checks) == 12
        assert {c["engine"] for c in checks} == {
            "2pc", "herlihy", "multiswap", "naive-timelock",
            "sequential-trust", "single-leader",
        }
        for check in checks:
            assert set(check) == {"engine", "scenario", "analysis"}
            assert set(check["analysis"]) == {
                "coverage", "diagnostics", "engine", "ok", "prediction",
                "verdict",
            }
            assert check["analysis"]["engine"] == check["engine"]
