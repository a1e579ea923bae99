"""Configs that would switch off a safeguard are refused, not obeyed.

* ``ServiceConfig``: ``asyncio.Queue(maxsize=0)`` has no size limit, so
  ``max_pending=0`` would admit everything, and ``max_concurrency=0``
  would queue jobs that never run.  Both (and a sub-token burst under a
  live rate limit, and a negative run deadline) raise ``ServeError``;
  ``repro serve`` and ``serve-bench`` print ``error: ...`` and exit 1.
* ``run_sweep``: ``max_workers`` below 1 raises ``EngineError``
  instead of a ``ProcessPoolExecutor`` traceback (or a silent "auto"
  for ``max_workers=0``); ``lab run --workers`` reports it like every
  other CLI error.
* ``lab run`` / ``lab check --grid``: a family param its ``build``
  cannot use (``n=abc``) raises ``LabError`` naming the family and its
  params, so both commands print ``error: ...`` and exit 1 instead of a
  traceback.
* The retired ``analytic`` engine name: the closed form is the
  ``fast_path`` tier of ``herlihy``, so ``Sweep().add("analytic", ...)``
  raises ``UnknownEngineError`` and ``lab run`` / ``lab check --engine
  analytic`` print ``error: ...`` naming the six engines and exit 1.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.api import Scenario, Sweep, get_engine, list_engines, run_sweep
from repro.digraph.generators import triangle
from repro.errors import EngineError, ServeError, UnknownEngineError
from repro.serve.service import ServiceConfig


@pytest.fixture
def no_daemon(monkeypatch):
    """Fail instead of serving if a refused config gets as far as a
    running daemon (``serve`` would otherwise block forever)."""

    def refuse(*args, **kwargs):
        for arg in args:
            getattr(arg, "close", lambda: None)()  # the unawaited coroutine
        raise AssertionError("the config was accepted and a daemon started")

    monkeypatch.setattr("repro.serve.http.asyncio.run", refuse)
    monkeypatch.setattr(
        "repro.serve.client.BackgroundServer.__enter__", refuse
    )


class TestServiceConfig:
    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"max_pending": 0}, "max_pending"),
            ({"max_pending": -1}, "max_pending"),
            ({"max_concurrency": 0}, "max_concurrency"),
            ({"rate": 1.0, "burst": 0.5}, "burst"),
            ({"max_run_seconds": -1.0}, "max_run_seconds"),
        ],
    )
    def test_refuses(self, overrides, field):
        with pytest.raises(ServeError, match=field):
            ServiceConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"max_pending": 1, "max_concurrency": 1},
            {"rate": 0.0, "burst": 0.0},  # burst is moot without a rate
            {"rate": 1.0, "burst": 1.0},
            {"max_run_seconds": 0.0},
            {"max_run_seconds": None},
        ],
    )
    def test_accepts(self, overrides):
        ServiceConfig(**overrides)

    @pytest.mark.parametrize("command", ["serve", "serve-bench"])
    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--queue-depth", "0"], "max_pending"),
            (["--concurrency", "0"], "max_concurrency"),
        ],
    )
    def test_cli_reports_error_and_exits_1(
        self, command, flags, field, capsys, no_daemon
    ):
        assert main([command, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and field in captured.err
        assert "listening" not in captured.out

    def test_serve_refuses_sub_token_burst(self, capsys, no_daemon):
        assert main(["serve", "--rate", "5", "--burst", "0.5"]) == 1
        assert "burst must be >= 1" in capsys.readouterr().err


def _sweep() -> Sweep:
    sweep = Sweep("validation")
    for seed in range(2):
        sweep.add("herlihy", Scenario(topology=triangle(), seed=seed))
    return sweep


class TestRunSweepWorkers:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"max_workers": 0}, "max_workers"),
            ({"max_workers": -2}, "max_workers"),
        ],
    )
    @pytest.mark.parametrize("parallel", [True, False])
    def test_refuses_below_one(self, kwargs, field, parallel):
        with pytest.raises(EngineError, match=f"{field} must be >= 1"):
            run_sweep(_sweep(), parallel=parallel, **kwargs)

    def test_accepts_one(self):
        report = run_sweep(_sweep(), max_workers=1)
        assert len(report.reports) == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_lab_run_reports_error_and_exits_1(self, workers, capsys):
        code = main([
            "lab", "run", "--family", "cycle", "--grid", "n=3",
            "--workers", workers, "--store", ":memory:",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: max_workers must be >= 1, got {workers}\n"


class TestFamilyParams:
    @pytest.mark.parametrize(
        "command",
        [
            ["lab", "run", "--serial", "--store", ":memory:"],
            ["lab", "check"],
        ],
    )
    def test_unbuildable_param_reports_error_and_exits_1(self, command, capsys):
        code = main([*command, "--family", "cycle", "--grid", "n=abc"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: family 'cycle' cannot build params ")
        assert "'n': 'abc'" in err


class TestServeBenchInputs:
    """``serve-bench`` with no scenario or no client has nothing to
    measure (its p50 latency would be ``None``): refused up front."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--scenarios", "0"], "--scenarios must be >= 1, got 0"),
            (["--scenarios", "-3"], "--scenarios must be >= 1, got -3"),
            (["--scenarios", "4", "--clients", "0"], "--clients must be >= 1, got 0"),
        ],
    )
    def test_reports_error_and_exits_1(self, flags, message, capsys, no_daemon):
        assert main(["serve-bench", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRetiredAnalyticEngine:
    ENGINES = "2pc, herlihy, multiswap, naive-timelock, sequential-trust, single-leader"

    def test_registry_holds_the_six_protocols(self):
        assert ", ".join(list_engines()) == self.ENGINES
        with pytest.raises(UnknownEngineError):
            get_engine("analytic")

    def test_sweep_add_refuses_it(self):
        with pytest.raises(UnknownEngineError, match="unknown engine 'analytic'"):
            Sweep().add("analytic", Scenario(triangle()))

    @pytest.mark.parametrize(
        "command",
        [
            ["lab", "run", "--serial", "--store", ":memory:"],
            ["lab", "check"],
        ],
    )
    def test_lab_reports_error_and_exits_1(self, command, capsys):
        code = main([*command, "--family", "cycle", "--grid", "n=3",
                     "--engine", "analytic"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: unknown engine 'analytic'; registered engines: {self.ENGINES}\n"
        )
