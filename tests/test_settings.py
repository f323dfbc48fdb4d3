"""The ``REPRO_*`` settings registry (:mod:`repro.settings`).

Pinned here:

* CLI/env parity, parametrized over every entry with a flag: an
  out-of-range flag value exits 2 naming the flag, the same text in the
  environment raises ``ConfigError`` naming the variable, and a valid
  flag value reaches the environment as text :func:`read` parses back
  to the same value -- so a new knob is covered by declaring it;
* the service, harness and test-suite knobs fail like every other knob
  (they used to accept or crash on malformed text);
* in ``src/`` only the registry reads ``REPRO_*`` variables.
"""

import os
import re
import subprocess
import sys

import pytest

from repro import cli, settings
from repro.experiments.common import ExperimentResult, make_runner
from repro.mapreduce import ParallelJobRunner
from repro.mapreduce.runtime.service import ServiceConfig
from repro.settings import SETTINGS, ConfigError, read

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``text`` knobs have a grammar, not a bound: (valid, invalid) examples
_TEXT_EXAMPLES = {"REPRO_SERVICE_TENANTS": ("alice:2:4,bob:1:2:1048576",
                                            "a:1:-2")}

FLAGGED = [pytest.param(command, s, id=f"{command}{s.flag}")
           for command in ("run", "serve", "tune")
           for s in settings.flagged(command)]


@pytest.fixture
def clean_env(monkeypatch):
    """No registry variable set on entry; the whole environment (which
    ``main`` writes directly) restored on exit."""
    saved = dict(os.environ)
    for s in SETTINGS:
        monkeypatch.delenv(s.name, raising=False)
    yield monkeypatch
    os.environ.clear()
    os.environ.update(saved)


@pytest.fixture
def no_work(monkeypatch):
    """``main`` applies its flags, then does nothing."""
    empty = ExperimentResult(experiment="NOOP", title="", columns=())
    monkeypatch.setattr(cli, "_registry",
                        lambda: {"NOOP": ("no-op", lambda: empty)})
    monkeypatch.setattr(cli, "_run_serve", lambda args, parser: 0)
    monkeypatch.setattr(cli, "_run_tune", lambda args, parser: 0)


def _invalid_text(s):
    """Text that breaks ``s``'s bound (``None``: no such flag text)."""
    if s.kind in ("int", "float"):
        if s.high is not None:
            return f"{s.high + 1:g}"
        return f"{s.above:g}" if s.low is None else f"{s.low - 1:g}"
    if s.kind == "choice":
        return "no-such-value"
    if s.kind == "text":
        return _TEXT_EXAMPLES[s.name][1]
    return None


def _valid_text(s, tmp_path):
    if s.kind in ("int", "float"):
        return f"{(s.above if s.low is None else s.low) + 1:g}"
    if s.kind == "choice":
        return [n for n in s.names() if n != s.default][0]
    if s.kind == "path":
        return str(tmp_path / s.name.lower())
    if s.kind == "text":
        return _TEXT_EXAMPLES[s.name][0]
    return None


def _flag_args(s, text):
    return [s.flag] if text is None else [s.flag, text]


def _argv(command, s, text, tmp_path):
    """``main`` arguments giving ``s`` as ``text`` plus the flags its
    ``requires`` rules need, transitively."""
    head = [command, "NOOP"] if command == "run" else [command]
    if command == "serve":
        head += ["--root", str(tmp_path / "service")]
    args = _flag_args(s, text)
    pending = list(s.requires)
    while pending:
        name, want = pending.pop(0)
        other = settings.get(name)
        if other.flag in args:
            continue
        if want is None:
            want = _valid_text(other, tmp_path)
        args += _flag_args(other, None if want is True else str(want))
        pending += other.requires
    return head + args


@pytest.mark.parametrize("command,s", FLAGGED)
def test_cli_rejects_out_of_range_flag(command, s, clean_env, no_work,
                                       tmp_path, capsys):
    text = _invalid_text(s)
    if text is None:
        pytest.skip(f"{s.kind} flag takes no value")
    with pytest.raises(SystemExit) as err:
        cli.main(_argv(command, s, text, tmp_path))
    assert err.value.code == 2
    assert s.flag in capsys.readouterr().err


@pytest.mark.parametrize("s", [s for s in SETTINGS if s.flag],
                         ids=lambda s: s.name)
def test_env_rejects_the_same_text(s, clean_env):
    text = _invalid_text(s) or ("maybe" if s.kind == "bool" else None)
    if text is None:
        pytest.skip("every path is valid")
    clean_env.setenv(s.name, text)
    with pytest.raises(ConfigError, match=re.escape(f"{s.name}={text!r}")):
        read(s.name)


@pytest.mark.parametrize("command,s", FLAGGED)
def test_cli_writes_env_that_reads_back(command, s, clean_env, no_work,
                                        tmp_path):
    text = _valid_text(s, tmp_path)
    assert cli.main(_argv(command, s, text, tmp_path)) == 0
    expected = True if text is None else s.parse(text)
    assert read(s.name) == expected


def test_env_satisfies_requires_rules(clean_env, no_work):
    clean_env.setenv("REPRO_RUNNER", "parallel")
    clean_env.setenv("REPRO_TRANSPORT", "network")
    assert cli.main(["run", "NOOP", "--task-timeout", "5",
                     "--wire-codec", "zlib"]) == 0
    assert read("REPRO_TASK_TIMEOUT") == 5.0


@pytest.mark.parametrize("argv,message", [
    (["--resume"], "--resume requires --recovery-dir"),
    (["--task-timeout", "1", "--worker-rlimit", "4096"],
     "--task-timeout, --worker-rlimit require --runner parallel"),
    (["--shuffle-port-base", "28000"],
     "--shuffle-port-base requires --transport network"),
    (["--no-pipeline", "--starvation-threshold", "3"],
     "--starvation-threshold requires --pipeline"),
])
def test_requires_rules_name_the_flags(argv, message, clean_env, no_work,
                                       capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "NOOP", *argv])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


# -- knobs that used to accept or crash on malformed text -------------------

@pytest.mark.parametrize("var,value", [
    ("REPRO_SERVICE_WORKERS", "0"),       # was a CPU-count pool
    ("REPRO_SERVICE_WORKERS", "-3"),      # was one worker
    ("REPRO_SERVICE_MAX_QUEUE", "abc"),   # were bare int()/float() errors
    ("REPRO_SERVICE_QUANTUM", "fast"),
    ("REPRO_SERVICE_TENANTS", "a:b:c"),
    ("REPRO_SERVICE_TENANTS", "a:1:-2"),  # failed later, in set_quota
    ("REPRO_SERVICE_TENANTS", "a:0:1"),
    ("REPRO_SERVICE_TENANTS", "a:1:1:0"),
    ("REPRO_SERVICE_TENANTS", "a:1"),
    ("REPRO_SERVICE_EXECUTORS", "0"),
    ("REPRO_SERVICE_MAX_MEMORY", "lots"),
    ("REPRO_SERVICE_MAX_JOB_SECONDS", "-1"),
])
def test_service_knobs_fail_naming_the_variable(var, value, clean_env,
                                                tmp_path):
    clean_env.setenv(var, value)
    with pytest.raises(ConfigError, match=re.escape(f"{var}={value!r}")):
        ServiceConfig.from_env(str(tmp_path))


def test_service_tenants_parse(clean_env, tmp_path):
    clean_env.setenv("REPRO_SERVICE_TENANTS", "alice:2:4, bob:1:2:1048576")
    clean_env.setenv("REPRO_SERVICE_WORKERS", "3")
    config = ServiceConfig.from_env(str(tmp_path))
    assert config.tenants == {"alice": (2.0, 4, None),
                              "bob": (1.0, 2, 1048576)}
    assert config.max_workers == 3
    assert config.admission.max_queued == 16


def test_serve_rejects_bad_tenants_before_starting(clean_env, tmp_path,
                                                   capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["serve", "--root", str(tmp_path), "--tenants", "a:1:-2"])
    assert err.value.code == 2
    assert "--tenants" in capsys.readouterr().err


def test_r6_seconds_is_bounded(clean_env):
    from repro.experiments import r6_service

    clean_env.setenv("REPRO_R6_SECONDS", "-5")
    with pytest.raises(ConfigError, match="REPRO_R6_SECONDS='-5'"):
        r6_service.run()


def test_test_timeout_is_parsed_strictly(clean_env):
    clean_env.setenv("REPRO_TEST_TIMEOUT", "abc")
    with pytest.raises(ConfigError, match="REPRO_TEST_TIMEOUT='abc'"):
        read("REPRO_TEST_TIMEOUT")
    clean_env.setenv("REPRO_TEST_TIMEOUT", "-1")
    with pytest.raises(ConfigError, match="REPRO_TEST_TIMEOUT='-1'"):
        read("REPRO_TEST_TIMEOUT")


def test_bad_test_timeout_names_the_variable_in_pytest():
    """The root conftest's watchdog reads the knob through the registry:
    a malformed value fails the test with the variable's name, not a
    bare ``float()`` error."""
    env = dict(os.environ, REPRO_TEST_TIMEOUT="abc",
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{os.path.abspath(__file__)}::test_resume_flag_value_parses"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "REPRO_TEST_TIMEOUT='abc'" in proc.stdout


def test_resume_flag_value_parses():
    assert settings.get("REPRO_RESUME").parse(" Yes ") is True


@pytest.mark.parametrize("value", ["maybe", "2"])
def test_resume_is_parsed_like_pipeline(value, clean_env, tmp_path):
    clean_env.setenv("REPRO_RUNNER", "parallel")
    clean_env.setenv("REPRO_RECOVERY_DIR", str(tmp_path))
    clean_env.setenv("REPRO_RESUME", value)
    with pytest.raises(ConfigError, match=f"REPRO_RESUME={value!r}"):
        make_runner()
    clean_env.setenv("REPRO_PIPELINE", value)
    with pytest.raises(ConfigError, match=f"REPRO_PIPELINE={value!r}"):
        read("REPRO_PIPELINE")


def test_resume_without_recovery_dir_is_an_error(clean_env):
    clean_env.setenv("REPRO_RUNNER", "parallel")
    clean_env.setenv("REPRO_RESUME", "1")
    with pytest.raises(ConfigError, match="REPRO_RECOVERY_DIR"):
        make_runner()


def test_resume_with_recovery_dir(clean_env, tmp_path):
    clean_env.setenv("REPRO_RUNNER", "parallel")
    clean_env.setenv("REPRO_RECOVERY_DIR", str(tmp_path))
    clean_env.setenv("REPRO_RESUME", "on")
    runner = make_runner()
    try:
        assert isinstance(runner, ParallelJobRunner)
        assert runner.resume is True
    finally:
        runner.close()


def test_registry_is_consistent():
    names = [s.name for s in SETTINGS]
    assert len(names) == len(set(names)) == 43
    for s in SETTINGS:
        assert s.kind in ("int", "float", "bool", "choice", "path", "text")
        assert (s.low is None) != (s.above is None) or \
            s.kind not in ("int", "float"), s.name
        if s.default is not None:
            assert s.violation(s.default) is None, s.name
        for name, _ in s.requires:
            assert settings.get(name).flag, (s.name, name)


def test_only_the_registry_reads_repro_variables():
    """``src/`` reads no ``REPRO_*`` variable around :func:`read` (writes,
    and the quarantine dir's save-and-restore in the matrix harness,
    are not knob reads)."""
    allowed = {"saved = os.environ.get(_QUARANTINE_VAR)"}
    reads = re.compile(r"environ\.get\(|getenv\(|environ\[[^\]]+\](?!\s*=)")
    found = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            if not name.endswith(".py") or name == "settings.py":
                continue
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if reads.search(line) and line.strip() not in allowed:
                        found.append(f"{name}: {line.strip()}")
    assert not found, found
