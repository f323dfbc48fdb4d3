"""The README env-var table and the source tree must agree.

README.md documents every ``REPRO_*`` knob with its default and range.
This test greps the source for every variable actually read and parses
the table, in both directions: an undocumented knob fails, and so does
a documented knob no code reads anymore (table rot).
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")

#: directories whose .py files may read REPRO_* variables
_SOURCE_DIRS = ("src", "benchmarks", "tests")
_VAR = re.compile(r"REPRO_[A-Z0-9_]+")


def _source_vars() -> set[str]:
    found: set[str] = set()
    for rel in _SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, rel)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in filenames:
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(dirpath, name),
                          encoding="utf-8") as fh:
                    found.update(_VAR.findall(fh.read()))
    with open(os.path.join(ROOT, "conftest.py"), encoding="utf-8") as fh:
        found.update(_VAR.findall(fh.read()))
    # Trailing-underscore matches are prefix mentions in prose
    # ("the REPRO_SERVICE_* knobs"), not variables.
    return {v for v in found if not v.endswith("_")}


def _documented_vars() -> set[str]:
    """Variables from the README table (rows whose first cell is a
    backticked REPRO_ name)."""
    documented: set[str] = set()
    with open(README, encoding="utf-8") as fh:
        for line in fh:
            match = re.match(r"\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|", line)
            if match:
                documented.add(match.group(1))
    return documented


def test_table_exists_with_required_columns():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    assert "## Environment variables" in text
    header = re.search(r"\| variable \| default \| range / values \| "
                       r"effect \|", text)
    assert header, "env table header row missing or reworded"


def test_every_source_var_is_documented():
    missing = _source_vars() - _documented_vars()
    assert not missing, (
        f"REPRO_* variables read in code but absent from the README "
        f"'Environment variables' table: {sorted(missing)}")


def test_every_documented_var_is_read_somewhere():
    stale = _documented_vars() - _source_vars()
    assert not stale, (
        f"README documents REPRO_* variables nothing reads anymore: "
        f"{sorted(stale)}")


def test_service_knobs_documented():
    """The service's own knobs (this PR's surface) are all present."""
    documented = _documented_vars()
    for var in ("REPRO_SERVICE_ROOT", "REPRO_SERVICE_WORKERS",
                "REPRO_SERVICE_EXECUTORS", "REPRO_SERVICE_MAX_QUEUE",
                "REPRO_SERVICE_TENANT_QUEUE",
                "REPRO_SERVICE_MAX_JOB_SECONDS",
                "REPRO_SERVICE_MAX_OUTSTANDING_SECONDS",
                "REPRO_SERVICE_TENANTS", "REPRO_SERVICE_QUANTUM"):
        assert var in documented, var


# -- the tables rendered from the settings registry --------------------------
#
# README cells are checked against repro.settings, so a knob's default,
# range and doc are written in one place and the tables cannot drift.

def _default_cell(s) -> str:
    if s.default is None:
        return f"unset ({s.unset})"
    if s.default is False:
        return "off"
    return f"`{s.default:g}`" if isinstance(s.default, float) \
        else f"`{s.default}`"


def _range_cell(s) -> str:
    if s.kind in ("bool", "path"):
        return {"bool": "boolean", "path": "path"}[s.kind]
    if s.kind == "choice" and isinstance(s.choices, tuple):
        return " / ".join(f"`{c}`" for c in s.choices)
    if s.kind in ("int", "float"):
        if s.high is not None:
            bound = f"{s.kind} {s.low:g}–{s.high:g}"
        elif s.low is not None:
            bound = f"{s.kind} ≥ {s.low:g}"
        else:
            bound = f"{s.kind} > {s.above:g}"
        return f"{bound} {s.note}".strip()
    return s.note  # a text grammar, or a lazily listed choice


def _flag_cell(s) -> str:
    if s.kind != "bool":
        return f"`{s.flag} {s.metavar}`"
    negation = f" / `--no-{s.flag[2:]}`" if s.negatable else ""
    return f"`{s.flag}`{negation}"


def _effect_cell(s) -> str:
    from repro.settings import get

    rules = " and ".join(f"`{get(name).flag_for(value)}`"
                         for name, value in s.requires)
    return f"{s.doc} (requires {rules})" if rules else s.doc


def _table_rows(first_cell: str) -> dict[str, list[str]]:
    """README table rows whose first cell matches ``first_cell``, keyed
    by the backticked ``REPRO_`` name in the row."""
    rows: dict[str, list[str]] = {}
    with open(README, encoding="utf-8") as fh:
        for line in fh:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if not line.startswith("|") or not re.fullmatch(first_cell,
                                                            cells[0]):
                continue
            name = re.search(r"`(REPRO_[A-Z0-9_]+)`", line).group(1)
            rows[name] = cells
    return rows


def test_env_table_matches_the_registry():
    from repro.settings import SETTINGS

    rows = _table_rows(r"`REPRO_[A-Z0-9_]+`")
    assert list(rows) == [s.name for s in SETTINGS]
    for s in SETTINGS:
        assert rows[s.name][1:] == [_default_cell(s), _range_cell(s),
                                    s.doc], s.name


def test_flag_table_matches_the_registry():
    from repro.settings import flagged

    rows = _table_rows(r"`--.*")
    run_flags = flagged("run")
    assert list(rows) == [s.name for s in run_flags]
    for s in run_flags:
        assert rows[s.name] == [_flag_cell(s), f"`{s.name}`",
                                _effect_cell(s)], s.name


def test_ci_sets_only_registered_knobs():
    """Every REPRO_* name CI sets is a registry entry, so CI cannot set
    a knob nothing reads.  ``REPRO_${{ matrix.id }}_X`` is expanded over
    the chaos matrix's ids."""
    from repro.settings import SETTINGS

    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml"),
              encoding="utf-8") as fh:
        text = fh.read()
    names = {v for v in _VAR.findall(text) if not v.endswith("_")}
    ids = re.findall(r"\bid: (\w+)", text)
    suffixes = re.findall(r"REPRO_\$\{\{ matrix\.id \}\}_([A-Z0-9_]+)", text)
    assert ids and suffixes
    names |= {f"REPRO_{i}_{suffix}" for i in ids for suffix in suffixes}
    assert names - {s.name for s in SETTINGS} == set()
    assert {"REPRO_CHAOS_SEEDS", "REPRO_TEST_TIMEOUT", "REPRO_R6_SECONDS",
            "REPRO_R2_FUZZ", "REPRO_R7_SECONDS"} <= names
