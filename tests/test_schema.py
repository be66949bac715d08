"""The config schema's interpreter against jsonschema, which words refusals only."""

import copy
import json
import os
import subprocess
import sys
import tempfile
from functools import cache

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detchain.cli import _KEYWORDS, CONFIG_SCHEMA, _conforms

from .conftest import CONFIG_DIR, REPO_ROOT, perfbench_module

ANNOTATIONS = {"$schema", "title"}


def keywords(schema):
    """Every keyword used anywhere in a schema."""
    found = set(schema)
    for key, arg in schema.items():
        subs = (arg.values() if key == "properties" else arg if key == "oneOf"
                else [arg] if isinstance(arg, dict) else [])
        for sub in subs:
            found |= keywords(sub)
    return found


def test_interpreter_implements_every_keyword_of_the_schema():
    assert keywords(CONFIG_SCHEMA) - ANNOTATIONS <= set(_KEYWORDS)


@pytest.mark.parametrize("schema, values", [
    ({"type": "number"}, [True, 1, 1.5, "1", None]),
    ({"type": "integer"}, [False, 2, 2.0, 2.5, float("inf"), "2"]),
    ({"minimum": 1}, ["0", 0, False, True, 0.5, 1.0, [0]]),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, [1, 1.0, 1.5, "x"]),
    ({"const": 1}, [1, 1.0, True, "1"]),
    ({"enum": ["a", 0]}, ["a", 0, 0.0, False, None]),
    ({"required": ["a"], "additionalProperties": False, "properties": {"a": {}}},
     [{}, {"a": 1}, {"a": 1, "b": 2}, [], "a"]),
    ({"items": {"type": "null"}, "minItems": 1, "maxItems": 2},
     [[], [None], [None, None, None], [1], {"a": None}]),
])
def test_keyword_semantics_are_draft_2020_12(schema, values):
    """bool is not a number, 2.0 is an integer, minimum applies only to
    numbers, oneOf needs exactly one match, and each keyword passes values
    of the types it does not apply to."""
    validator = jsonschema.Draft202012Validator(schema)
    for value in values:
        assert _conforms(value, schema) == validator.is_valid(value), value


@cache
def base_configs():
    """The bundled configs and a few of each benchmark workload's configs."""
    raws = [json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))]
    workloads = perfbench_module("workloads").WORKLOADS
    with tempfile.TemporaryDirectory() as workdir:
        for name, cycles in (("gl_chain", [0]), ("discrete_verify", [1, 2, 3]),
                             ("mcmc", [1, 2])):
            workload = workloads[name](1, workdir)
            raws += [json.loads(workload.config_for(c).read_text()) for c in cycles]
    return raws


def places(value, path=()):
    """The path of every value inside a JSON value, the root included."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from places(item, path + (key,))


REPLACEMENTS = [True, False, None, "x", "", [], {}, [1.5], {"n": 1}, -1, 0, 2, 0.5, 2.5, 3.0]
# a fresh copy each time: a shared list would grow, or come to hold itself
replacements = st.sampled_from(REPLACEMENTS).map(copy.deepcopy)
NEW_KEYS = ["kind", "n", "vectors", "steps", "extra"]


@st.composite
def mutated_configs(draw):
    """A base config with one to three values replaced (by bools, integral
    floats, strings, nulls, lists, dicts or numbers), keys dropped or added,
    or items appended."""
    raw = copy.deepcopy(draw(st.sampled_from(base_configs())))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(places(raw))))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]] if path else raw
        action = draw(st.sampled_from(["replace", "drop", "add", "append"]))
        if action == "replace" and path:
            parent[path[-1]] = draw(replacements | st.just(float(value))
                                    if type(value) is int else replacements)
        elif action == "drop" and path and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == "add" and isinstance(value, dict):
            value[draw(st.sampled_from(NEW_KEYS))] = draw(replacements)
        elif action == "append" and isinstance(value, list):
            value.append(copy.deepcopy(value[-1]) if value and draw(st.booleans())
                         else draw(replacements))
    return raw


VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


@settings(max_examples=400, deadline=None)
@given(mutated_configs())
def test_interpreter_decides_as_jsonschema(raw):
    assert _conforms(raw, CONFIG_SCHEMA) == VALIDATOR.is_valid(raw)


def run_cli(*args):
    """``detchain`` in a fresh process; prints the exit code and whether
    jsonschema was imported as its last stdout line."""
    script = ("import sys\nfrom detchain.cli import main\ncode = main(sys.argv[1:])\n"
              "print(code, 'jsonschema' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_jsonschema_is_imported_only_to_word_a_refusal(tmp_path):
    valid = run_cli("gap", "--config", CONFIG_DIR / "discrete_m2n2.json")
    assert valid.stdout.splitlines()[-1] == "0 False"
    raw = {"chain": {"family": "monomial_exponential", "m": True, "N": 1},
           "grids": [{"kind": "discrete", "points": [0.0], "masses": [1.0]}]}
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    loc = "/".join(str(p) for p in expected.value.absolute_path)
    refused = run_cli("gap", "--config", path)
    assert refused.stdout.splitlines()[-1] == "2 True"
    assert refused.stderr == f"config error: {path}: field {loc}: {expected.value.message}\n"
