import copy
import csv
import json
import re
import sys

import pytest

import detchain
from detchain.cli import CONFIG_SCHEMA, _digest, main, parse_instance
from detchain.instances import monomial_discrete_config, random_discrete_instance

from .conftest import (
    BUNDLED_DISCRETE,
    CONFIG_DIR,
    REPO_ROOT,
    perfbench_module,
    soft_m2n2,
    zero_gap_m2n2,
)


def run(args):
    return main([str(a) for a in args])


def config_path(name):
    return CONFIG_DIR / f"{name}.json"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", BUNDLED_DISCRETE + ["gauss_chain"])
def test_check_bundled_instances_pass(tmp_path, name):
    out = tmp_path / "check.csv"
    code = run(["check", "--config", config_path(name), "--out", out])
    assert code == 0
    rows = read_csv(out)
    assert all(r["status"] == "pass" for r in rows)
    assert all(r["instance"] and r["tolerance"] for r in rows)


def test_gap_with_empty_intervals_prints_one(tmp_path, capsys):
    cfg = json.loads(config_path("discrete_m1n2").read_text())
    cfg["weights"] = {"intervals": [[]], "kappas": [[]]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(cfg))
    assert run(["gap", "--config", path]) == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_counts_probabilities_sum_to_one(tmp_path):
    out = tmp_path / "counts.csv"
    assert run(["counts", "--config", config_path("discrete_m2n2"),
                "--out", out]) == 0
    rows = read_csv(out)
    total = sum(float(r["probability"]) for r in rows)
    assert abs(total - 1.0) <= 1e-8
    assert {"count_1", "count_2"} <= set(rows[0])


def test_janossy_and_correlate_run(tmp_path, capsys):
    for command in ("janossy", "correlate"):
        out = tmp_path / f"{command}.csv"
        assert run([command, "--config", config_path("discrete_m2n2"),
                    "--out", out]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value > 0
        assert read_csv(out)[0]["value"]


def test_oracle_command_passes():
    for name in ("discrete_m1n2", "discrete_m2n2", "discrete_m3n2"):
        assert run(["oracle", "--config", config_path(name)]) == 0


def _points_outside_the_sets():
    """discrete_m2n2 with its task points on nodes its indicator sets leave out."""
    raw = json.loads(config_path("discrete_m2n2").read_text())
    raw["task"]["points"] = [[0], [1]]
    return raw


@pytest.mark.parametrize("raw, rows", [(soft_m2n2(), 3), (_points_outside_the_sets(), 4),
                                       (zero_gap_m2n2(), 3)],
                         ids=["soft_weights", "points_outside_the_sets", "zero_gap"])
def test_janossy_and_oracle_take_any_weights_and_points(tmp_path, capsys, raw, rows):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert run(["janossy", "--config", path]) == 0
    value = float(capsys.readouterr().out)
    out = tmp_path / "oracle.csv"
    assert run(["oracle", "--config", path, "--out", out]) == 0
    verdicts = capsys.readouterr().out.splitlines()[1:]
    assert len(verdicts) == rows and all(v.startswith("PASS") for v in verdicts)
    library = {r["quantity"]: float(r["library"]) for r in read_csv(out)}
    assert library["janossy_density"] == value


@pytest.mark.parametrize("raw, reason", [
    (None, "discrete grids"),
    (monomial_discrete_config(1, 3, 2, (60, 60, 60)), "exceed the cap"),
])
def test_oracle_on_non_enumerable_instance_is_config_error(tmp_path, capsys, raw, reason):
    path = config_path("gauss_chain")
    if raw is not None:
        path = tmp_path / "large.json"
        path.write_text(json.dumps(raw))
    assert run(["oracle", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and reason in err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"chain": ')
    assert run(["gap", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_schema_violation_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grids": []}))
    assert run(["gap", "--config", path]) == 2
    assert "chain" in capsys.readouterr().err


def test_semantic_config_error_exits_2(tmp_path, capsys):
    cfg = json.loads(config_path("discrete_m1n2").read_text())
    cfg["weights"] = {"vectors": [[0.0, 0.0]]}  # wrong length
    path = tmp_path / "bad_vectors.json"
    path.write_text(json.dumps(cfg))
    assert run(["gap", "--config", path]) == 2


def _tabulated_with_one_row(cfg):
    """discrete_m1n2 as a tabulated family whose f and h have one row for N = 2."""
    tables = parse_instance(cfg).tables
    cfg["chain"] = {"family": "tabulated", "m": 1, "N": 2, "tables": {
        "f": tables.f_values[:1].tolist(), "h": tables.h_values[:1].tolist(), "g": []}}


def _repeat_a_point(cfg):
    points = cfg["grids"][0]["points"]
    points[1] = points[0]


def _burn_in_at_steps(cfg):
    sampler = cfg["task"]["sampler"]
    sampler["burn_in"] = sampler["steps"]


@pytest.mark.parametrize("command, mutate, fragment", [
    ("gap", lambda cfg: cfg["grids"].append(cfg["grids"][0]),
     "field grids: expected 1 entries, got 2"),
    ("gap", lambda cfg: cfg["chain"].update(family="tabulated"),
     "field chain: tabulated family needs explicit tables"),
    ("gap", _tabulated_with_one_row, "field chain/tables/f: 1 rows but N = 2"),
    ("gap", lambda cfg: cfg.update(weights={"intervals": [[[0.0, 2.0], [1.0, 3.0]]],
                                            "kappas": [[1.0, 1.0]]}),
     "intervals overlap near 1.0"),
    ("gap", _repeat_a_point, "discrete grid points must be distinct"),
    ("counts", lambda cfg: cfg.update(weights=None),
     "counts needs interval-type weights in the config"),
    ("sample", lambda cfg: cfg["task"].pop("sampler"),
     "sample needs task.sampler in the config"),
    ("gap", _burn_in_at_steps, "field task/sampler"),
    ("sample", _burn_in_at_steps, "field task/sampler"),
], ids=["grids_count", "tabulated_without_tables", "tables_f_rows", "overlapping_intervals",
        "repeated_point", "counts_without_intervals", "sample_without_sampler",
        "burn_in_at_steps_gap", "burn_in_at_steps_sample"])
def test_config_error_branches_exit_2(tmp_path, capsys, command, mutate, fragment):
    cfg = json.loads(config_path("discrete_m1n2").read_text())
    mutate(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and fragment in err


def _level_sizes(cfg):
    return [g["n"] if g["kind"] == "gauss_legendre" else len(g["points"])
            for g in cfg["grids"]]


def _upper_halves(cfg):
    """Per level, one interval holding the upper half of the grid's nodes."""
    halves = []
    for g in cfg["grids"]:
        if g["kind"] == "gauss_legendre":
            low, high = g["interval"]
            halves.append([[(low + high) / 2, high + 1.0]])
        else:
            points = sorted(g["points"])
            halves.append([[points[len(points) // 2], points[-1] + 1.0]])
    return halves


WEIGHT_FORMS = {
    "null": lambda cfg: None,
    "soft_vectors": lambda cfg: {"vectors": [[0.3] * n for n in _level_sizes(cfg)]},
    "indicator_vectors": lambda cfg: {
        "vectors": [[float(i % 2) for i in range(n)] for n in _level_sizes(cfg)]},
    "intervals_kappa_1": lambda cfg: {
        "intervals": _upper_halves(cfg), "kappas": [[1.0]] * cfg["chain"]["m"]},
    "intervals_kappa_half": lambda cfg: {
        "intervals": _upper_halves(cfg), "kappas": [[0.5]] * cfg["chain"]["m"]},
}


@pytest.mark.parametrize("name", ["discrete_m1n2", "discrete_m2n2", "discrete_m3n2",
                                  "gauss_chain"])
def test_no_config_crashes_the_cli(tmp_path, capsys, name):
    # five weight forms with a short sampler, and one sampler whose burn-in
    # swallows every step; each command ends in an exit code, never a traceback
    base = json.loads(config_path(name).read_text())
    configs = []
    for form, weights in WEIGHT_FORMS.items():
        cfg = json.loads(json.dumps(base))
        cfg["weights"] = weights(cfg)
        cfg.setdefault("task", {})["sampler"] = {"steps": 300, "burn_in": 30, "seed": 1}
        configs.append((form, cfg))
    cfg = json.loads(json.dumps(base))
    cfg.setdefault("task", {})["sampler"] = {"steps": 300, "burn_in": 300, "seed": 1}
    configs.append(("burn_in_at_steps", cfg))
    for form, cfg in configs:
        path = tmp_path / f"{form}.json"
        path.write_text(json.dumps(cfg))
        for command in ("check", "gap", "janossy", "correlate", "counts", "sample",
                        "oracle"):
            code = run([command, "--config", path])
            assert code in (0, 1, 2, 3), (form, command, code)
    capsys.readouterr()


def test_numerical_failure_exits_3(tmp_path, capsys):
    cfg = json.loads(config_path("discrete_m1n2").read_text())
    n = len(cfg["grids"][0]["points"])
    cfg["weights"] = {"vectors": [[1.0] * n]}  # (1 - w) = 0 kills the pairing
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(cfg))
    assert run(["check", "--config", path]) == 3
    assert "SingularPairing" in capsys.readouterr().err


def test_every_error_class_has_a_raise_site():
    # the base class is only caught; every other class must be raised somewhere
    source = "\n".join(p.read_text() for p in (REPO_ROOT / "src" / "detchain").glob("*.py"))
    for name, cls in vars(detchain.errors).items():
        if isinstance(cls, type) and issubclass(cls, detchain.DetchainError) \
                and cls is not detchain.DetchainError:
            assert re.search(rf"raise {name}\b", source), name


def test_sample_outputs_are_byte_identical(tmp_path):
    cfg = json.loads(config_path("discrete_m2n2").read_text())
    cfg["task"]["sampler"] = {"steps": 3000, "burn_in": 300, "seed": 21}
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sample", "--config", path, "--out", out1]) == 0
    assert run(["sample", "--config", path, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    out3 = tmp_path / "c.csv"
    assert run(["sample", "--config", path, "--out", out3, "--seed", "22"]) == 0
    assert out1.read_bytes() != out3.read_bytes()

    # the parser is shared between calls: an earlier --seed must not stick
    out4 = tmp_path / "d.csv"
    assert run(["sample", "--config", path, "--out", out4]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_counts_outputs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["counts", "--config", config_path("discrete_m2n2"), "--out", out1])
    run(["counts", "--config", config_path("discrete_m2n2"), "--out", out2])
    assert out1.read_bytes() == out2.read_bytes()


def test_tabulated_family_roundtrip(tmp_path, capsys):
    inst = parse_instance(json.loads(config_path("discrete_m1n2").read_text()))
    cfg = {
        "chain": {
            "family": "tabulated",
            "m": 1,
            "N": 2,
            "tables": {
                "f": inst.tables.f_values.tolist(),
                "h": inst.tables.h_values.tolist(),
                "g": [],
            },
        },
        "grids": [{
            "kind": "discrete",
            "points": inst.tables.grids[0].nodes.tolist(),
            "masses": inst.tables.grids[0].weights.tolist(),
        }],
        "weights": None,
    }
    path = tmp_path / "tabulated.json"
    path.write_text(json.dumps(cfg))
    assert run(["gap", "--config", path]) == 0
    assert capsys.readouterr().out.strip() == "1.0"  # zero weights


def test_missing_task_points_is_config_error(tmp_path):
    cfg = json.loads(config_path("discrete_m1n2").read_text())
    del cfg["task"]["points"]
    path = tmp_path / "nopoints.json"
    path.write_text(json.dumps(cfg))
    assert run(["correlate", "--config", path]) == 2


def test_schema_matches_published_copy():
    from detchain.cli import CONFIG_SCHEMA

    published = json.loads((CONFIG_DIR.parent / "docs" / "config_schema.json").read_text())
    assert published == CONFIG_SCHEMA


@pytest.mark.parametrize("command", ["janossy", "correlate", "oracle"])
@pytest.mark.parametrize("points", [[[0], [99]], [[0, 1, 2], [0]], [[0], [0], [0]]],
                         ids=["index_out_of_range", "more_than_N", "extra_level"])
def test_bad_task_points_is_config_error(tmp_path, capsys, command, points):
    cfg = json.loads(config_path("discrete_m2n2").read_text())
    cfg["task"]["points"] = points
    path = tmp_path / "bad_points.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", path]) == 2
    assert "task/points" in capsys.readouterr().err


def test_config_schema_is_valid_2020_12():
    import jsonschema

    from detchain.cli import CONFIG_SCHEMA

    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


@pytest.mark.parametrize("raw", [
    {"grids": []},
    {"chain": {"family": "tabulated", "m": 0, "N": 1}, "grids": [{"kind": "x"}]},
    {"chain": {"family": "monomial_exponential", "m": 1, "N": 1},
     "grids": [{"kind": "discrete", "points": [0.0], "masses": ["one"]}],
     "task": {"max_count": -1}},
    {"chain": {"family": "monomial_exponential", "m": True, "N": 1},
     "grids": [{"kind": "discrete", "points": [0.0], "masses": [1.0]}]},
    {"chain": {"family": "monomial_exponential", "m": 1, "N": 1},
     "grids": [{"kind": "gauss_legendre", "interval": [-1.0, 1.0], "n": 2.5}]},
    # the kinds are constants, so no grid matches both branches: this one
    # carries the fields of both and matches neither
    {"chain": {"family": "monomial_exponential", "m": 1, "N": 1},
     "grids": [{"kind": "discrete", "interval": [-1.0, 1.0], "n": 2,
                "points": [0.0], "masses": [1.0]}]},
])
def test_schema_error_is_the_one_jsonschema_validate_picks(raw):
    import jsonschema

    from detchain.cli import CONFIG_SCHEMA, ConfigError

    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as got:
        parse_instance(raw)
    assert str(got.value).endswith(f": {expected.value.message}")


def integer_fields(schema, path=()):
    """The paths of a schema's integer fields, "*" for every array item."""
    if schema.get("type") == "integer":
        yield path
    for key, sub in schema.get("properties", {}).items():
        yield from integer_fields(sub, path + (key,))
    if "items" in schema:
        yield from integer_fields(schema["items"], path + ("*",))
    for sub in schema.get("oneOf", ()):
        yield from integer_fields(sub, path)


def float_fields(value, path) -> int:
    """Turn the ints at ``path`` into floats, in place; returns how many."""
    key, rest = path[0], path[1:]
    if key == "*":
        keys = range(len(value)) if isinstance(value, list) else ()
    else:
        keys = (key,) if isinstance(value, dict) and key in value else ()
    count = 0
    for k in keys:
        if rest:
            count += float_fields(value[k], rest)
        elif type(value[k]) is int:
            value[k] = float(value[k])
            count += 1
    return count


def integer_configs():
    """A bundled discrete config with a short sampler run, and the quadrature one."""
    discrete = json.loads(config_path("discrete_m2n2").read_text())
    discrete["task"]["sampler"] = {"steps": 400, "burn_in": 40, "seed": 3}
    return [discrete, json.loads(config_path("gauss_chain").read_text())]


def outputs(raw, tmp_path, capsys):
    """Each command's exit code, stdout and CSV rows on the config, the
    instance digest left out."""
    path, out = tmp_path / "config.json", tmp_path / "out.csv"
    path.write_text(json.dumps(raw))
    found = {}
    for command in ("check", "gap", "janossy", "correlate", "counts", "sample", "oracle"):
        out.unlink(missing_ok=True)
        code = run([command, "--config", path, "--out", out])
        stdout = capsys.readouterr().out.replace(_digest(raw), "")
        rows = ([{k: v for k, v in row.items() if k != "instance"} for row in read_csv(out)]
                if out.exists() else None)
        found[command] = code, stdout, rows
    return found


@pytest.mark.parametrize("field", sorted(set(integer_fields(CONFIG_SCHEMA))), ids="/".join)
def test_integral_floats_in_integer_fields_act_as_ints(tmp_path, capsys, field):
    """Draft 2020-12 counts 2.0 as an integer: a config with an integer field
    written as a float gives every command's exit code, stdout and CSV of the
    config with the int."""
    exercised = 0
    for raw in integer_configs():
        floated = copy.deepcopy(raw)
        if float_fields(floated, field):
            exercised += 1
            assert outputs(floated, tmp_path, capsys) == outputs(raw, tmp_path, capsys)
    assert exercised


def test_aliasing_max_count_is_config_error(tmp_path, capsys):
    # two nodes of discrete_m1n2 lie inside its interval and N = 2, so counts
    # up to 2 can occur
    cfg = json.loads(config_path("discrete_m1n2").read_text())
    cfg["task"]["max_count"] = 1
    path = tmp_path / "max_count.json"
    path.write_text(json.dumps(cfg))
    assert run(["counts", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "task/max_count" in err and "1 is below 2" in err


def documented_headers():
    text = (CONFIG_DIR.parent / "docs" / "outputs.md").read_text()
    return dict(re.findall(r"^\| `(\w+)` \| `([^`]+)` \|$", text, re.MULTILINE))


@pytest.mark.parametrize("command", ["check", "gap", "janossy", "correlate", "counts",
                                     "sample", "oracle"])
def test_csv_header_and_stdout_agree(tmp_path, capsys, command):
    cfg = json.loads(config_path("discrete_m2n2").read_text())
    cfg["task"]["sampler"] = {"steps": 2000, "burn_in": 200, "seed": 5}
    path = tmp_path / "m2n2.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"{command}.csv"
    assert run([command, "--config", path, "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    m = cfg["chain"]["m"]
    expected = documented_headers()[command].replace(
        "count_1,...,count_m", ",".join(f"count_{j + 1}" for j in range(m)))
    assert header == expected.split(",")
    table = [dict(zip(header, r)) for r in rows]
    if command in ("gap", "janossy", "correlate"):
        assert lines == [table[0]["value"]]
    elif command == "counts":
        total = sum(float(r["probability"]) for r in table)
        assert abs(float(lines[0]) - total) <= 1e-15 * len(table)
    elif command == "sample":
        row = table[0]
        assert lines == [f"empirical_gap {row['value']}", f"stderr {row['stderr']}",
                         f"fredholm_det {row['reference']}", f"zscore {row['zscore']}"]
    else:
        assert lines[0] == f"instance {table[0]['instance']}"
        assert len(lines) == len(table) + 1
        for line, r in zip(lines[1:], table):
            status, name, detail = line.split(None, 2)
            assert (status, name) == (r["status"].upper(), r["quantity"])
            if command == "check":
                assert detail.startswith(f"residual={float(r['residual']):.3e}")
            else:
                assert detail.startswith(f"oracle={r['oracle']} library={r['library']}")


BUILDERS = ("dual_bases", "plu_decompose", "build_K", "build_g")


def count_builders(monkeypatch, names=BUILDERS):
    """Count the calls of each named function, including those made inside detchain."""
    counts = dict.fromkeys(names, 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "detchain"]
    for name in names:
        original = getattr(detchain, name)
        wrapper = counting(name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("name", ["discrete_m3n2", "gauss_chain"])
def test_check_builds_each_weight_set_once(monkeypatch, capsys, name):
    counts = count_builders(monkeypatch,
                            BUILDERS + ("pairing_expressions", "pairing_matrix"))
    assert run(["check", "--config", config_path(name)]) == 0
    # one dualization for w = 0 and one for w; the third pairing matrix and
    # pair of pairing expressions are the ones kernel_via_inverse builds for
    # itself as the independent reference. The pairing rows read the records.
    assert counts == {"dual_bases": 2, "plu_decompose": 2, "build_K": 2, "build_g": 2,
                      "pairing_expressions": 3, "pairing_matrix": 1}


def test_kernel_via_inverse_builds_no_g_and_no_plu(monkeypatch):
    counts = count_builders(monkeypatch)
    tables, weights = random_discrete_instance(5, m=3)
    detchain.kernel_via_inverse(tables, weights)
    assert counts == dict.fromkeys(BUILDERS, 0)


@pytest.mark.parametrize("command", ["gap", "janossy", "correlate", "counts", "sample",
                                     "oracle"])
def test_other_commands_build_one_plain_dualization(tmp_path, monkeypatch, capsys,
                                                     command):
    cfg = json.loads(config_path("discrete_m3n2").read_text())
    cfg["task"]["sampler"] = {"steps": 200, "burn_in": 20, "seed": 3}
    path = tmp_path / "m3n2.json"
    path.write_text(json.dumps(cfg))
    counts = count_builders(monkeypatch)
    assert run([command, "--config", path]) == 0
    assert counts == dict.fromkeys(BUILDERS, 1)


def test_no_command_but_check_forms_a_dense_kernel(tmp_path, monkeypatch, capsys):
    """No command but check reads a kernel's (sum n)^2 matrix, so none forms
    one: on a gl_chain config, and on a discrete one with a sampler."""
    read = []
    matrix = detchain.BlockKernel.matrix
    monkeypatch.setattr(detchain.BlockKernel, "matrix",
                        property(lambda kernel: read.append(kernel) or matrix.fget(kernel)))
    gl = perfbench_module("workloads").WORKLOADS["gl_chain"](1, tmp_path).config_for(0)
    cfg = json.loads(config_path("discrete_m3n2").read_text())
    cfg["task"]["sampler"] = {"steps": 200, "burn_in": 20, "seed": 3}
    discrete = tmp_path / "m3n2.json"
    discrete.write_text(json.dumps(cfg))
    for command in ("gap", "janossy", "correlate", "counts"):
        assert run([command, "--config", gl]) == 0
    for command in ("gap", "janossy", "correlate", "counts", "sample", "oracle"):
        assert run([command, "--config", discrete]) == 0
    assert read == []
    assert run(["check", "--config", discrete]) == 0
    assert read


def test_readme_library_sketch_runs(capsys):
    readme = (REPO_ROOT / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    exec(compile(sketch.split("```", 1)[0], "README.md", "exec"), {})
    gap, residuals = capsys.readouterr().out.splitlines()
    assert 0.0 < float(gap) < 1.0
    assert residuals.startswith("IdentityResiduals(")
