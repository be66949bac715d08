import csv
import json
import re

import pytest

from detchain.cli import main, parse_instance
from detchain.instances import monomial_discrete_config

from .conftest import CONFIG_DIR


def run(args):
    return main([str(a) for a in args])


def config_path(name):
    return CONFIG_DIR / f"{name}.json"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_check_bundled_instances_pass(tmp_path):
    out = tmp_path / "check.csv"
    code = run(["check", "--config", config_path("discrete_m1n2"), "--out", out])
    assert code == 0
    rows = read_csv(out)
    assert all(r["status"] == "pass" for r in rows)
    assert all(r["instance"] and r["tolerance"] for r in rows)


def test_check_quadrature_instance():
    assert run(["check", "--config", config_path("gauss_chain")]) == 0


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


def test_numerical_failure_exits_3(tmp_path, capsys):
    cfg = json.loads(config_path("discrete_m1n2").read_text())
    n = len(cfg["grids"][0]["points"])
    cfg["weights"] = {"vectors": [[1.0] * n]}  # (1 - w) = 0 kills the pairing
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(cfg))
    assert run(["check", "--config", path]) == 3
    assert "SingularPairing" in capsys.readouterr().err


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
])
def test_schema_error_is_the_one_jsonschema_validate_picks(raw):
    import jsonschema

    from detchain.cli import CONFIG_SCHEMA, ConfigError

    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as got:
        parse_instance(raw)
    assert str(got.value).endswith(f": {expected.value.message}")


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
