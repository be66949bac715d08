#!/usr/bin/env python3
"""Check the CLI config schema against the 2020-12 meta-schema and publish it
to docs/config_schema.json."""

import json
from pathlib import Path

import jsonschema

from detchain.cli import CONFIG_SCHEMA


def main() -> None:
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
    path = Path(__file__).resolve().parents[1] / "docs" / "config_schema.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(CONFIG_SCHEMA, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
