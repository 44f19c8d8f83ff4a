import json
import pathlib
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from zpscan.analytic import PrecisionContext
from zpscan.selftest import random_lattice  # noqa: F401  (imported by the test modules)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO_ROOT / "schemas"


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(bits=256)


def random_tau(rng: random.Random, bits: int = 256) -> mp.mpc:
    """Seeded tau in a moderate band of the upper half-plane (exact dyadic-ish input)."""
    with mp.workprec(bits):
        re = mp.mpf(rng.randint(-500, 500)) / 1000
        im = mp.mpf(rng.randint(500, 2000)) / 1000
        return mp.mpc(re, im)


def fraction_point(poly, seed: int) -> dict:
    """Seeded rational values, numerators in [-9, 9] over 1..9, for the variables of a MultiPoly."""
    rng = random.Random(seed)
    return {v: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for v in sorted(poly.variables())}


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_against(name: str, payload: dict) -> None:
    import jsonschema
    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        resources.append((doc["$id"], Resource.from_contents(doc)))
        resources.append((path.name, Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)
    schema = load_schema(name)
    validator = Draft202012Validator(schema, registry=registry)
    errors = sorted(validator.iter_errors(payload), key=lambda e: e.json_path)
    assert not errors, "\n".join(str(e) for e in errors[:5])
