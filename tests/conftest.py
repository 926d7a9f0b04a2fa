import json
import os

import numpy as np
import pytest

from mbqc.graphs import Graph
from mbqc.statevector import StateVector


def random_graph(n, rng, p=0.5):
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_state(n, rng):
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(n, v / np.linalg.norm(v))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")


def _schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


def schema_validator(name):
    """Draft 2020-12 validator for ``docs/schemas/<name>``, resolving the
    ``$ref``s between schemas; skips the test when jsonschema is missing."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema(name)
    try:
        from referencing import Registry, Resource
        resources = []
        for fname in os.listdir(SCHEMA_DIR):
            s = _schema(fname)
            resources.append((s["$id"], Resource.from_contents(s)))
        registry = Registry().with_resources(resources)
        return jsonschema.Draft202012Validator(schema, registry=registry)
    except ImportError:
        return jsonschema.Draft202012Validator(schema)
