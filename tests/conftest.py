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


def mul_rows_full_width(xs, zs, signs, rows, px, pz, psign):
    """Reference for ``pauli._mul_rows``: the row product over every word,
    with the phase counted from explicit +i and -i masks."""
    x2, z2 = xs[rows], zs[rows]
    plus = (px & ~pz & x2 & z2) | (px & pz & ~x2 & z2) | (~px & pz & x2 & ~z2)
    minus = ((px & z2) ^ (pz & x2)) & ~plus
    phase = (np.bitwise_count(plus).sum(axis=-1, dtype=np.int64)
             - np.bitwise_count(minus).sum(axis=-1, dtype=np.int64)
             + 2 * (psign + signs[rows].astype(np.int64))) % 4
    assert not np.any(phase % 2)
    signs[rows] = phase // 2
    xs[rows] = x2 ^ px
    zs[rows] = z2 ^ pz


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
