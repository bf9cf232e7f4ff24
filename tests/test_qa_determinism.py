"""Seed-determinism guarantees of the qa fuzzer and the advisor.

Two layers:

* in-process -- generating the same seed twice yields identical JSON,
  and recommending over the same case twice yields identical output;
* across interpreter hash seeds -- subprocesses with different
  ``PYTHONHASHSEED`` values must produce byte-identical workloads and
  identical advisor recommendations and DBA reference sets.  This
  catches accidental iteration over sets or hash-keyed dicts anywhere in
  the generation or recommendation paths (e.g. benefit attribution over
  ``plan.used_indexes``, or the DBA model's walk over candidate orders).
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.core import AimAdvisor, AimConfig
from repro.qa import generate_case
from repro.workload import Workload, WorkloadQuery

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _run_subprocess(code: str, hash_seed: int) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = _SRC
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout


_CASE_JSON_CODE = """
from repro.qa import generate_case
print(generate_case({seed}).to_json(), end="")
"""

_RECOMMEND_CODE = """
import json
from repro.core import AimAdvisor, AimConfig
from repro.qa import generate_case
from repro.workload import Workload, WorkloadQuery

case = generate_case({seed})
db = case.database()
wl = Workload(
    [WorkloadQuery(s, name=f"q{{i}}")
     for i, s in enumerate(case.statements)],
    name="qa",
)
rec = AimAdvisor(db, AimConfig()).recommend(wl, 1 << 20)
payload = {{
    "created": [
        {{
            "name": r.index.name,
            "columns": list(r.index.columns),
            "size": r.size_bytes,
            "benefit": r.benefit,
            "maintenance": r.maintenance,
            "phase": r.phase,
        }}
        for r in rec.created
    ],
    "cost_before": rec.cost_before,
    "cost_after": rec.cost_after,
}}
print(json.dumps(payload, sort_keys=True), end="")
"""

_DBA_CODE = """
import json
from repro.workloads.production import PRODUCTS, build_product, dba_index_set

out = {{}}
for key in {products!r}:
    product = build_product(PRODUCTS[key])
    db = product.db
    budget = max(512 << 20, sum(db.table_size_bytes(t) for t in db.schema.tables))
    out[key] = sorted(index.name for index in dba_index_set(product, budget))
print(json.dumps(out, sort_keys=True), end="")
"""

#: sha256 of the Products A, C and E DBA sets (the ``_DBA_CODE`` JSON),
#: the Table II reference: a change to candidate generation or its
#: settings that moves a DBA index shows here.
DBA_REFERENCE_DIGEST = "07e260eeb3b97b22"


def test_same_seed_same_case_in_process():
    a = generate_case(42)
    b = generate_case(42)
    assert a.to_json() == b.to_json()
    assert a.statements == b.statements


def test_different_seeds_differ():
    assert generate_case(42).to_json() != generate_case(43).to_json()


def test_recommendation_repeatable_in_process():
    def recommend():
        case = generate_case(10)
        db = case.database()
        wl = Workload(
            [WorkloadQuery(s, name=f"q{i}")
             for i, s in enumerate(case.statements)],
            name="qa",
        )
        rec = AimAdvisor(db, AimConfig()).recommend(wl, 1 << 20)
        return [
            (r.index.name, r.size_bytes, r.benefit, r.maintenance)
            for r in rec.created
        ], rec.cost_before, rec.cost_after

    assert recommend() == recommend()


@pytest.mark.slow
def test_workload_bytes_identical_across_hash_seeds():
    code = _CASE_JSON_CODE.format(seed=42)
    outputs = {_run_subprocess(code, hs) for hs in (0, 1, 2)}
    assert len(outputs) == 1, "generation depends on PYTHONHASHSEED"


@pytest.mark.slow
@pytest.mark.parametrize("seed", [10, 12])
def test_recommendation_identical_across_hash_seeds(seed):
    code = _RECOMMEND_CODE.format(seed=seed)
    outputs = [_run_subprocess(code, hs) for hs in (0, 1, 2)]
    payloads = [json.loads(o) for o in outputs]
    assert payloads[0]["created"], "expected a non-empty recommendation"
    assert payloads[0] == payloads[1] == payloads[2], (
        "advisor recommendation depends on PYTHONHASHSEED"
    )


@pytest.mark.slow
def test_dba_reference_identical_across_hash_seeds():
    code = _DBA_CODE.format(products=("A", "C", "E"))
    payloads = [json.loads(_run_subprocess(code, hs)) for hs in (0, 1, 2)]
    assert all(payloads[0][key] for key in ("A", "C", "E"))
    assert payloads[0] == payloads[1] == payloads[2], (
        "DBA reference set depends on PYTHONHASHSEED"
    )
    text = json.dumps(payloads[0], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == DBA_REFERENCE_DIGEST
