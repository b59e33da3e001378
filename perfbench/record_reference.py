"""Record the values the benchmark's correctness gates compare against.

    python3 perfbench/record_reference.py

For every instance any seed can pick, and the warm-up instance, writes to
reference.json the SHA-256 digests of the emitted LP and MPS text and the
row, column and nonzero counts of the model, and, where n <= 12, the
validated F of `cdsp solve`. It also checks the oracle-tiny instances
against the exhaustive oracle and reports every disagreement. Re-record only
in a change whose purpose is to alter these values, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import corpus
import journeys

HERE = Path(__file__).resolve().parent


def main() -> int:
    journeys.set_up()
    from cdsp import harness, instances, oracle

    triples = {corpus.WARMUP}
    for workload in corpus.RECIPES:
        triples.update(corpus.all_triples(workload))
    oracle_triples = set(corpus.all_triples("oracle-tiny")) | {corpus.WARMUP}
    cases, disagreements = {}, []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        for n, k, g in sorted(triples):
            case = corpus.write_case(Path(tmp), n, k, g)
            entry = {"path": str(case.path), "fleet": k, "shift_cap": case.shift_cap}
            facts = journeys.emit_journey(entry, None)["facts"]
            if n <= 12:
                cfg = journeys.config(entry)
                record = harness.run_instance(case.path, cfg, journeys.limits())
                if record.status != "optimal":
                    raise SystemExit(f"{case.key}: status {record.status}")
                facts["F"] = record.total
                if (n, k, g) in oracle_triples:
                    inst = instances.build_instance(
                        instances.parse_solomon(case.path.read_text()), cfg
                    )
                    best = oracle.exact_solve_tiny(inst).best_total
                    if abs(best - record.total) > journeys.ORACLE_TOL:
                        disagreements.append(f"{case.key}: MIP {record.total!r} oracle {best!r}")
            cases[case.key] = facts
            print(case.key, facts, file=sys.stderr, flush=True)
    (HERE / "reference.json").write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    for line in disagreements:
        print("oracle disagreement:", line, file=sys.stderr)
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
