#!/usr/bin/env python3
"""Check a freshly generated bench JSON against its committed sidecar.

The bench harnesses emit one JSON object per line (bench_common JsonRows):
bench_serving_throughput (tree and forest rows), bench_serve_frontend
and bench_storage_compression (the storage tier's accuracy-vs-compression
sweep, BENCH_storage_compression.json) write BENCH_<name>.json sidecars
this script understands, as does the
flat-traversal sweep inside bench_micro_kernels
(BENCH_micro_batch_kernels.json: pool x kernel x batch, ns/tuple) and
bench_fig6_execution_time (BENCH_fig6_execution_time.json: data set x
algorithm build seconds, the paper's Fig 6).
CI regenerates each file in the Release smoke job and this script fails
on *schema* drift only — keys added or removed, value types changed, or
the categorical dimensions (dataset / path / kind / batch_size...) no
longer covering what the sidecar covers. Timing values are expected to
move run to run and are deliberately not compared. Provenance strings
(PROVENANCE_KEYS, e.g. the build type a row was measured under) must
keep their key and type but are not part of a row's identity: a local
RelWithDebInfo run still covers a sidecar recorded in Release (the
serving-throughput, micro-kernel, Fig 6 and storage-compression sidecars
carry build_type per row).

Rows must be strict JSON: NaN / Infinity (which Python's json module
accepts by default, and which a degenerate measurement could print) are
rejected, so a sidecar can never commit a value other consumers cannot
parse.

Usage: check_bench_schema.py <committed.json> <fresh.json> [...pairs]
Exits non-zero with a per-file report on drift.
"""

import json
import sys

# String-valued keys define a row's identity (which configuration it
# measures); numeric values are measurements and may drift freely.
IDENTITY_TYPES = (str,)

# String-valued keys that record where a row came from rather than what
# it measures; excluded from identity.
PROVENANCE_KEYS = frozenset({"build_type"})


def _reject_constant(token):
    # json.loads maps NaN/Infinity to floats unless told otherwise; a bench
    # row carrying them is a harness bug (e.g. a zero-coverage OOB estimate
    # or a division by a zero timer), not a measurement.
    raise ValueError(f"non-finite constant {token!r} is not valid JSON")


def load_rows(path):
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line, parse_constant=_reject_constant)
            except (json.JSONDecodeError, ValueError) as e:
                raise SystemExit(f"{path}:{lineno}: not valid JSON: {e}")
            if not isinstance(row, dict):
                raise SystemExit(f"{path}:{lineno}: row is not an object")
            rows.append(row)
    if not rows:
        raise SystemExit(f"{path}: no JSON rows")
    return rows


def type_name(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return type(value).__name__


def schema_of(rows):
    """Maps key -> set of value type names across all rows."""
    schema = {}
    for row in rows:
        for key, value in row.items():
            schema.setdefault(key, set()).add(type_name(value))
    return schema


def identity_of(rows):
    """The set of categorical configurations the file covers."""
    identities = set()
    for row in rows:
        identities.add(
            tuple(
                sorted(
                    (k, v)
                    for k, v in row.items()
                    if isinstance(v, IDENTITY_TYPES)
                    and k not in PROVENANCE_KEYS
                )
            )
        )
    return identities


def check_pair(committed_path, fresh_path):
    committed = load_rows(committed_path)
    fresh = load_rows(fresh_path)
    errors = []

    committed_schema = schema_of(committed)
    fresh_schema = schema_of(fresh)
    missing = sorted(set(committed_schema) - set(fresh_schema))
    added = sorted(set(fresh_schema) - set(committed_schema))
    if missing:
        errors.append(f"keys vanished from fresh output: {missing}")
    if added:
        errors.append(f"keys appeared in fresh output: {added}")
    for key in sorted(set(committed_schema) & set(fresh_schema)):
        if committed_schema[key] != fresh_schema[key]:
            errors.append(
                f"key {key!r} changed type: "
                f"{sorted(committed_schema[key])} -> "
                f"{sorted(fresh_schema[key])}"
            )

    committed_ids = identity_of(committed)
    fresh_ids = identity_of(fresh)
    lost = committed_ids - fresh_ids
    if lost:
        sample = sorted(lost)[:3]
        errors.append(
            f"{len(lost)} committed configuration(s) no longer produced, "
            f"e.g. {sample}"
        )

    return errors


def main(argv):
    if len(argv) < 3 or len(argv) % 2 == 0:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    pairs = list(zip(argv[1::2], argv[2::2]))
    for committed_path, fresh_path in pairs:
        errors = check_pair(committed_path, fresh_path)
        if errors:
            failed = True
            print(f"SCHEMA DRIFT: {fresh_path} vs {committed_path}")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"ok: {fresh_path} matches schema of {committed_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
