#!/usr/bin/env python3
"""Validate a run manifest (or progress heartbeat) against its schema.

Usage:
    check_manifest.py manifest PATH [--expect-status S] [--expect-tool T]
                      [--min-attempts N]
                      [--expect-multi-cache-groups N]
    check_manifest.py progress PATH

Used by ctest and CI to gate the telemetry artifacts imo-run /
imo-sweep / imo-farm emit. Standard library only — no dependencies.
Exits 0 when the artifact is schema-valid, 1 with a diagnostic per
violation otherwise.
"""

import json
import sys

MANIFEST_SCHEMA_VERSION = 4
PROGRESS_SCHEMA_VERSION = 1

POINT_STATUSES = {"ok", "failed", "cancelled"}
RUN_STATUSES = {"ok", "failed", "interrupted"}

POINT_FIELDS = {
    "key": str,
    "desc": str,
    "status": str,
    "store_hit": bool,
    "attempts": int,
    "queue_wait_ms": int,
    "simulate_ms": int,
    "serialize_ms": int,
    "store_put_ms": int,
    "start_ms": int,
    "end_ms": int,
    "multi_cache_group": int,
    "error": str,
}

MULTI_CACHE_GROUP_FIELDS = {
    "members": int,
    "configs": int,
    "stream_length": int,
    "prefetches": int,
    "windows": int,
    "shared": bool,
}

MANIFEST_FIELDS = {
    "manifest_schema_version": int,
    "tool": str,
    "run_id": str,
    "args": list,
    "report_schema_version": int,
    "protocol_version": int,
    "fault_spec": str,
    "fault_seed": int,
    "status": str,
    "error_code": str,
    "error_message": str,
    "elapsed_ms": int,
    "points_total": int,
    "points_done": int,
    "multi_cache_groups": list,
    "points": list,
}

PROGRESS_FIELDS = {
    "progress_schema_version": int,
    "run_id": str,
    "status": str,
    "done": int,
    "total": int,
    "active_workers": int,
    "retries": int,
    "elapsed_ms": int,
    "eta_ms": int,
}


class Checker:
    def __init__(self):
        self.errors = []

    def fail(self, msg):
        self.errors.append(msg)

    def require(self, cond, msg):
        if not cond:
            self.fail(msg)
        return cond

    def check_fields(self, obj, fields, where):
        for name, typ in fields.items():
            if name not in obj:
                self.fail(f"{where}: missing field '{name}'")
            elif not isinstance(obj[name], typ):
                self.fail(
                    f"{where}: field '{name}' is "
                    f"{type(obj[name]).__name__}, want {typ.__name__}"
                )
        for name in obj:
            if name not in fields and name != "stats":
                self.fail(f"{where}: unknown field '{name}'")


def check_manifest(doc, chk, expect_status, expect_tool, min_attempts,
                   expect_multi_cache_groups):
    chk.check_fields(doc, MANIFEST_FIELDS, "manifest")
    if chk.errors:
        return

    chk.require(
        doc["manifest_schema_version"] == MANIFEST_SCHEMA_VERSION,
        f"manifest_schema_version is {doc['manifest_schema_version']}, "
        f"want {MANIFEST_SCHEMA_VERSION}",
    )
    chk.require(doc["run_id"] != "", "run_id is empty")
    chk.require(
        doc["run_id"].startswith(doc["tool"]) or "-" in doc["run_id"],
        f"run_id '{doc['run_id']}' does not look generated",
    )
    chk.require(
        doc["status"] in RUN_STATUSES,
        f"status '{doc['status']}' not in {sorted(RUN_STATUSES)}",
    )
    if doc["status"] == "failed":
        chk.require(
            doc["error_code"] != "",
            "status is 'failed' but error_code is empty",
        )
    if expect_status is not None:
        chk.require(
            doc["status"] == expect_status,
            f"status is '{doc['status']}', expected '{expect_status}'",
        )
    if expect_tool is not None:
        chk.require(
            doc["tool"] == expect_tool,
            f"tool is '{doc['tool']}', expected '{expect_tool}'",
        )

    groups = doc["multi_cache_groups"]
    for i, g in enumerate(groups):
        where = f"multi_cache_groups[{i}]"
        if not isinstance(g, dict):
            chk.fail(f"{where}: not an object")
            continue
        chk.check_fields(g, MULTI_CACHE_GROUP_FIELDS, where)
        if chk.errors:
            continue
        chk.require(
            g["members"] >= 2,
            f"{where}: a multi-cache group needs >= 2 members, "
            f"has {g['members']}",
        )
        if g["shared"]:
            chk.require(
                g["configs"] >= 1,
                f"{where}: shared group served {g['configs']} configs",
            )
    if expect_multi_cache_groups is not None:
        chk.require(
            len(groups) == expect_multi_cache_groups,
            f"manifest has {len(groups)} multi-cache groups, expected "
            f"{expect_multi_cache_groups}",
        )

    points = doc["points"]
    chk.require(
        doc["points_total"] == len(points),
        f"points_total is {doc['points_total']} but points has "
        f"{len(points)} entries",
    )
    done = 0
    for i, p in enumerate(points):
        where = f"points[{i}]"
        if not isinstance(p, dict):
            chk.fail(f"{where}: not an object")
            continue
        chk.check_fields(p, POINT_FIELDS, where)
        if chk.errors:
            continue
        chk.require(
            p["status"] in POINT_STATUSES,
            f"{where}: status '{p['status']}' not in "
            f"{sorted(POINT_STATUSES)}",
        )
        if p["status"] == "ok":
            done += 1
            # Every simulated (non-memoized) finished point was leased
            # or executed at least once.
            if not p["store_hit"]:
                chk.require(
                    p["attempts"] >= 1,
                    f"{where}: finished simulated point has "
                    f"attempts {p['attempts']} < 1",
                )
            chk.require(
                p["end_ms"] >= p["start_ms"],
                f"{where}: end_ms {p['end_ms']} < start_ms "
                f"{p['start_ms']}",
            )
        if min_attempts is not None:
            chk.require(
                p["attempts"] >= min_attempts or p["store_hit"],
                f"{where}: attempts {p['attempts']} < required "
                f"minimum {min_attempts}",
            )
        mcg = p["multi_cache_group"]
        chk.require(
            mcg == -1 or 0 <= mcg < len(groups),
            f"{where}: multi_cache_group {mcg} does not index "
            f"multi_cache_groups (len {len(groups)})",
        )
    chk.require(
        doc["points_done"] == done,
        f"points_done is {doc['points_done']} but {done} points have "
        f"status 'ok'",
    )
    if "stats" in doc:
        chk.require(
            doc["stats"] is None or isinstance(doc["stats"], dict),
            "stats is neither null nor an object",
        )


def check_progress(doc, chk):
    chk.check_fields(doc, PROGRESS_FIELDS, "progress")
    if chk.errors:
        return
    chk.require(
        doc["progress_schema_version"] == PROGRESS_SCHEMA_VERSION,
        f"progress_schema_version is "
        f"{doc['progress_schema_version']}, want "
        f"{PROGRESS_SCHEMA_VERSION}",
    )
    chk.require(doc["run_id"] != "", "run_id is empty")
    chk.require(
        doc["status"] in RUN_STATUSES | {"running"},
        f"status '{doc['status']}' not in "
        f"{sorted(RUN_STATUSES | {'running'})}",
    )
    chk.require(
        doc["done"] <= doc["total"],
        f"done {doc['done']} > total {doc['total']}",
    )


def main(argv):
    if len(argv) < 3 or argv[1] not in ("manifest", "progress"):
        sys.stderr.write(__doc__)
        return 2
    mode, path = argv[1], argv[2]

    expect_status = None
    expect_tool = None
    min_attempts = None
    expect_multi_cache_groups = None
    args = argv[3:]
    while args:
        flag = args.pop(0)
        if flag == "--expect-status" and args:
            expect_status = args.pop(0)
        elif flag == "--expect-tool" and args:
            expect_tool = args.pop(0)
        elif flag == "--min-attempts" and args:
            min_attempts = int(args.pop(0))
        elif flag == "--expect-multi-cache-groups" and args:
            expect_multi_cache_groups = int(args.pop(0))
        else:
            sys.stderr.write(f"unknown flag {flag}\n")
            return 2

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"{path}: {e}\n")
        return 1

    chk = Checker()
    if not isinstance(doc, dict):
        chk.fail("document is not a JSON object")
    elif mode == "manifest":
        check_manifest(doc, chk, expect_status, expect_tool,
                       min_attempts, expect_multi_cache_groups)
    else:
        check_progress(doc, chk)

    for msg in chk.errors:
        sys.stderr.write(f"{path}: {msg}\n")
    if not chk.errors:
        print(f"{path}: valid {mode} "
              f"(run_id {doc.get('run_id', '?')})")
    return 1 if chk.errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
