"""Reference outputs: fingerprints of what a unit produced, and the checker.

Every operation's outputs are reduced to *documents*. A small output is kept
whole as a JSON tree; a large file is summarised per field path (list
indices folded into ``*``) by its count, a digest of its non-float values
and, per chunk of 256 floats, their position-weighted and absolute sums.
The checker compares text, integers and booleans exactly and floats within
one stated tolerance, which leaves room for floating-point reassociation
but nothing else. A summary cannot see a change to one float that is
smaller than the tolerance times its chunk's absolute sum.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

#: Relative and absolute tolerance for every float compared against a reference.
REL_TOL = 1e-6
ABS_TOL = 1e-9

#: Outputs with more leaves than this are summarised instead of stored whole.
TREE_LEAF_LIMIT = 1000

#: Floats per summed chunk of a summarised field.
CHUNK = 256

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
_INT_RE = re.compile(r"-?\d+\Z")


def reference_path(workload: str, size: str) -> Path:
    suffix = "" if size == "full" else f".{size}"
    return REFERENCE_DIR / f"{workload}{suffix}.json"


def load_references(workload: str, size: str) -> dict:
    with open(reference_path(workload, size)) as fh:
        return json.load(fh)


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], path + (str(key),))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _leaves(item, path + (i,))
    else:
        yield path, obj


def summarise(tree) -> dict:
    """Per-path statistics of a large tree; list indices fold into ``*``."""
    groups: dict[str, dict] = {}
    for path, value in _leaves(tree):
        key = "/".join("*" if isinstance(p, int) else p for p in path)
        g = groups.setdefault(key, {"n": 0, "exact": [], "floats": []})
        g["n"] += 1
        (g["floats"] if isinstance(value, float) else g["exact"]).append(value)
    out = {}
    for key, g in groups.items():
        floats = g["floats"]
        chunks = [floats[i:i + CHUNK] for i in range(0, len(floats), CHUNK)]
        out[key] = {
            "n": g["n"],
            "exact": hashlib.sha256(json.dumps(g["exact"]).encode()).hexdigest()[:16],
            "floats": len(floats),
            # position-weighted sums catch values that moved; abs sums give each chunk's scale
            "chunks": [
                [math.fsum(v * _weight(i) for i, v in enumerate(c)), math.fsum(abs(v) for v in c)]
                for c in chunks
            ],
        }
    return out


def _weight(i: int) -> float:
    return 1.0 + (i % 10) / 10.0


def document(tree) -> dict:
    """Whole tree when small, per-path summary when large."""
    tree = json.loads(json.dumps(tree))  # tuples become lists, as in a stored reference
    if sum(1 for _ in _leaves(tree)) <= TREE_LEAF_LIMIT:
        return {"tree": tree}
    return {"stats": summarise(tree)}


def _cell(text: str):
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse_output(path: Path, text: str):
    """JSON, JSONL or CSV output of the CLI as a JSON-like tree."""
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".csv":
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        header = body[0].split(",") if body else []
        rows = [dict(zip(header, (_cell(c) for c in line.split(",")))) for line in body[1:]]
        return {"comments": comments, "header": header, "rows": rows}
    raise ValueError(f"no parser for output file {path.name}")


def fingerprint_file(path: Path) -> dict:
    data = path.read_bytes()
    doc = document(parse_output(path, data.decode()))
    doc["sha256"] = hashlib.sha256(data).hexdigest()
    doc["bytes"] = len(data)
    return doc


def _close(expected: float, actual: float) -> bool:
    if math.isnan(expected) or math.isnan(actual):
        return math.isnan(expected) and math.isnan(actual)
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _leaf_matches(expected, actual) -> bool:
    numbers = (int, float)
    if (
        isinstance(expected, numbers) and isinstance(actual, numbers)
        and not isinstance(expected, bool) and not isinstance(actual, bool)
    ):
        if isinstance(expected, int) and isinstance(actual, int):
            return expected == actual
        return _close(float(expected), float(actual))
    return type(expected) is type(actual) and expected == actual


def compare_tree(expected, actual, path: str = "") -> list[str]:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path or '/'}: keys {sorted(expected)} != {sorted(actual)}"]
        out = []
        for key in sorted(expected):
            out += compare_tree(expected[key], actual[key], f"{path}/{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare_tree(e, a, f"{path}/{i}")
        return out
    if _leaf_matches(expected, actual):
        return []
    return [f"{path}: expected {expected!r}, got {actual!r}"]


def compare_stats(expected: dict, actual: dict) -> list[str]:
    if set(expected) != set(actual):
        return [f"field paths differ: {sorted(set(expected) ^ set(actual))}"]
    out = []
    for key in sorted(expected):
        e, a = expected[key], actual[key]
        shape = [f"{key}: {f} {e[f]!r} != {a[f]!r}" for f in ("n", "exact", "floats") if e[f] != a[f]]
        out += shape
        if shape:
            continue
        for i, ((e_w, e_abs), (a_w, a_abs)) in enumerate(zip(e["chunks"], a["chunks"])):
            # each value may move by the tolerance; weights are below 2
            bound = 2.0 * (REL_TOL * e_abs + ABS_TOL * CHUNK)
            if not (abs(a_w - e_w) <= bound and abs(a_abs - e_abs) <= bound):
                out.append(f"{key}: values {i * CHUNK}..{(i + 1) * CHUNK - 1} differ beyond the tolerance")
    return out


def compare_document(expected: dict, actual: dict) -> list[str]:
    if "tree" in expected:
        if "tree" not in actual:
            return ["expected a whole tree, got a summary"]
        return compare_tree(expected["tree"], actual["tree"])
    if "stats" not in actual:
        return ["expected a summary, got a whole tree"]
    return compare_stats(expected["stats"], actual["stats"])


def compare_operation(expected: dict, actual: dict) -> list[str]:
    """Mismatches between the documents of one operation and its reference."""
    if set(expected) != set(actual):
        return [f"documents {sorted(expected)} != {sorted(actual)}"]
    out = []
    for name in sorted(expected):
        out += [f"{name}: {m}" for m in compare_document(expected[name], actual[name])]
    return out


def byte_identical(expected: dict, actual: dict) -> int:
    """Number of documents whose bytes hash equal to the reference's."""
    return sum(
        1 for name, doc in actual.items()
        if "sha256" in doc and expected.get(name, {}).get("sha256") == doc["sha256"]
    )
