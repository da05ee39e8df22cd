"""Fingerprint of a tree file that does not depend on how its vertices are numbered.

A vertex is named by its coordinates and kind, so two files that hold the
same tree under different vertex ids get the same fingerprint.
"""
import hashlib
import json


def tree_fingerprint(path) -> str:
    """sha256 of repr((root key, sorted edges)); an edge is a sorted pair of keys."""
    with open(path) as fh:
        data = json.load(fh)
    key = {v["id"]: (tuple(v["coords"]), v["kind"]) for v in data["vertices"]}
    edges = sorted(tuple(sorted((key[u], key[v]))) for u, v in data["edges"])
    return hashlib.sha256(repr((key[data["root"]], edges)).encode()).hexdigest()
