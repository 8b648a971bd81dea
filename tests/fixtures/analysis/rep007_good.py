"""REP007 fixture: one-shot json.dumps, written in one call."""

import json


def save(payload: dict, fh) -> None:
    fh.write(json.dumps(payload, separators=(",", ":")).encode())


def report(payload: dict) -> None:
    print(json.dumps(payload, indent=1))
