"""REP007 fixture: streaming json.dump to file objects."""

import json
import sys
from json import dump as write_json


def save(payload: dict, fh) -> None:
    json.dump(payload, fh, separators=(",", ":"))


def report(payload: dict) -> None:
    write_json(payload, sys.stdout, indent=1)
