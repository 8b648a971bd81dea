"""REP007 stream-json-dump: ``json.dump`` to a file object.

CPython runs its C JSON encoder only for a one-shot ``json.dumps``;
``json.dump(obj, fh)`` streams the document through the pure-Python
``_iterencode``, chunk by chunk.  On the store's write path that made the
envelope encode cost about as much as the file create itself (1.58 s over
2,560 puts under cProfile).  The output is the same bytes either way, so
write the result of ``json.dumps`` in one call instead.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..engine import FileContext, Finding, Rule
from .rep002_canonical_json import json_calls


class StreamJsonDumpRule(Rule):
    rule_id = "REP007"
    name = "stream-json-dump"
    summary = ("json.dump to a file runs the pure-Python encoder; "
               "json.dumps runs the C one")
    hint = ("write the output of json.dumps instead (fh.write(json.dumps("
            "obj).encode()) or print(json.dumps(obj))), or suppress with "
            "'# repro: allow[REP007] -- <why streaming is needed>'")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, _ in json_calls(ctx.tree, ("dump",)):
            yield ctx.finding(
                self, node,
                "json.dump streams through the pure-Python encoder; write "
                "the output of json.dumps instead")
