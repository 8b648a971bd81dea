"""REP001 fixture: deterministic handling of the same sets."""

tasks = {"c", "a", "b"}

as_list = sorted(tasks)                      # explicit order
joined = ",".join(sorted(tasks))
present = "a" in tasks                       # membership: order-free
other = {t.upper() for t in tasks}           # set -> set: order-free
by_task = {t: len(t) for t in sorted(tasks)} # sorted -> dict
count = len(tasks)

ordered = ["c", "a", "b"]                    # lists iterate deterministically
for t in ordered:
    pass
