"""REP001 fixture: set iteration leaking into ordered constructs."""

tasks = {"c", "a", "b"}

as_list = list(tasks)                      # set -> list
pairs = list(enumerate(tasks))             # set -> enumerate
joined = ",".join(str(t) for t in tasks)   # set -> join

collected = []
for t in tasks:                            # set -> ordered accumulation
    collected.append(t)

comp = [t.upper() for t in {"x", "y"}]     # set literal -> list comp
algebra = list(tasks | {"d"})              # set algebra -> list
by_task = {t: len(t) for t in tasks}       # set -> dict (insertion order)
