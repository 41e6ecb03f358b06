"""Seeded generator of `.dx` scenarios for the ocdx end-to-end benchmark.

Three families, one per workload input:

  ingest    import-heavy files (~3.2x10^4 facts) with two mappings and a
            small chase on top: parse- and insert-bound.
  ptime     conference-style exchange scenarios (10^2..10^3 source tuples)
            whose mappings have joins, existentials, a negated guard,
            mixed OWA/CWA annotations and source nulls, queried only with
            positive CQ/UCQs (naive evaluation, PTIME).
  np        small scenarios for the coNP/NP minority: all-closed mappings
            with a bounded number of nulls queried with inequality,
            negation and forall; solution-space and RepA membership
            candidates; Table 1 composition pairs.

Determinism: every file is a pure function of (seed, family, index). The
shape of each file (relation sizes, number of nulls, queries) does not
depend on the seed; only the constants, the join partners and the row
order do, so op costs stay comparable across seeds while the inputs
differ.

Bounded NP work: the NP files fix the nulls each search sees (at most 5
per valuation enumeration; the RepA search maps an 8-null cycle into a
fixed acyclic graph), so every op ends in well under a second. Every op
also carries a deadline (run.py).

Usage: python3 gen.py SEED OUTDIR   (writes every file, prints the
                                     exchange families and request order)
"""

import json
import os
import random
import sys

INGEST_FILES = 3
INGEST_EVENTS = 18000
INGEST_LOGS = 12000
INGEST_EDGES = 1500

# Papers per PTIME exchange file; the source holds ~5 tuples per paper.
PTIME_PAPERS = (80, 160, 240, 320, 400, 480)

# NP-family sizes, fixed so that op costs do not depend on the seed.
# Costs grow steeply: one more null in a certain file is ~10x, one more
# employee in the composition file ~10x.
NP_CERTAIN_EMPS = (4, 3)   # nulls per certain file (one per employee)
NP_MEMBER_EDGES = 4        # solution-space candidates: one null per edge
NP_REPA_CYCLE = 8          # RepA table: a cycle of this many open nulls ...
NP_REPA_NODES = 24         # ... searched in a DAG on this many constants
NP_COMPOSE_EMPS = 5        # composition: one null per employee

WORDS = ("alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa",
         "lambda", "theta", "zeta", "iota", "rho", "tau", "phi", "chi", "psi")
KINDS = ("click", "view", "buy", "login", "logout", "share", "like", "save")
AREAS = ("db", "logic", "ml", "pl", "os", "net", "hci", "theory", "crypto",
         "vision")


def _rng(seed, family, index):
    return random.Random(seed * 1000003 + family * 1009 + index)


def _q(s):
    return "'" + s + "'"


# ---------------------------------------------------------------------------
# ingest family
# ---------------------------------------------------------------------------

def ingest_file(seed, index):
    r = _rng(seed, 1, index)
    users = ["u%d_%s" % (i, r.choice(WORDS)) for i in range(600)]
    out = []
    w = out.append
    w("# Generated by ocdxbench/gen.py (ingest family): import-heavy, the\n"
      "# Event/Log relations are read by no rule.\n")
    w("scenario 'ingest_%d';\n\n" % index)
    w("schema src {\n  Event(id, kind, usr, ts);\n  Log(k, ts, payload);\n"
      "  E(a, b);\n  Dim(k, label);\n}\n\n")
    w("schema tgt {\n  TE(a, b, tag);\n  Hop(a, c);\n  Label(k, l, note);\n}\n\n")
    w("mapping Copy from src to tgt {\n"
      "  TE(x^cl, y^cl, z^op) :- E(x, y);\n"
      "  Label(k^cl, l^cl, n^op) :- Dim(k, l);\n}\n\n")
    w("mapping Reach from src to tgt [default op] {\n"
      "  Hop(x^cl, w^op) :- E(x, y) & E(y, w);\n}\n\n")
    w("instance S over src {\n")
    ts = 1600000000 + r.randrange(1000000)
    for i in range(INGEST_EVENTS):
        ts += r.randrange(1, 50)
        w("  Event(%d, '%s', '%s', %d);\n"
          % (i, r.choice(KINDS), r.choice(users), ts))
    for i in range(INGEST_LOGS):
        w("  Log('k%d', %d, 'p%x');\n"
          % (r.randrange(2000), ts - r.randrange(10**6), r.getrandbits(40)))
    nodes = 300
    for _ in range(INGEST_EDGES):
        w("  E('n%d', 'n%d');\n" % (r.randrange(nodes), r.randrange(nodes)))
    for k in range(40):
        w("  Dim('%s', '%s');\n" % (KINDS[k % len(KINDS)] + str(k),
                                    r.choice(WORDS)))
    w("}\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# ptime exchange family
# ---------------------------------------------------------------------------

def ptime_file(seed, index):
    r = _rng(seed, 2, index)
    n = PTIME_PAPERS[index % len(PTIME_PAPERS)]
    people = ["%s%d" % (r.choice(WORDS), i) for i in range(n // 2 + 20)]
    papers = ["p%d" % i for i in range(n)]
    out = []
    w = out.append
    w("# Generated by ocdxbench/gen.py (ptime family): positive queries only.\n")
    w("scenario 'ptime_%d';\n\n" % index)
    w("schema src {\n  Paper(pid, title, yr);\n  Author(pid, person);\n"
      "  Assigned(pid, reviewer);\n  Topic(pid, area);\n"
      "  Chair(area, person);\n}\n\n")
    w("schema tgt {\n  Sub(pid, person);\n  Rev(pid, reviewer, score);\n"
      "  Track(pid, area, chair);\n  Conflict(pid, person);\n"
      "  Pending(pid, slot);\n  Reviewed(pid);\n  Waiting(pid);\n}\n\n")
    rules = (
        "  Sub(p^cl, a^%s) :- Author(p, a);\n"
        "  Rev(p^cl, r^cl, s^%s) :- Assigned(p, r);\n"
        "  Track(p^cl, ar^%s, c^cl) :- Topic(p, ar) & Chair(ar, c);\n"
        "  Conflict(p^cl, a^cl) :- Author(p, a) & Assigned(p, a);\n"
        "  Pending(p^cl, z^%s) :- Paper(p, t, y) & "
        "!exists r. Assigned(p, r);\n"
        "  Reviewed(p^cl) :- Assigned(p, r);\n"
        "  Waiting(p^cl) :- Paper(p, t, y) & !exists r. Assigned(p, r);\n")
    w("mapping Mixed from src to tgt {\n" + rules % ("op", "op", "cl", "op")
      + "}\n\n")
    w("mapping Open from src to tgt [default op] {\n"
      + rules % ("op", "op", "op", "op") + "}\n\n")
    w("instance S over src {\n")
    null_id = 0
    for p in papers:
        w("  Paper(%s, '%s %s', %d);\n"
          % (_q(p), r.choice(WORDS), r.choice(WORDS), 2000 + r.randrange(25)))
    for p in papers:
        for a in r.sample(people, 2):
            w("  Author(%s, %s);\n" % (_q(p), _q(a)))
    for i, p in enumerate(papers):
        if i % 4 == 3:
            continue  # unassigned: the negated guard fires
        revs = r.sample(people, 2)
        for rv in revs:
            w("  Assigned(%s, %s);\n" % (_q(p), _q(rv)))
    for i, p in enumerate(papers):
        if i % 10 == 9:
            null_id += 1
            w("  Topic(%s, _t%d);\n" % (_q(p), null_id))  # source null
        else:
            w("  Topic(%s, '%s');\n" % (_q(p), r.choice(AREAS)))
    for area in AREAS:
        w("  Chair('%s', %s);\n" % (area, _q(r.choice(people))))
    w("}\n\n")
    w("query submitted(p, a) 'certain authorships' {\n  Sub(p, a)\n}\n\n")
    w("query chaired(p, c) 'papers with a certain track chair' {\n"
      "  exists ar. Track(p, ar, c)\n}\n\n")
    w("query handled(p) 'reviewed or pending (UCQ)' {\n"
      "  Reviewed(p) | Waiting(p)\n}\n\n")
    w("query conflicted(p, a, c) 'conflicted authors with their chair' {\n"
      "  Conflict(p, a) & Sub(p, a) & exists ar. Track(p, ar, c)\n}\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# np family: one file per request kind
# ---------------------------------------------------------------------------

def np_certain_file(seed, index):
    """All-closed mapping with NP_CERTAIN_EMPS nulls; inequality, forall
    and negation queries."""
    r = _rng(seed, 3, index)
    names = r.sample(["%s%d" % (wd, i) for i, wd in enumerate(WORDS)],
                     NP_CERTAIN_EMPS[index % len(NP_CERTAIN_EMPS)])
    depts = r.sample(AREAS, 3)
    out = []
    w = out.append
    w("# Generated by ocdxbench/gen.py (np family, certain): all-closed\n"
      "# mapping with one null per employee, non-positive queries.\n")
    w("scenario 'np_certain_%d';\n\n" % index)
    w("schema src {\n  Emp(name, dept);\n}\n\n")
    w("schema tgt {\n  Office(name, room);\n  Dept(name, dept);\n}\n\n")
    w("mapping M from src to tgt [default cl] {\n"
      "  Office(x^cl, o^cl) :- Emp(x, d);\n"
      "  Dept(x^cl, d^cl) :- Emp(x, d);\n}\n\n")
    w("instance S over src {\n")
    for i, nm in enumerate(names):
        w("  Emp(%s, '%s');\n" % (_q(nm), depts[i % len(depts)]))
    w("}\n\n")
    w("query someone_placed() 'some employee has an office' {\n"
      "  exists x o. Office(x, o)\n}\n\n")
    w("query unique_office() 'nobody has two offices' {\n"
      "  forall x o1 o2. (Office(x, o1) & Office(x, o2)) -> o1 = o2\n}\n\n")
    w("query shared_office() 'two employees certainly share an office' {\n"
      "  exists x y o. Office(x, o) & Office(y, o) & x != y\n}\n\n")
    w("query split_dept(x) 'colleagues in different rooms' {\n"
      "  exists d y o1 o2. Dept(x, d) & Dept(y, d) & Office(x, o1) & "
      "Office(y, o2) & o1 != o2\n}\n\n")
    w("query alone(x) 'offices nobody else uses' {\n"
      "  exists o. Office(x, o) & !exists y. (Office(y, o) & y != x)\n}\n")
    return "".join(out)


def np_membership_file(seed, index):
    """Chase + RepA membership candidates and direct RepA pairs."""
    r = _rng(seed, 4, index)
    k = NP_MEMBER_EDGES
    nodes = r.sample(["%s%d" % (wd, i) for i, wd in enumerate(WORDS)], k + 1)
    edges = [(nodes[i], nodes[(i + 1) % k]) for i in range(k)]
    out = []
    w = out.append
    w("# Generated by ocdxbench/gen.py (np family, membership).\n")
    w("scenario 'np_membership_%d';\n\n" % index)
    w("schema src {\n  E(a, b);\n}\n\n")
    w("schema tgt {\n  F(a, b);\n  G(a, c);\n}\n\n")
    w("schema net {\n  L(a, b);\n}\n\n")
    w("mapping Mcl from src to tgt [default cl] {\n"
      "  F(x^cl, y^cl) :- E(x, y);\n"
      "  G(x^cl, z^cl) :- E(x, y);\n}\n\n")
    w("mapping Mop from src to tgt [default op] {\n"
      "  F(x^op, y^op) :- E(x, y);\n"
      "  G(x^op, z^op) :- E(x, y);\n}\n\n")
    w("instance S over src {\n")
    for a, b in edges:
        w("  E(%s, %s);\n" % (_q(a), _q(b)))
    w("}\n\n")
    extra = nodes[k]
    # Candidate targets: an exact image, one with a shared G witness, one
    # with an extra fact, one missing a fact.
    cands = {
        "Texact": ([(a, b) for a, b in edges],
                   [(a, "g%d" % i) for i, (a, _) in enumerate(edges)]),
        "Tshared": ([(a, b) for a, b in edges],
                    [(a, "g0") for a, _ in edges]),
        "Textra": ([(a, b) for a, b in edges] + [(extra, nodes[0])],
                   [(a, "g%d" % i) for i, (a, _) in enumerate(edges)]),
        "Tmiss": ([(a, b) for a, b in edges[1:]],
                  [(a, "g%d" % i) for i, (a, _) in enumerate(edges)]),
    }
    for name, (fs, gs) in cands.items():
        w("instance %s over tgt {\n" % name)
        for a, b in fs:
            w("  F(%s, %s);\n" % (_q(a), _q(b)))
        for a, c in gs:
            w("  G(%s, %s);\n" % (_q(a), _q(c)))
        w("}\n\n")
    w("instance A over tgt {\n")
    for i, (a, _) in enumerate(edges):
        w("  F(%s^cl, _v%d^cl);\n" % (_q(a), i))
        w("  G(%s^cl, _w%d^op);\n" % (_q(a), i % 2))
    w("}\n\n")
    # RepA search with no witness: an open cycle of nulls against an
    # acyclic ground graph, so the backtracking search is exhaustive. The
    # graph's shape is fixed; the seed only names its nodes.
    k = NP_REPA_CYCLE
    w("instance Cycle over net {\n")
    for i in range(k):
        w("  L(_c%d^op, _c%d^op);\n" % (i, (i + 1) % k))
    w("}\n\n")
    dag = ["%s_%d" % (r.choice(WORDS), i) for i in range(NP_REPA_NODES)]
    w("instance Dag over net {\n")
    for i in range(NP_REPA_NODES):
        for j in range(i + 1, NP_REPA_NODES):
            if (i * 7 + j * 3) % 5 < 3:
                w("  L(%s, %s);\n" % (_q(dag[i]), _q(dag[j])))
    w("}\n")
    return "".join(out)


def np_compose_file(seed, index):
    """A Table 1 composition pair: all-closed sigma, closed delta."""
    r = _rng(seed, 5, index)
    names = r.sample(["%s%d" % (wd, i) for i, wd in enumerate(WORDS)],
                     NP_COMPOSE_EMPS)
    depts = r.sample(AREAS, 2)
    out = []
    w = out.append
    w("# Generated by ocdxbench/gen.py (np family, compose).\n")
    w("scenario 'np_compose_%d';\n\n" % index)
    w("schema src {\n  Emp(name, dept);\n}\n\n")
    w("schema staff {\n  Staff(name, dept, desk);\n}\n\n")
    w("schema phone {\n  Listed(name);\n  Desk(dept, desk);\n}\n\n")
    w("mapping Sigma from src to staff [default cl] {\n"
      "  Staff(x^cl, y^cl, k^cl) :- Emp(x, y);\n}\n\n")
    w("mapping Delta from staff to phone [default cl] {\n"
      "  Listed(x^cl) :- exists d k. Staff(x, d, k);\n"
      "  Desk(d^cl, k^cl) :- exists x. Staff(x, d, k);\n}\n\n")
    w("instance S over src {\n")
    for i, nm in enumerate(names):
        w("  Emp(%s, '%s');\n" % (_q(nm), depts[i % 2]))
    w("}\n\n")
    w("instance W over phone {\n")
    for nm in names:
        w("  Listed(%s);\n" % _q(nm))
    for i in range(len(names)):
        w("  Desk('%s', 'd%d');\n" % (depts[i % 2], i // 2))
    w("}\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

# (generator, file count, commands sent per file, family) per exchange group.
EXCHANGE_GROUPS = (
    (ptime_file, len(PTIME_PAPERS), ("chase", "certain"), "ptime"),
    (np_certain_file, len(NP_CERTAIN_EMPS), ("certain",), "np"),
    (np_membership_file, 1, ("membership",), "np"),
    (np_compose_file, 1, ("compose",), "np"),
)


def ingest_inputs(seed):
    """{file name: text} for the ingest_batch workload."""
    return {"ingest_%d.dx" % i: ingest_file(seed, i)
            for i in range(INGEST_FILES)}


def exchange_inputs(seed):
    """({file name: text}, {file name: family}, [[command, file name]...])
    for the exchange workloads. The request order is a seeded shuffle of
    a fixed multiset, so every seed sends the same PTIME/NP split."""
    files, families, requests = {}, {}, []
    for fn, count, commands, family in EXCHANGE_GROUPS:
        for i in range(count):
            name = "%s_%d.dx" % (fn.__name__[:-len("_file")], i)
            files[name] = fn(seed, i)
            families[name] = family
            requests.extend([cmd, name] for cmd in commands)
    _rng(seed, 9, 0).shuffle(requests)
    return files, families, requests


def write_files(files, outdir):
    os.makedirs(outdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w") as f:
            f.write(text)


if __name__ == "__main__":
    seed, outdir = int(sys.argv[1]), sys.argv[2]
    write_files(ingest_inputs(seed), outdir)
    files, families, requests = exchange_inputs(seed)
    write_files(files, outdir)
    print(json.dumps({"families": families, "requests": requests}, indent=1))
