"""A seeded mutation harness for every action that reads a document.

Each input document of the benchmark's ``reports`` pool (``perfbench/jobs.py``)
takes 1-3 random structural mutations: an atom replaced, a key deleted, a list
item duplicated, a list shuffled, or a subtree grafted from another pool
document.  The result goes through every action of the document's command
group by ``cli.main``, in process.  Each run must end with exit 0 or 1 and a
report, or with exit 2 and one error object; no exception may escape it, and
no run may pass its time budget.  An ``InputError`` refusal, and a
``CapExceeded`` with a path, must name a path that exists in the document, a
key missing from an object in it that its message quotes, or an option given
on the command line.

Byte-level cases go through the same actions: an integer literal past the
digit cap, invalid UTF-8, nesting past ``cli.MAX_DEPTH`` and a missing input
file are refused at ``$``, and a form coefficient past
``arrangement.MAX_ROW_BITS`` at its form.

Seeds 0 to 2 run by default.  ``STRATIKIT_MUTATION_SEEDS=N`` runs seeds 0 to N - 1,
for example ``STRATIKIT_MUTATION_SEEDS=20 python -m pytest tests/test_mutations.py``.
"""

import contextlib
import copy
import importlib.util
import io
import json
import os
import random
import re
import signal
import traceback
from pathlib import Path
from unittest import mock

import pytest

from stratikit import arrangement, cli
from stratikit.errors import CapExceeded, InputError, StratikitError

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
SEEDS = range(int(os.environ.get("STRATIKIT_MUTATION_SEEDS", "3")))
BUDGET_S = 5.0  # wall time one run may take

# Atoms a mutation puts in place of another: every JSON kind, labels and
# rationals that the loaders read, a "p/q" that divides by zero, and an
# integer of about 2300 digits, under the literal cap but past the
# coefficient cap.
ATOMS = [None, True, False, 0, 1, -1, 2, 3, "", "x", "p0", "a", "*", "1/0", "-3/2",
         "R", "L", "LR", "contravariant", 7 ** 2700, [], {}]


def load_pool():
    """{command group: the distinct input documents of its reports pool jobs}."""
    spec = importlib.util.spec_from_file_location("pool_jobs", JOBS)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    pool = {}
    for job in jobs.pool("reports"):
        if job.doc is not None:
            docs = pool.setdefault(job.args[0], {})
            docs.setdefault(json.dumps(job.doc, sort_keys=True), job.doc)
    return {group: list(docs.values()) for group, docs in pool.items()}


POOL = load_pool()
DONORS = [doc for docs in POOL.values() for doc in docs]


def slots(doc):
    """(container, key) of every value under the document, the document
    itself as (None, None)."""
    out = [(None, None)]
    stack = [doc] if isinstance(doc, (dict, list)) else []
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


def mutate(rng, doc):
    """One structural mutation of ``doc``, in place where it can be; the
    possibly new document."""
    kind = rng.choice(["atom", "delete", "duplicate", "shuffle", "graft"])
    everything = slots(doc)
    if kind == "graft":
        donor = rng.choice(DONORS)
        parent, key = rng.choice(slots(donor))
        value = copy.deepcopy(donor if parent is None else parent[key])
    elif kind == "atom":
        leaves = [s for s in everything if s[0] is not None
                  and not isinstance(s[0][s[1]], (dict, list))]
        # half the time an atom of the document itself, so that the result
        # often still loads and reaches the code past the loaders
        own = [p[k] for p, k in leaves]
        value = copy.deepcopy(rng.choice(own if own and rng.random() < 0.5 else ATOMS))
        everything = leaves or everything
    else:
        containers = [doc] + [p[k] for p, k in everything[1:]
                              if isinstance(p[k], (dict, list))]
        wanted = dict if kind == "delete" else list
        candidates = [c for c in containers if isinstance(c, wanted) and c]
        if not candidates:
            return doc
        node = rng.choice(candidates)
        if kind == "delete":
            del node[rng.choice(list(node))]
        elif kind == "duplicate":
            node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(node)))
        else:
            rng.shuffle(node)
        return doc
    parent, key = rng.choice(everything)
    if parent is None:
        return value
    parent[key] = value
    return doc


def options(rng, group, action):
    """Options beside ``--input`` for one run: ``--dual`` half the time where
    the action takes it, and a ``--max-dim`` from -1 to 3 on ``betti``."""
    declared = cli.COMMANDS[group][1][action][1]
    argv = []
    if "--dual" in declared and rng.random() < 0.5:
        argv.append("--dual")
    if "--max-dim" in declared and rng.random() < 0.5:
        argv += ["--max-dim", str(rng.randint(-1, 3))]
    return argv


class Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise Overrun(f"run took more than {BUDGET_S} s")


def run(argv):
    """Exit code and stdout of ``cli.main(argv)`` within the time budget, and
    the error that the run refused, or None."""
    out = io.StringIO()
    refused = []
    run_action = cli._run

    def recording(group, args):
        try:
            return run_action(group, args)
        except StratikitError as exc:
            refused.append(exc)
            raise

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), mock.patch.object(cli, "_run", recording):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), refused[0] if refused else None


def names_a_place(node, path, message=""):
    """True iff the schema path (keys joined by ".", list indices as "[i]")
    names a value under ``node``, or a key missing from an object there that
    the refusal's ``message`` quotes, as ``missing key 'forms'`` does.
    A key may itself hold "." or "[", so each key that fits is tried."""
    if not path:
        return True
    index = re.match(r"\[(\d+)\]", path)
    if index:
        i = int(index[1])
        return (isinstance(node, list) and i < len(node)
                and names_a_place(node[i], path[index.end():], message))
    path = path.removeprefix(".")
    if not isinstance(node, dict):
        return False
    for key in node:
        rest = path[len(key):]
        if (path.startswith(key) and rest[:1] in ("", ".", "[")
                and names_a_place(node[key], rest, message)):
            return True
    return re.search(r"[.\[]", path) is None and path not in node and repr(path) in message


def verdict(code, out, exc=None, document=None, argv=()):
    """None if the run ended as the contract allows, else what went wrong.
    ``exc`` is the error behind an exit 2; an ``InputError``, and a
    ``CapExceeded`` with a nonempty path, must carry a path that
    ``names_a_place`` in the input ``document`` by its message, ``$`` for the
    document itself, or an option given in ``argv``."""
    try:
        doc = json.loads(out)
    except ValueError:
        return f"exit {code} with stdout that is not one JSON document"
    if code in (0, 1):
        if not isinstance(doc, dict) or list(doc) != ["command", "inputs", "results",
                                                       "checks"]:
            return f"exit {code} without a report"
        if code != (0 if all(c["pass"] for c in doc["checks"]) else 1):
            return f"exit {code} disagrees with the checks"
        return None
    if code == 2:
        error = doc.get("error") if isinstance(doc, dict) and len(doc) == 1 else None
        if (not isinstance(error, dict) or sorted(error) != ["message", "path"]
                or not all(isinstance(v, str) for v in error.values())):
            return "exit 2 without one error object"
        path = error["path"]
        located = isinstance(exc, InputError) or isinstance(exc, CapExceeded) and path
        if located and not (
                path == "$" or path.startswith("--") and path in argv
                or path and names_a_place(document, path, error["message"])):
            return f"input refused at a path not in the document: {error}"
        return None
    return f"exit {code}"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("group", sorted(POOL))
def test_mutated_pool_documents_end_in_a_report_or_an_error_object(tmp_path, seed, group):
    rng = random.Random(f"mutations/{group}/{seed}")
    actions = [action for action, (_, declared) in cli.COMMANDS[group][1].items()
               if "--input" in declared]
    path = tmp_path / "input.json"
    failures = []
    for doc in POOL[group]:
        for action in actions:
            mutated = copy.deepcopy(doc)
            for _ in range(rng.randint(1, 3)):
                mutated = mutate(rng, mutated)
            path.write_text(json.dumps(mutated), encoding="utf-8")
            argv = [group, action, "--input", str(path), *options(rng, group, action)]
            try:
                problem = verdict(*run(argv), mutated, argv)
            except (Exception, SystemExit):  # a traceback or a usage exit
                problem = traceback.format_exc(limit=-3)
            if problem:
                failures.append(f"{' '.join(argv[:2] + argv[4:])} on "
                                f"{json.dumps(mutated)[:300]}: {problem}")
    assert failures == []


SENTINEL = "\u2603 raw bytes \u2603"  # json.dumps writes it escaped, in ASCII


def byte_cases(rng, group, doc):
    """(case, bytes of the input file or None for no file, the path it is
    refused at) for each byte-level case of one pool document.  A raw case
    takes the place of one of the document's atoms, so a nested one lies at
    least two levels deep."""
    def in_place_of_an_atom(raw):
        mutated = copy.deepcopy(doc)
        parent, key = rng.choice([(p, k) for p, k in slots(mutated)[1:]
                                  if not isinstance(p[k], (dict, list))])
        parent[key] = SENTINEL
        return json.dumps(mutated).encode().replace(json.dumps(SENTINEL).encode(), raw)

    cases = [("long integer", in_place_of_an_atom(b"7" * 5000), "$"),
             ("invalid UTF-8", in_place_of_an_atom(b'"\xff"'), "$"),
             ("nesting past the depth cap",
              in_place_of_an_atom(b"[" * cli.MAX_DEPTH + b"]" * cli.MAX_DEPTH), "$"),
             ("missing file", None, "$")]
    if group == "arrangement":
        mutated = copy.deepcopy(doc)
        i = rng.randrange(len(mutated["forms"]))
        form = mutated["forms"][i]
        # beside a nonzero entry, which no prime factor of 2^256 + 1 divides,
        # so the primitive row keeps every bit
        keep = next(j for j, c in enumerate(form) if j and c)
        form[rng.choice([j for j in range(len(form)) if j != keep])] = (
            2 ** arrangement.MAX_ROW_BITS + 1)
        cases.append(("coefficient past the cap", json.dumps(mutated).encode(),
                      f"forms[{i}]"))
    return cases


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
@pytest.mark.parametrize("group", sorted(POOL))
def test_byte_level_cases_are_refused_at_their_path(tmp_path, group):
    rng = random.Random(f"bytes/{group}")
    actions = [action for action, (_, declared) in cli.COMMANDS[group][1].items()
               if "--input" in declared]
    failures = []
    seen = set()
    for doc in POOL[group]:
        for case, data, expected in byte_cases(rng, group, doc):
            seen.add(case)
            path = tmp_path / ("missing.json" if data is None else "input.json")
            if data is not None:
                path.write_bytes(data)
            for action in actions:
                argv = [group, action, "--input", str(path)]
                try:
                    code, out, exc = run(argv)
                    problem = verdict(code, out, exc, doc, argv)
                    if not problem and (code != 2 or json.loads(out)["error"]["path"] != expected):
                        problem = f"exit {code}, not a refusal at {expected}: {out[:300]}"
                except (Exception, SystemExit):
                    problem = traceback.format_exc(limit=-3)
                if problem:
                    failures.append(f"{group} {action}, {case}: {problem}")
    assert failures == []
    assert len(seen) == (5 if group == "arrangement" else 4)


def test_paths_name_values_and_missing_keys():
    doc = {"forms": [[0, 1]], "category": {"homs": {"A->B.c": ["f"]}}}
    for path in ["forms", "forms[0]", "forms[0][1]", "category.homs.A->B.c",
                 "category.homs.A->B.c[0]"]:
        assert names_a_place(doc, path), path
    # a missing key names a place only in a refusal that says it is missing
    for path, key in [("category.identities", "identities"), ("category.homs.A", "A"),
                      ("dim", "dim")]:
        assert names_a_place(doc, path, f"missing key {key!r}"), path
        assert not names_a_place(doc, path), path
        assert not names_a_place(doc, path, "missing key 'forms'"), path
    for path in ["forms[1]", "forms[0][2]", "forms[0].x", "category.homs.A.x",
                 "category.homs.A->B.c[1]", "dim.x", "forms.x", "[0]"]:
        assert not names_a_place(doc, path, "missing key 'x'"), path


def test_located_refusals_must_name_a_place():
    doc = {"forms": [[0, 1]]}

    def refused(exc):
        out = json.dumps({"error": {"message": str(exc), "path": exc.path or ""}})
        return verdict(2, out, exc, doc)

    assert refused(CapExceeded("cap", path="forms")) is None
    assert refused(CapExceeded("cap")) is None
    assert refused(CapExceeded("cap", path="forms[1]")) is not None
    assert refused(CapExceeded("cap", path="faces")) is not None
    assert refused(InputError("bad", path="forms[0]")) is None
    assert refused(InputError("bad")) is not None
    assert refused(InputError("missing key 'dim'", path="dim")) is None
    assert refused(InputError("bad", path="dim")) is not None


def test_mutations_change_documents_and_keep_them_json():
    rng = random.Random(0)
    changed = 0
    for doc in DONORS:
        mutated = mutate(rng, copy.deepcopy(doc))
        json.dumps(mutated)
        changed += mutated != doc
    assert changed > len(DONORS) // 2


def test_every_action_that_reads_a_document_is_covered():
    covered = {(group, action) for group in POOL
               for action, (_, declared) in cli.COMMANDS[group][1].items()
               if "--input" in declared}
    every = {(group, action) for group, (_, actions) in cli.COMMANDS.items()
             for action, (_, declared) in actions.items() if "--input" in declared}
    assert covered == every
