"""The cap ladder: one CLI process per rung, on documents at and just past
the caps, each within TIMEOUT_S.

Each rung names a document, the command line that reads it and how (``--input``
of a file, stdin, or ``--input`` of a file that is not there), the exit code
it must end with, and what the report must say: the error's path and the
start of its message, or one field of ``results`` or ``checks``.  Every rung
must also leave stderr empty, and an exit 2 must print one error object with
exactly the keys ``message`` and ``path``.  A report is parsed only where a
rung reads it, so the large reports of the 2048-element chains are not.

Run it from any directory, with no options::

    python tests/caps.py

It prints one line per rung (name, exit code, wall seconds, report bytes and
the CLI's peak RSS), runs every rung even after a failure, and exits 1 if any
rung failed.  Documents come from the generators of ``perfbench/jobs.py`` and
``tests/catalog.py``; each is built just before its rung runs and written to a
temporary directory, where each CLI runs.  The CLI is started by a small
launcher, which times it and reads its peak RSS from ``wait4``: a child that
``subprocess`` starts by vfork counts its parent's high-water mark as its
own, and the runner's includes the documents it built.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # catalog and the depth cap come from this checkout

import catalog  # noqa: E402
from stratikit.cli import MAX_DEPTH  # noqa: E402

_spec = importlib.util.spec_from_file_location("caps_jobs", ROOT / "perfbench" / "jobs.py")
jobs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(jobs)

TIMEOUT_S = 60  # wall time one rung may take, from process start to exit


class Rung(NamedTuple):
    name: str
    argv: tuple  # CLI arguments after `python -m stratikit.cli`, without --input
    make: object  # () -> the document, or raw bytes; None for a missing file
    mode: str = "file"  # "file" (--input), "stdin", or "missing" (--input, no file)
    code: int = 0
    path: str = None  # exit 2: the error's path
    message: str = None  # exit 2: how the error's message starts
    field: tuple = ()  # keys into the report of a value that must equal ``value``
    value: object = None


# -- documents -------------------------------------------------------------------


def unreadable(case):
    """Bytes that the reader cannot take as a document."""
    return {
        "long-integer": b'{"carrier": [' + b"7" * 5000 + b'], "pairs": []}\n',
        "invalid-utf-8": b'{"carrier": ["\xff"], "pairs": []}',
        "deep-nesting": b"[" * 100_000 + b"]" * 100_000 + b"\n",
        # one level past the cap, which every Python decodes
        "past-depth-cap": (b'{"carrier": ' + b"[" * MAX_DEPTH + b"]" * MAX_DEPTH
                           + b', "pairs": []}\n'),
        "list-document": b"[]",
    }[case]


def chain(n):
    """The labels p0, ..., p(n-1) and the edges of their chain."""
    return jobs._labels("p", n), [(i, i + 1) for i in range(n - 1)]


def chain_poset(n):
    return jobs._poset_doc(*chain(n))


def chain_opens(n):
    """The chain of n points as an explicit family of its n + 1 up-sets."""
    labels = jobs._labels("p", n)
    return {"carrier": labels, "opens": [labels[i:] for i in range(n + 1)]}


def singletons(space):
    """A decomposition of ``space`` into its points."""
    return {"space": space, "blocks": [[x] for x in space["carrier"]]}


def chain_singletons(n):
    return singletons(jobs._space_doc(*chain(n)))


def antichain_singletons(n):
    return singletons(jobs._space_doc(jobs._labels("x", n), []))


def proper_boolean(n):
    """The proper part of the Boolean lattice B_n: the subsets of n points other
    than the empty one and the whole, as n-bit strings, under inclusion."""
    masks = range(1, (1 << n) - 1)
    return jobs._poset_doc([format(m, f"0{n}b") for m in masks],
                           [(a - 1, b - 1) for a in masks for b in masks if a != b and a & b == a])


X16 = jobs._labels("x", 16)
LATE_ESCAPE = f"intersection escape: {tuple(X16[:1] + X16[2:])} & {tuple(X16[1:])} not open"


def late_escape():
    """Every subset of x0..x14, the carrier X, X minus x0 and X minus x1: the
    one escaping pair, the last two, is the third pair from the last of a scan
    over every pair of the 32,771 opens in canonical order."""
    opens = [jobs._mask_labels(X16, m) for m in range(1 << 15)]
    return {"carrier": X16, "opens": opens + [X16, X16[1:], X16[:1] + X16[2:]]}


def arrangement(seed, dim, k):
    """k forms in general position, with coefficients in [-5, 5]."""
    return jobs._arrangement(random.Random(seed), dim, k)


def central(seed, dim, k):
    """``arrangement(seed, dim, k)`` with every constant set to 0."""
    arr = arrangement(seed, dim, k)
    arr["forms"] = [[0, *form[1:]] for form in arr["forms"]]
    return arr


def random_forms(seed, dim, k, bound):
    """k forms with seeded coefficients in [-bound, bound], in no chosen position."""
    rng = random.Random(seed)
    return {"dim": dim, "forms": [[rng.randint(-bound, bound) for _ in range(dim + 1)]
                                  for _ in range(k)]}


def r5_past_the_face_cap():
    """12 seeded forms in R^5, each with a nonzero x1 coefficient: 35,313 faces."""
    arr = random_forms(5, 5, 12, 5)
    for form in arr["forms"]:
        form[1] = form[1] or 1
    return arr


def homset(maps, **keys):
    """A ``homset`` document on the monoid of the self-maps ``maps()``."""
    return {"category": catalog.monoid_document(maps()), **keys}


def redirected_t2_cubed():
    """T2^3 with the composite t1 . t1 sent to another map of its hom-set: it
    breaks associativity but neither identity law, so the whole law pass runs
    before the refusal."""
    doc = homset(catalog.cube_of_all_maps2, source="*", target="*", side="R")
    row = doc["category"]["compose"][65]  # t1 . t1, the identity t0 is neither factor
    row[2] = next(h for h in doc["category"]["homs"]["*->*"][1:] if h != row[2])
    return doc


# -- the ladder ------------------------------------------------------------------

FROM_PREORDER = ("topology", "from-preorder")
CARRIER_CAP = "carrier has 4097 elements, cap is 4096"
CHAIN_CAP = "chain count exceeds cap 5000"
OPENS_CAP = "refusing to enumerate more than 65536 open sets"
PAIRS_CAP = "preorder has 8386560 related pairs, cap is 2097152"
FACES_CAP = "arrangement has more than 4096 faces, cap is 4096"
NO_DISAGREEMENT = {"field": ("results", "disagreements"), "value": []}

RUNGS = [
    # Documents the reader cannot take, from a file and from stdin alike.
    *(Rung(f"unreadable {case} {mode}", FROM_PREORDER, partial(unreadable, case), mode,
           code=2, path="$")
      for case in ("long-integer", "invalid-utf-8", "deep-nesting", "past-depth-cap",
                   "list-document")
      for mode in ("file", "stdin")),
    Rung("unreadable missing-file", FROM_PREORDER, None, "missing", code=2, path="$"),
    Rung("topology from-preorder chain-4097", FROM_PREORDER, partial(chain_poset, 4097),
         code=2, path="carrier", message=CARRIER_CAP),
    # A DOT file that cannot be written is refused at its option; the CLI runs
    # in the temporary directory, where the directory named is missing.
    Rung("topology from-preorder --dot missing-dir",
         (*FROM_PREORDER, "--dot", "missing-directory/order.dot"), partial(chain_poset, 3),
         code=2, path="--dot", message="cannot write DOT file: "),
    # refused before any open is read
    Rung("topology to-preorder chain-4097 opens", ("topology", "to-preorder"),
         partial(chain_opens, 4097), code=2, path="carrier", message=CARRIER_CAP),

    # T2^3 at the 64-morphism category cap, and T4 past it.
    Rung("homset yoneda T2^3", ("homset", "yoneda"),
         lambda: catalog.yoneda_document(catalog.cube_of_all_maps2())),
    *(Rung(f"homset functor-check T2^3 {side}", ("homset", "functor-check"),
           partial(homset, catalog.cube_of_all_maps2, anchor="*", side=side))
      for side in ("R", "L")),
    *(Rung(f"homset stratify T2^3 {side}", ("homset", "stratify"),
           partial(homset, catalog.cube_of_all_maps2, source="*", target="*", side=side))
      for side in ("R", "L", "LR")),
    Rung("homset preorder T2^3 redirected", ("homset", "preorder"), redirected_t2_cubed,
         code=2, path="category.compose", message="associativity fails at"),
    Rung("homset preorder T4", ("homset", "preorder"),
         partial(homset, partial(catalog.all_maps, 4), source="*", target="*", side="R"),
         code=2, path="category.homs", message="category has 256 morphisms, cap is 64"),

    # The chain cap: proper B6 (4682 chains) is read, proper B7 and chains of
    # 1500 and 4096 elements are refused; the chain search keeps its own stack,
    # and chains are counted before any is filed.
    *(rung for action in ("betti", "order-complex") for rung in (
        Rung(f"homology {action} proper-B6", ("homology", action),
             partial(proper_boolean, 6)),
        Rung(f"homology {action} proper-B7", ("homology", action),
             partial(proper_boolean, 7), code=2, message=CHAIN_CAP),
        *(Rung(f"homology {action} chain-{n}", ("homology", action),
               partial(chain_poset, n), code=2, message=CHAIN_CAP)
          for n in (1500, 4096)))),

    # Points and opens at the carrier, open-family and related-pair caps.
    Rung("decomp validate chain-4096 singletons", ("decomp", "validate"),
         partial(chain_singletons, 4096)),
    Rung("decomp validate antichain-4096 singletons", ("decomp", "validate"),
         partial(antichain_singletons, 4096)),
    *(rung for action in ("analyze", "quotient") for rung in (
        Rung(f"decomp {action} antichain-16 singletons", ("decomp", action),
             partial(antichain_singletons, 16)),
        Rung(f"decomp {action} antichain-17 singletons", ("decomp", action),
             partial(antichain_singletons, 17), code=2, message=OPENS_CAP))),
    # A report that lists every related pair grows as n^2: the 2048-element
    # chain is listed, the 4096-element one refused before any pair is.
    Rung("decomp analyze chain-2048 singletons", ("decomp", "analyze"),
         partial(chain_singletons, 2048)),
    Rung("topology to-preorder chain-2048 opens", ("topology", "to-preorder"),
         partial(chain_opens, 2048)),
    Rung("decomp analyze chain-4096 singletons", ("decomp", "analyze"),
         partial(chain_singletons, 4096), code=2, message=PAIRS_CAP),
    Rung("topology to-preorder chain-4096 opens", ("topology", "to-preorder"),
         partial(chain_opens, 4096), code=2, message=PAIRS_CAP),
    Rung("topology check late-escape-16", ("topology", "check"), late_escape,
         code=1, field=("checks", 0, "detail"), value=LATE_ESCAPE),

    # Arrangements: faces solves, poset and check-ob read the cocircuits.
    Rung("arrangement faces R3 k=12", ("arrangement", "faces"), partial(arrangement, 3, 3, 12)),
    Rung("arrangement faces R3 k=12 256-bit", ("arrangement", "faces"),
         partial(random_forms, 3, 3, 12, 2 ** 256 - 1), field=("results", "count"), value=2049),
    Rung("arrangement check-ob R3 k=12 256-bit", ("arrangement", "check-ob"),
         partial(random_forms, 3, 3, 12, 2 ** 256 - 1), **NO_DISAGREEMENT),
    *(Rung(f"arrangement {action} R3 k=8 400-digit", ("arrangement", action),
           partial(random_forms, 1, 3, 8, 10 ** 400), code=2, path="forms[0]")
      for action in ("faces", "poset", "check-ob")),
    # Rational strings are read by one grammar on every Python, and a part past
    # the literal cap is refused before it is read.
    Rung("arrangement faces rational '1/ 2'", ("arrangement", "faces"),
         lambda: {"dim": 1, "forms": [["1/ 2", 1]]}, code=2, path="forms[0][0]",
         message="cannot parse rational '1/ 2'"),
    Rung("arrangement faces rational 4301-digit part", ("arrangement", "faces"),
         lambda: {"dim": 1, "forms": [["1" * 4301 + "/3", 1]]}, code=2, path="forms[0][0]",
         message="rational part has 4301 digits, cap is 4300"),
    Rung("arrangement poset R3 k=12 central", ("arrangement", "poset"),
         partial(central, 3, 3, 12)),
    Rung("arrangement faces R4 k=9", ("arrangement", "faces"), partial(arrangement, 1, 4, 9),
         field=("results", "count"), value=2851),
    *(Rung(f"arrangement {action} R4 k=10", ("arrangement", action),
           partial(arrangement, 1, 4, 10), code=2, path="forms", message=FACES_CAP)
      for action in ("faces", "poset")),
    # Fourier-Motzkin's row cap stops faces from R^5 on.
    *(Rung(f"arrangement faces R{dim} k={k}", ("arrangement", "faces"),
           partial(arrangement, 1, dim, k), code=2, path="forms", message="eliminating x")
      for dim, k in ((5, 8), (6, 7))),
    *(rung for dim, k in ((5, 8), (6, 7)) for rung in (
        Rung(f"arrangement poset R{dim} k={k}", ("arrangement", "poset"),
             partial(arrangement, 1, dim, k)),
        Rung(f"arrangement check-ob R{dim} k={k}", ("arrangement", "check-ob"),
             partial(arrangement, 1, dim, k), **NO_DISAGREEMENT))),
    *(Rung(f"arrangement {action} R5 k=12", ("arrangement", action), r5_past_the_face_cap,
           code=2, path="forms", message=FACES_CAP)
      for action in ("faces", "poset")),
]


# -- the runner ------------------------------------------------------------------


def cli_args(rung, input_path):
    """The command line after ``python -m stratikit.cli`` that reads the
    rung's document at ``input_path``."""
    return [*rung.argv, *(() if rung.mode == "stdin" else ("--input", str(input_path)))]


def _said(rung, out):
    """What the report in the file ``out`` fails to say, or None."""
    if rung.code == 2:
        doc = json.loads(out.read_bytes())
        error = doc["error"]
        if list(doc) != ["error"] or sorted(error) != ["message", "path"]:
            return f"not one error object: {doc!r:.200}"
        if rung.path is not None and error["path"] != rung.path:
            return f"path {error['path']!r}, expected {rung.path!r}"
        if rung.message is not None and not error["message"].startswith(rung.message):
            return f"message {error['message']!r:.200} does not start {rung.message!r}"
    if rung.field:
        value = json.loads(out.read_bytes())
        for key in rung.field:
            value = value[key]
        if value != rung.value:
            where = ".".join(map(str, rung.field))
            return f"{where} is {value!r:.200}, expected {rung.value!r:.200}"
    return None


# Started with -S, so that the launcher stays small; its child, the CLI,
# starts as usual.  It writes "exit-code seconds max-RSS-in-kB" to a file.
LAUNCHER = """\
import os, signal, sys, time
result, timeout, *argv = sys.argv[1:]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.setitimer(signal.ITIMER_REAL, float(timeout))
_, status, usage = os.wait4(pid, 0)
seconds = time.perf_counter() - start
with open(result, "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {seconds} {usage.ru_maxrss}")
"""


class Outcome(NamedTuple):
    code: int  # negative: killed by that signal
    seconds: float  # wall time of the CLI process, from spawn to reap
    report_bytes: int
    peak_rss_mb: float
    problem: str = None  # what went wrong, or None


def run(rung, workdir, env):
    """The ``Outcome`` of one rung."""
    document, out, err = workdir / "input.json", workdir / "stdout", workdir / "stderr"
    usage = workdir / "usage"
    document.unlink(missing_ok=True)
    if rung.mode != "missing":
        data = rung.make()
        document.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
        del data  # so that no large document stays in memory while the child runs
    command = [sys.executable, "-W", "error", "-m", "stratikit.cli", *cli_args(rung, document)]
    with (open(document if rung.mode == "stdin" else os.devnull, "rb") as stdin,
          open(out, "wb") as stdout, open(err, "wb") as stderr):
        subprocess.run([sys.executable, "-S", "-c", LAUNCHER, usage, str(TIMEOUT_S), *command],
                       stdin=stdin, stdout=stdout, stderr=stderr, env=env, cwd=workdir,
                       check=True)
    code, seconds, kb = usage.read_text().split()
    outcome = Outcome(int(code), float(seconds), out.stat().st_size, int(kb) / 1024)
    return outcome._replace(problem=_problem(rung, outcome, out, err))


def _problem(rung, outcome, out, err):
    """What went wrong in a rung's run, or None."""
    if outcome.seconds >= TIMEOUT_S:
        return f"no exit within {TIMEOUT_S} s"
    if outcome.code != rung.code:
        return f"exit {outcome.code}, expected {rung.code}"
    if err.stat().st_size:
        return f"stderr: {err.read_text(errors='replace')[:200]!r}"
    try:
        return _said(rung, out)
    except (ValueError, LookupError, TypeError) as exc:  # no report of the expected shape
        return f"stdout does not hold the report: {exc!r:.200}"


def main():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    failed = []
    with tempfile.TemporaryDirectory(prefix="stratikit-caps-") as workdir:
        for rung in RUNGS:
            outcome = run(rung, Path(workdir), env)
            line = (f"{rung.name:<44} exit {outcome.code:<3} {outcome.seconds:6.2f} s "
                    f"{outcome.report_bytes:>11} B {outcome.peak_rss_mb:7.1f} MB")
            print(line + (f"  FAILED: {outcome.problem}" if outcome.problem else ""), flush=True)
            if outcome.problem:
                failed.append(rung.name)
    print(f"{len(RUNGS) - len(failed)} of {len(RUNGS)} rungs passed"
          + (": failed " + ", ".join(failed) if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
