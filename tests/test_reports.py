"""Whole CLI reports pinned by SHA-256: results, checks, inputs and command.

One small job for each (group, action) of the command line, plus jobs that
pass ``--dual``, order a central arrangement, fail a check (exit 1) or
refuse their input (exit 2). Each digest is of the exact stdout bytes, so a
report that moves in any key, the checks included, fails here.
"""

import hashlib
import json
from collections import Counter

import pytest

from stratikit.cli import COMMANDS, main

LINE = {"carrier": ["N", "O", "P"], "pairs": [["O", "N"], ["O", "P"]]}
SIERPINSKI = {"carrier": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}
CHAIN = {"space": {"carrier": ["0", "1", "2"],
                   "preorder_pairs": [["0", "1"], ["1", "2"]]},
         "blocks": [["0", "2"], ["1"]]}
STRATIFIED = {"space": {"carrier": ["N", "O", "P"],
                        "preorder_pairs": [["O", "N"], ["O", "P"]]},
              "blocks": [["N"], ["O"], ["P"]]}
LINES = {"dim": 2, "forms": [[0, 1, 0], [0, 0, 1], [1, 1, -1]]}
CENTRAL = {"dim": 2, "forms": [[0, 1, 0], [0, 0, 1], [0, 1, -1]]}
IDEM = {"objects": ["*"], "homs": {"*->*": ["1", "e"]}, "identities": {"*": "1"},
        "compose": [["1", "1", "1"], ["1", "e", "e"], ["e", "1", "e"], ["e", "e", "e"]]}
HOM = {"category": IDEM, "source": "*", "target": "*", "side": "LR"}
YONEDA = {"category": IDEM, "anchor": "*", "functor": {
    "variance": "contravariant", "on_objects": {"*": ["0", "1"]},
    "on_morphisms": {"1": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "0"}}}}
PSEUDO = {"carrier": ["a", "b", "c", "d"],
          "pairs": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]}

# (argv, input document or None, exit code, SHA-256 of stdout)
JOBS = [
    (["topology", "check"], SIERPINSKI, 0,
     "10c05eb10b1401c384b7b79dabcefd57b8ae871b611a84a021ae6bba15a28479"),
    (["topology", "to-preorder"], SIERPINSKI, 0,
     "2d9716a3330c9f4b15883c34f2629402b743ff4bd0d35811ecd99dc22ebef3ca"),
    (["topology", "from-preorder"], LINE, 0,
     "f8cfdf9c2da5b4a668e595cacd0d8d6fc32a9120d48a0683c95eda6abf7ece24"),
    (["topology", "closure"], {"space": SIERPINSKI, "subset": ["b"]}, 0,
     "c0fee287043b7734c87494bc9b4c7b54ad148b4ed626f5d5131789624eb9ded6"),
    (["decomp", "analyze"], CHAIN, 0,
     "12ead0a3dfb767c88c3a24108aa422ac4600e94134ecdf2e7f6887544e4b237d"),
    (["decomp", "quotient"], CHAIN, 0,
     "225f27b42a198fc1a826156fcaaaa1b71835ea4ddd342d1148ab6a13c3b49341"),
    (["decomp", "validate"], STRATIFIED, 0,
     "05bfbf513d6664c2cd5c5305a1790bb2b8be6007e31c88d55ab0fe9e21b0a954"),
    (["decomp", "product"], {"factors": [STRATIFIED, STRATIFIED]}, 0,
     "1498dcd7a64a16eb728b83215d0b497cbf3b55e91dad632ca35d8109fd33fef5"),
    (["arrangement", "faces"], LINES, 0,
     "5ebdb1a20e7695d0e68fa5f8a11d9c248ee4d44d441d926d012da1b822766231"),
    (["arrangement", "poset"], LINES, 0,
     "db4db8c13ef4854d087390196ef79d14815d59968bef57a25abd863a7e5becba"),
    (["arrangement", "check-ob"], LINES, 0,
     "cee80b645e61f29d32e047c74d75f854b1874f01cbfa9c02ecde58f3661bfdf3"),
    (["homset", "preorder"], HOM, 0,
     "11f8dcf80204367c72a0c28710b201fbadc03c077f39c88beef654c620dca083"),
    (["homset", "stratify"], HOM, 0,
     "8771c93763d602c9cd3f7b42965a8f37dcf3a8b18b02d042c71eec708b1ec4eb"),
    (["homset", "functor-check"], {"category": IDEM, "anchor": "*", "side": "L"}, 0,
     "5b440364ae0cddb375b97761706c0d135e567e1715ee4facedc75138f33aa233"),
    (["homset", "yoneda"], YONEDA, 0,
     "5f491bb4ce12aaf4a91d5ae2cb571728603f5d47e4f316cdbe8d4a280b98ca6a"),
    (["homology", "order-complex"], PSEUDO, 0,
     "40f6195feb0d43f9cdf485e687bf344ab83e53b27e053c4433f0de57c6ca2060"),
    (["homology", "betti", "--max-dim", "2"], PSEUDO, 0,
     "299d876d27c0755690ca70d06cb9aac62be20d251e3b0035121b4575609cb778"),
    (["corpus", "list"], None, 0,
     "6245ae3154c7f541d306e0dd6f27683e85c6d086fe11d00d0b4c3c1366ece875"),
    (["corpus", "run", "monoid-idempotent"], None, 0,
     "7fbe19f0588c6ce8375ccff0a2fd57c9c95dbe097044d1ee90061e8f4db6cb7e"),
    (["corpus", "oracle", "--seed", "3", "--cases", "20"], None, 0,
     "12a2947189eb3cde4a7b9855b9b01fb98756cadb7a7aa0ad2156fb77d9359432"),
    # the order reversed on output
    (["topology", "to-preorder", "--dual"], SIERPINSKI, 0,
     "a55779819a42199a6f01f2d3aa05d76d5374c8d26b505538e0af8cbd52626eb4"),
    (["arrangement", "poset", "--dual"], LINES, 0,
     "1a02277f337d5a195a6d2f4f0c063f47562b7f433f03e33857ca8c370f6164b0"),
    (["arrangement", "check-ob", "--dual"], LINES, 0,
     "cee80b645e61f29d32e047c74d75f854b1874f01cbfa9c02ecde58f3661bfdf3"),
    (["homset", "preorder", "--dual"], HOM, 0,
     "a1a31899d990ec1667de41a016907b77709118a77e76d0589054eea6c13c9674"),
    # a central arrangement, whose report has the all-zero face check
    (["arrangement", "poset"], CENTRAL, 0,
     "454a11a178e4bcffa13abf82a3f5a1adcfce3ed2d649d61c6041291630e515f7"),
    # a failing check
    (["topology", "check"], {"carrier": ["a", "b"], "opens": [["a"], ["b"]]}, 1,
     "22691714c782992459b389be30890a3111903afaa97192493098e84625eac437"),
    (["decomp", "product"], {"factors": [STRATIFIED, CHAIN]}, 1,
     "e6f5a2e18ca045930460f33efa9918098064db17ee34c0efa0f0eebb8942d57b"),
    # refused input: an InputError at a form entry, a StructureError at ``pairs``
    (["arrangement", "faces"], {"dim": 1, "forms": [[0, "1/0"]]}, 2,
     "b6c2e4bfb45215eb75b5549e94784e953c8f26580d8ba341630fe28a0e3fe6fd"),
    (["homology", "betti"], {"carrier": ["p", "q"], "pairs": [["p", "q"], ["q", "p"]]},
     2, "ceee7b94406f08989f49059de9fe1ba137f83e59ba423e9debb2314c64358cc1"),
]


def job_ids():
    """``<argv>-exit<code>`` of each job; a later job with the id of an
    earlier one gets ``-2``, ``-3``, ... after it."""
    ids, seen = [], Counter()
    for argv, _, code, _ in JOBS:
        name = f"{'-'.join(argv)}-exit{code}"
        seen[name] += 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


@pytest.mark.parametrize("argv, doc, code, digest", JOBS, ids=job_ids())
def test_report_digest(tmp_path, capsys, argv, doc, code, digest):
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*argv, "--input", str(path)]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_every_action_has_a_pinned_report():
    pinned = {tuple(job[0][:2]) for job in JOBS if job[2] == 0}
    assert pinned == {(group, action) for group, (_, actions) in COMMANDS.items()
                      for action in actions}
