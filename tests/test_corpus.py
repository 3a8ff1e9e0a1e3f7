import pytest

from stratikit import corpus


@pytest.mark.parametrize("name", corpus.CASE_NAMES)
def test_corpus_case(name):
    results, checks, golden_doc = corpus.run_case(name)
    assert checks, "every corpus case must report checks"
    failed = [c for c in checks if not c["pass"]]
    assert not failed, failed
    assert golden_doc["provenance"] in ("exact", "finite replica")


def test_replicas_carry_a_note():
    for name in corpus.CASE_NAMES:
        doc = corpus.golden(name)
        if doc["provenance"] == "finite replica":
            assert "model" in doc["note"]


def test_unknown_case_rejected():
    with pytest.raises(KeyError):
        corpus.run_case("nope")


def test_corpus_is_complete():
    assert len(corpus.CASE_NAMES) == 11


def test_case_names_runners_and_golden_files_agree():
    assert corpus.unmatched_cases() == []
