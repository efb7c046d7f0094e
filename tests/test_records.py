"""The value records and Graph: each record is a NamedTuple that refuses
attribute assignment, Graph is an immutable class that compares and hashes by
(n, edges), and the canonical JSON shows a record's nested record as an
object."""

import copy
import json
import pickle

import pytest

from qspectra import (
    Graph,
    GraphFacts,
    all_bounds,
    check_spectral_lemmas,
    classify_q_pattern,
    degree_stats,
    detect_srg,
    energies,
    gamma_sequence,
    prism,
    prism_bounds,
    q_spectrum,
    reproduce_table1,
    structure,
    verify_exhaustive,
)
from qspectra.cli import main

RECORDS = {"EigenSolveReport", "Spectrum", "GammaSequence", "LemmaCheck",
           "EqualityDiagnosis", "BoundResult", "QPatternResult", "SrgResult",
           "PrismBounds", "EnergyReport", "TableRow", "TableReport",
           "VerifySummary", "DegreeStats", "StructureInfo"}


def one_of_each_record() -> list:
    f = GraphFacts(prism(4))
    bound = next(r for r in all_bounds(f) if r.diagnosis is not None)
    table = reproduce_table1()
    return [q_spectrum(f).solve, q_spectrum(f), gamma_sequence(f), check_spectral_lemmas(f)[0],
            bound.diagnosis, bound, classify_q_pattern(f), detect_srg(f), prism_bounds(4),
            energies(f), table.rows[0], table, verify_exhaustive(3),
            degree_stats(f.graph), structure(f.graph)]


def test_every_record_is_a_named_tuple_that_refuses_assignment():
    records = one_of_each_record()
    assert {type(r).__name__ for r in records} == RECORDS
    for r in records:
        assert isinstance(r, tuple) and r._fields, type(r)
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], None)
        with pytest.raises(AttributeError):
            r.not_a_field = None
        assert r._asdict() == dict(zip(r._fields, r))


def test_graph_compares_and_hashes_by_order_and_edges():
    a, b, c = Graph(3, ((0, 1),)), Graph(3, ((0, 1),)), Graph(4, ((0, 1),))
    assert a == b and hash(a) == hash(b) == hash((3, ((0, 1),)))
    assert a != c and a != (3, ((0, 1),))
    assert len({a, b, c}) == 2
    assert repr(prism(5)) == "Graph(n=10, m=15)"
    assert a.degrees == (1, 1, 0) and a.edges == ((0, 1),)
    for name in ("n", "edges", "degrees", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        del a.n
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert twin == a and twin.degrees == a.degrees and twin.edges == a.edges


def test_bounds_json_renders_the_diagnosis_as_an_object_or_null(capsys):
    # K3: three bounds are not applicable to it, the other fifteen are
    assert main(["bounds", "--graph6", "Bw", "--json"]) == 0
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    diagnoses = [b["diagnosis"] for b in bounds]
    assert [d is None for d in diagnoses] == [not b["applicable"] for b in bounds]
    assert 0 < diagnoses.count(None) < len(diagnoses)
    for d in filter(None, diagnoses):
        assert set(d) == {"tight", "condition", "condition_met", "verdict"}
