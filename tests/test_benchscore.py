"""Tests for benchmark ranking-score arithmetic and the bundled tables."""

import io

import pytest

from oodshift import (
    AccuracyTable,
    cell_score,
    cell_scores,
    load_accuracy_table,
    load_fixture,
    ranking_scores,
)

EXPECTED_DIVERSITY = {
    "RSC": 2, "MMD": 2, "SagNet": 1, "ERM": 0, "IGA": 0, "CORAL": 0,
    "IRM": -1, "VREx": -1, "GroupDRO": -1, "ERDG": -2, "DANN": -2,
    "MTL": -2, "Mixup": -2, "ANDMask": -2, "ARM": -3, "MLDG": -4,
}

EXPECTED_CORRELATION = {
    "VREx": 1, "GroupDRO": 1, "ERM": 0, "IRM": 0, "MTL": 0, "ERDG": 0,
    "ARM": 0, "MMD": -1, "RSC": -1, "IGA": -1, "CORAL": -1, "Mixup": -1,
    "MLDG": -1, "SagNet": -2, "ANDMask": -2, "DANN": -3,
}


def test_diversity_fixture_scores():
    assert ranking_scores(load_fixture("diversity")) == EXPECTED_DIVERSITY


def test_correlation_fixture_scores():
    assert ranking_scores(load_fixture("correlation")) == EXPECTED_CORRELATION


def test_fixture_datasets():
    assert load_fixture("diversity").datasets == (
        "PACS", "OfficeHome", "TerraInc", "Camelyon17"
    )
    assert load_fixture("correlation").datasets == ("ColoredMNIST", "CelebA", "NICO")


def test_cell_score_band_edges():
    # values exactly on a band edge score 0 (strict inequalities)
    assert cell_score(85.0, 85.0, 0.0) == 0
    assert cell_score(85.3, 85.0, 0.3) == 0
    assert cell_score(84.7, 85.0, 0.3) == 0
    assert cell_score(85.4, 85.0, 0.3) == 1
    assert cell_score(84.6, 85.0, 0.3) == -1


def test_cell_score_absorbs_decimal_rounding():
    # 94.7 - 0.1 is not exactly 94.6 in binary floats; the edge must
    # still count as inside the band
    assert cell_score(94.6, 94.7, 0.1) == 0
    assert cell_score(86.6, 87.2, 0.6) == 0


def test_reference_scores_zero_against_itself():
    for name in ("diversity", "correlation"):
        table = load_fixture(name)
        per_cell = cell_scores(table)
        for ds in table.datasets:
            assert per_cell[table.reference, ds] == 0


def test_ranking_scores_sum_of_cells():
    table = load_fixture("diversity")
    per_cell = cell_scores(table)
    totals = ranking_scores(table)
    for alg in table.algorithms:
        assert totals[alg] == sum(per_cell[alg, ds] for ds in table.datasets)


def test_load_accuracy_table_from_csv():
    csv_text = (
        "algorithm,dataset,mean,stderr\n"
        "ERM,D1,80.0,0.5\n"
        "ALG,D1,81.0,0.2\n"
    )
    table = load_accuracy_table(io.StringIO(csv_text))
    assert ranking_scores(table) == {"ERM": 0, "ALG": 1}


def test_load_accuracy_table_bad_header():
    with pytest.raises(ValueError, match="columns"):
        load_accuracy_table(io.StringIO("alg,ds,m,s\nERM,D1,80,0.5\n"))


def test_load_accuracy_table_rejects_repeated_row():
    csv_text = (
        "algorithm,dataset,mean,stderr\n"
        "ERM,A,80,1\n"
        "ERM,A,10,1\n"
        "X,A,85,1\n"
    )
    with pytest.raises(ValueError, match=r"repeated row \(ERM, A\)"):
        load_accuracy_table(io.StringIO(csv_text))


@pytest.mark.parametrize("column", ["mean", "stderr"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_accuracy_table_rejects_non_finite(column, value):
    cell = {"mean": "80", "stderr": "1", column: value}
    csv_text = (
        "algorithm,dataset,mean,stderr\n"
        f"ERM,A,{cell['mean']},{cell['stderr']}\n"
        "X,A,95,1\n"
    )
    with pytest.raises(ValueError, match=column):
        load_accuracy_table(io.StringIO(csv_text))


def test_table_missing_cell():
    with pytest.raises(ValueError, match="missing cell"):
        AccuracyTable(
            algorithms=("ERM", "ALG"),
            datasets=("D1", "D2"),
            cells={("ERM", "D1"): (80.0, 0.5), ("ERM", "D2"): (81.0, 0.5),
                   ("ALG", "D1"): (79.0, 0.5)},
        )


def test_table_missing_reference():
    with pytest.raises(ValueError, match="reference"):
        AccuracyTable(
            algorithms=("ALG",), datasets=("D1",),
            cells={("ALG", "D1"): (80.0, 0.5)},
        )


def test_table_rejects_invalid_cells():
    with pytest.raises(ValueError, match="mean"):
        AccuracyTable(
            algorithms=("ERM",), datasets=("D1",),
            cells={("ERM", "D1"): (101.0, 0.5)},
        )
    with pytest.raises(ValueError, match="stderr"):
        AccuracyTable(
            algorithms=("ERM",), datasets=("D1",),
            cells={("ERM", "D1"): (90.0, -0.1)},
        )


def test_score_antisymmetry_between_two_algorithms():
    # if A beats the reference band of B, then B is below A's band
    # whenever both bands have equal width
    for a_mean in (79.0, 80.0, 81.0):
        table_ab = cell_score(a_mean, 80.0, 0.4)
        table_ba = cell_score(80.0, a_mean, 0.4)
        assert table_ab == -table_ba
