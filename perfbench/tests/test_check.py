import copy

import check


def ope_case():
    return check.load_references("ope-desk", "tiny")["cases"]["0"]["unit"]


def test_reference_matches_itself():
    expected = ope_case()
    assert check.compare_operation(expected, copy.deepcopy(expected)) == []


def test_perturbation_beyond_tolerance_is_flagged():
    expected = ope_case()
    actual = copy.deepcopy(expected)
    row = actual["result"]["tree"]["rows"][5]
    row[2] *= 1.0 + 100 * check.REL_TOL
    mismatches = check.compare_operation(expected, actual)
    assert len(mismatches) == 1 and "rows/5/2" in mismatches[0]


def test_reassociation_sized_change_is_accepted():
    expected = ope_case()
    actual = copy.deepcopy(expected)
    actual["result"]["tree"]["rows"][5][2] *= 1.0 + 1e-12
    assert check.compare_operation(expected, actual) == []


def test_text_fields_compare_exactly():
    expected = ope_case()
    actual = copy.deepcopy(expected)
    actual["result"]["tree"]["rows"][0][0] = "bips "
    assert check.compare_operation(expected, actual)


def test_summarised_documents_flag_a_moved_value():
    tree = [{"x": [0.1 * i, 0.2 * i], "a": i % 3} for i in range(check.TREE_LEAF_LIMIT)]
    expected = check.document(tree)
    assert "stats" in expected
    swapped = copy.deepcopy(tree)
    swapped[1]["x"], swapped[2]["x"] = swapped[2]["x"], swapped[1]["x"]
    assert check.compare_document(expected, check.document(swapped))
    nudged = copy.deepcopy(tree)
    nudged[7]["x"][1] *= 1.0 + 1e-12
    assert check.compare_document(expected, check.document(nudged)) == []
    nudged[7]["x"][1] *= 1.0 + 1e-2
    assert check.compare_document(expected, check.document(nudged))
    relabelled = copy.deepcopy(tree)
    relabelled[4]["a"] += 1
    assert check.compare_document(expected, check.document(relabelled))
