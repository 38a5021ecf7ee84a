import hashlib
import io
import json
import time
from fractions import Fraction
from random import Random

import pytest

from timemachine import (
    Distribution,
    Instance,
    InstanceFormatError,
    StochasticMatrix,
    artifact_from_document,
    branch_and_bound_solve,
    decide_threshold,
    decode_assignment,
    encode_reduction,
    evaluate_plan,
    parse_dimacs,
    read_instance,
    read_plan,
    satisfying_plan,
    write_artifact,
    write_instance,
    write_plan,
)

from timemachine.cli import main
from timemachine.instance_io import MAX_ENTRIES

from helpers import (
    all_patterns_formula,
    instance_v1_text,
    instance_v2_text,
    planted_formula,
    random_instance,
    random_sparse_float_instance,
    single_clause_formula,
)


def roundtrip_text(instance, meta=None):
    buf = io.StringIO()
    write_instance(instance, buf, reduction_meta=meta)
    return buf.getvalue()


class TestDimacs:
    def test_basic_single_clause(self):
        num_vars, clauses = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        assert num_vars == 3
        assert clauses == [[(0, 1), (1, 1), (2, 1)]]

    def test_two_binary_clauses(self):
        num_vars, clauses = parse_dimacs("p cnf 2 2\n1 -2 0\n-1 2 0\n")
        assert num_vars == 2
        assert clauses == [[(0, 1), (1, -1)], [(0, -1), (1, 1)]]

    def test_clause_count_mismatch(self):
        with pytest.raises(ValueError, match="promises 2"):
            parse_dimacs("p cnf 2 2\n1 -2 0\n")

    def test_clause_spanning_lines_and_comments(self):
        text = "c comment\np cnf 4 1\nc mid comment\n1 2\n3 0\n"
        num_vars, clauses = parse_dimacs(text)
        assert clauses == [[(0, 1), (1, 1), (2, 1)]]

    def test_two_clauses_sharing_a_line(self):
        _, clauses = parse_dimacs("p cnf 2 2\n1 0 -2 0\n")
        assert clauses == [[(0, 1)], [(1, -1)]]

    def test_missing_terminator(self):
        with pytest.raises(ValueError, match="terminating 0"):
            parse_dimacs("p cnf 2 1\n1 -2\n")

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_dimacs("p cnf 2 1\n1 3 0\n")

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_dimacs("1 2 0\n")

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="malformed header"):
            parse_dimacs("p sat 2 1\n1 0\n")


class TestInstanceRoundtrip:
    @pytest.mark.parametrize("formula_builder", [single_clause_formula, all_patterns_formula])
    def test_reduction_artifact_roundtrips_bit_identically(self, formula_builder):
        art = encode_reduction(formula_builder())
        buf = io.StringIO()
        write_artifact(art, buf)
        first = buf.getvalue()

        doc = read_instance(io.StringIO(first))
        assert doc.instance == art.instance
        assert doc.reduction_meta is not None
        assert doc.reduction_meta.state_table == art.state_table
        assert doc.reduction_meta.matrix_table == art.matrix_table
        assert doc.reduction_meta.p == art.p

        second = roundtrip_text(doc.instance, doc.reduction_meta)
        assert second == first

    def test_reloaded_artifact_supports_decode(self):
        art = encode_reduction(single_clause_formula())
        buf = io.StringIO()
        write_artifact(art, buf)
        doc = read_instance(io.StringIO(buf.getvalue()))
        loaded = artifact_from_document(doc)
        plan = satisfying_plan(art, (1, 1, -1))
        assert evaluate_plan(loaded.instance, plan) == 1
        assert decode_assignment(loaded, plan) == (1, 1, -1)

    def test_float_instance_roundtrips_identically(self):
        rng = Random(13)
        inst = random_instance(rng, 4, 3, 5, mode="float")
        first = roundtrip_text(inst)
        doc = read_instance(io.StringIO(first))
        assert doc.instance == inst
        assert roundtrip_text(doc.instance) == first

    def test_float_row_sum_within_tolerance_accepted(self):
        row = (0.4999999999, 0.5)  # sums to 0.9999999999, inside 1e-9
        inst = Instance(
            matrices=(StochasticMatrix((row, (0.0, 1.0))),),
            N=1,
            numeric_mode="float",
        )
        doc = read_instance(io.StringIO(roundtrip_text(inst)))
        assert doc.instance.matrices[0].rows[0] == row

    def test_zero_denominator_rejected(self):
        art = encode_reduction(single_clause_formula())
        text = roundtrip_text(art.instance)
        broken = text.replace("\"1/1\"", "\"1/0\"", 1)
        with pytest.raises(InstanceFormatError, match="denominator"):
            read_instance(io.StringIO(broken))

    def test_version_mismatch_rejected(self):
        art = encode_reduction(single_clause_formula())
        payload = json.loads(roundtrip_text(art.instance))
        # version 3 is read; true and 1.0 are not the integer 1
        for version in (4, True, 1.0, "2"):
            payload["format_version"] = version
            with pytest.raises(InstanceFormatError, match="format_version"):
                read_instance(io.StringIO(json.dumps(payload)))

    def test_invariant_violations_rejected_on_read(self):
        payload = json.loads(instance_v1_text(Instance(
            matrices=(StochasticMatrix.identity(2, "float"),),
            N=1,
            numeric_mode="float",
        )))
        assert payload["format_version"] == 1
        payload["matrices"][0][0] = [0.7, 0.7]
        with pytest.raises(InstanceFormatError, match="invalid instance"):
            read_instance(io.StringIO(json.dumps(payload)))

    def test_invariant_violations_rejected_on_read_v2(self):
        payload = json.loads(instance_v2_text(Instance(
            matrices=(StochasticMatrix.identity(2, "float"),),
            N=1,
            numeric_mode="float",
        )))
        assert payload["format_version"] == 2
        payload["matrices"][0][0] = [[0, 0.7], [1, 0.7]]
        with pytest.raises(InstanceFormatError, match="invalid instance"):
            read_instance(io.StringIO(json.dumps(payload)))

    def test_invariant_violations_rejected_on_read_v3(self):
        payload = json.loads(roundtrip_text(Instance(
            matrices=(StochasticMatrix.identity(2, "float"),),
            N=1,
            numeric_mode="float",
        )))
        assert payload["format_version"] == 3
        payload["rows"] = [[[0, 0.7], [1, 0.7]]]
        payload["matrices"][0] = [[0, 0]]
        with pytest.raises(InstanceFormatError, match="invalid instance"):
            read_instance(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize("table", ["state_table", "matrix_table"])
    def test_boolean_table_index_rejected(self, table):
        art = encode_reduction(single_clause_formula())
        buf = io.StringIO()
        write_artifact(art, buf)
        payload = json.loads(buf.getvalue())
        name = next(iter(payload["reduction_meta"][table]))
        payload["reduction_meta"][table][name] = True
        with pytest.raises(InstanceFormatError, match=table):
            read_instance(io.StringIO(json.dumps(payload)))

    def test_non_finite_numbers_rejected(self):
        payload = roundtrip_text(Instance(
            matrices=(StochasticMatrix.identity(2, "float"),),
            N=1,
            numeric_mode="float",
        )).replace("1.0", "NaN", 1)
        with pytest.raises(InstanceFormatError):
            read_instance(io.StringIO(payload))

    def test_deep_nesting_rejected(self):
        with pytest.raises(InstanceFormatError, match="nests too deeply"):
            read_instance(io.StringIO("[" * 100000 + "]" * 100000))

    def test_labels_preserved(self):
        art = encode_reduction(single_clause_formula())
        doc = read_instance(io.StringIO(roundtrip_text(
            art.instance,
        )))
        assert [m.label for m in doc.instance.matrices] == [
            m.label for m in art.instance.matrices
        ]


class TestLabels:
    """The writer refuses a label the reader would reject, before it opens
    the file."""

    @staticmethod
    def labeled(*labels):
        return Instance(
            matrices=tuple(StochasticMatrix.identity(2, label=label) for label in labels),
            N=1,
            numeric_mode="exact",
        )

    @pytest.mark.parametrize("label", [7, float("nan"), ("S",)])
    def test_bad_label_raises_and_writes_no_file(self, label, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError, match=r"^matrix 1: label .* must be a string or None$"):
            write_instance(self.labeled("S", label), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("labels", [("S", None), (None, None), ("", "F")])
    def test_string_and_none_labels_roundtrip(self, labels, tmp_path):
        path = str(tmp_path / "ok.json")
        write_instance(self.labeled(*labels), path)
        assert tuple(m.label for m in read_instance(path).instance.matrices) == labels


def _meta_of(art):
    """The reduction_meta of the artifact's document, as read back."""
    buf = io.StringIO()
    write_artifact(art, buf)
    return read_instance(io.StringIO(buf.getvalue())).reduction_meta


class TestWrittenBytes:
    """Documents written from the instance check's sparse rows, pinned by
    the sha256 of their text."""

    def test_all_patterns_artifact(self):
        buf = io.StringIO()
        write_artifact(encode_reduction(all_patterns_formula()), buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == "967522a1b63fe044516a057d625a5f00cce8ada6dc6b02b8edcb64931b35cdde"

    def test_float_instance_with_signed_zeros(self):
        inst = random_sparse_float_instance(Random(7400), 6, 3, 4)
        digest = hashlib.sha256(roundtrip_text(inst).encode()).hexdigest()
        assert digest == "1b99e625f73783726bff35a9b2c36cf80ce1b05bc317aa9b2f26c87ea82f0662"

    def test_v2_helper_writes_the_version_2_bytes(self):
        """The test-side version-2 text is byte for byte what the library
        wrote as version 2, pinned by the digests it had then."""
        art = encode_reduction(all_patterns_formula())
        digest = hashlib.sha256(instance_v2_text(art.instance, _meta_of(art)).encode()).hexdigest()
        assert digest == "43ebaaabd84aadf521dde654383c6b6a858303bef2d49287b463686b4abfcdb1"
        inst = random_sparse_float_instance(Random(7400), 6, 3, 4)
        digest = hashlib.sha256(instance_v2_text(inst).encode()).hexdigest()
        assert digest == "691c1f8795a9903a88154b8912aa41b1ceceec262ed0dc7c74a5d5d3e5021282"


class TestDocumentSize:
    @pytest.mark.parametrize("seed", range(3))
    def test_dense_float_document_grows_by_at_most_one_pair_per_row(self, seed):
        inst = random_instance(Random(seed), 5, 4, 3, mode="float")
        v3 = roundtrip_text(inst)
        pairs = [pair for matrix in json.loads(v3)["matrices"] for pair in matrix]
        # each pair as ", [i, id]", and the "rows" key once
        grown = sum(len(json.dumps(pair)) + 2 for pair in pairs) + len(', "rows": []')
        assert len(v3) <= len(instance_v2_text(inst)) + grown

    def test_all_patterns_document_is_under_half_of_version_2(self):
        art = encode_reduction(all_patterns_formula())
        meta = _meta_of(art)
        v3, v2 = roundtrip_text(art.instance, meta), instance_v2_text(art.instance, meta)
        assert len(v3) < len(v2) / 2


class TestSparseFormat:
    def test_rows_hold_only_nonzero_pairs(self):
        inst = Instance(
            matrices=(StochasticMatrix(((0.25, 0.0, 0.75), (0.0, 1.0, 0.0), (-0.0, 0.5, 0.5))),),
            N=1,
            start=Distribution((0.0, 1.0, 0.0)),
            numeric_mode="float",
        )
        payload = json.loads(instance_v2_text(inst))
        assert payload["format_version"] == 2
        assert payload["start"] == [0.0, 1.0, 0.0]
        assert payload["matrices"] == [[[[0, 0.25], [2, 0.75]], [[1, 1.0]], [[1, 0.5], [2, 0.5]]]]
        read_back = read_instance(io.StringIO(json.dumps(payload))).instance
        assert read_back == inst
        # the omitted -0.0 comes back as 0.0
        assert str(read_back.matrices[0].rows[2][0]) == "0.0"

    def test_unit_rows_are_left_implicit(self):
        split, e1 = (0.25, 0.0, 0.75), (0.0, 1.0, 0.0)
        inst = Instance(
            matrices=(
                StochasticMatrix((split, e1, e1)),
                StochasticMatrix((e1, split, (0.0, 0.0, 1.0))),
            ),
            N=1,
            numeric_mode="float",
        )
        payload = json.loads(roundtrip_text(inst))
        assert payload["format_version"] == 3
        # e1 is a unit row at place 1 only; each row object is listed once
        assert payload["rows"] == [[[0, 0.25], [2, 0.75]], [[1, 1.0]]]
        assert payload["matrices"] == [[[0, 0], [2, 1]], [[0, 1], [1, 0]]]
        read_back = read_instance(io.StringIO(json.dumps(payload))).instance
        assert read_back == inst
        # every e_1 read, listed or implicit, is one tuple
        rows = read_back.matrices[0].rows + read_back.matrices[1].rows
        assert rows[1] is rows[2] is rows[3]

    def test_listed_unit_rows_read_as_the_shared_tuple(self):
        # e_1 written three ways: with a "2/2" entry, with a zero pair, and
        # left implicit at place 1
        payload = {
            "format_version": 3, "numeric_mode": "exact", "d": 2, "K": 2, "N": 1, "target": 1,
            "start": ["1/1", "0/1"],
            "rows": [[[1, "2/2"]], [[0, "0/1"], [1, "1/1"]]],
            "matrices": [[[0, 0]], [[0, 1]]],
        }
        inst = read_instance(io.StringIO(json.dumps(payload))).instance
        rows = [row for m in inst.matrices for row in m.rows]
        assert rows[0] == (0, 1)
        assert len({id(row) for row in rows}) == 1

    def test_identical_rows_share_one_tuple(self):
        art = encode_reduction(all_patterns_formula())
        doc = read_instance(io.StringIO(roundtrip_text(art.instance)))
        rows = [row for m in doc.instance.matrices for row in m.rows]
        assert len(rows) == 58 * 20
        # equal rows are one object; a reduction instance has at most d + 1 distinct rows
        assert len({id(row) for row in rows}) == len(set(rows)) <= doc.instance.d + 1


def _equivalence_cases():
    rng = Random(2024)
    cases = [(encode_reduction(single_clause_formula()).instance, 1)]
    for n, m in ((4, 4), (5, 5)):
        _, formula = planted_formula(rng, n, m)
        cases.append((encode_reduction(formula).instance, 1))
    for seed in range(3):
        seeded = Random(seed)
        cases.append((random_instance(seeded, 4, 3, 4, mode="float"), None))
        cases.append((random_instance(seeded, 3, 3, 4, mode="exact"), None))
    return cases


class TestVersionEquivalence:
    """Version-1, version-2 and version-3 documents of one instance read
    back as equal instances, on which the solvers give the same answers."""

    @pytest.mark.parametrize("inst, alpha", _equivalence_cases())
    def test_v1_v2_and_v3_reads_agree(self, inst, alpha):
        texts = (instance_v1_text(inst), instance_v2_text(inst), roundtrip_text(inst))
        assert [json.loads(text)["format_version"] for text in texts] == [1, 2, 3]
        reads = [read_instance(io.StringIO(text)).instance for text in texts]
        assert reads[0] == reads[1] == reads[2] == inst
        bnb = [
            (r.value, r.plan, r.nodes_explored, r.nodes_pruned)
            for r in map(branch_and_bound_solve, reads)
        ]
        assert bnb[0] == bnb[1] == bnb[2]
        if alpha is None:
            alpha = bnb[0][0]
        decisions = [decide_threshold(x, alpha) for x in reads]
        assert decisions[0] == decisions[1] == decisions[2]
        assert decisions[0][0]

    def test_reduction_meta_reads_the_same(self):
        art = encode_reduction(single_clause_formula())
        meta = _meta_of(art)
        for text in (instance_v1_text, instance_v2_text):
            older = read_instance(io.StringIO(text(art.instance, meta)))
            assert older.reduction_meta == meta
            assert older.instance == art.instance


def _exact_instance():
    shift = StochasticMatrix(((Fraction(0), Fraction(1), Fraction(0)),) * 3)
    return Instance(
        matrices=(StochasticMatrix.identity(3), shift), N=2, numeric_mode="exact"
    )


def _float_instance():
    shift = StochasticMatrix(((0.0, 1.0, 0.0),) * 3)
    return Instance(
        matrices=(StochasticMatrix.identity(3, "float"), shift), N=2, numeric_mode="float"
    )


def _exact_base():
    """A small exact version-2 document; matrix 1 row 0 is [[1, "1/1"]]."""
    return json.loads(instance_v2_text(_exact_instance()))


def _float_base():
    return json.loads(instance_v2_text(_float_instance()))


# (name, base document, replacement for matrix 1 row 0)
MALFORMED_V2 = [
    ("row is a string", _exact_base, "1 1/1"),
    ("row is an object", _exact_base, {"1": "1/1"}),
    ("row is a dense v1 row", _exact_base, ["0/1", "1/1", "0/1"]),
    ("pair too short", _exact_base, [[1]]),
    ("pair too long", _exact_base, [[1, "1/1", 0]]),
    ("pair is a string", _exact_base, ["1/1"]),
    ("column is a bool", _exact_base, [[True, "1/1"]]),
    ("column is a float", _exact_base, [[1.0, "1/1"]]),
    ("column is negative", _exact_base, [[-1, "1/1"]]),
    ("column is d", _exact_base, [[3, "1/1"]]),
    ("column is a string", _exact_base, [["1", "1/1"]]),
    ("column repeated", _exact_base, [[1, "1/2"], [1, "1/2"]]),
    ("column descending", _exact_base, [[2, "1/2"], [1, "1/2"]]),
    ("exact value is a float", _exact_base, [[1, 1.0]]),
    ("exact value is a list", _exact_base, [[1, ["1/1"]]]),
    ("exact value has a zero denominator", _exact_base, [[1, "1/0"]]),
    ("exact value is not a rational", _exact_base, [[1, "one"]]),
    ("row mass is not 1", _exact_base, [[1, "1/2"]]),
    ("float value is a string", _float_base, [[1, "1/1"]]),
    ("float value is a bool", _float_base, [[1, True]]),
    ("float value is NaN", _float_base, [[1, float("nan")]]),
    ("float value overflows", _float_base, [[1, 10**400]]),
    ("float column is a bool", _float_base, [[True, 1.0]]),
]


class TestMalformedV2:
    @pytest.mark.parametrize("base", [_exact_base, _float_base])
    def test_unmutated_bases_read(self, base):
        payload = base()
        assert payload["format_version"] == 2
        read_instance(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize("name, base, row", MALFORMED_V2, ids=[c[0] for c in MALFORMED_V2])
    def test_read_instance_raises_format_error(self, name, base, row):
        payload = base()
        payload["matrices"][1][0] = row
        with pytest.raises(InstanceFormatError):
            read_instance(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize("name, base, row", MALFORMED_V2, ids=[c[0] for c in MALFORMED_V2])
    def test_cli_reports_one_error_line(self, name, base, row, tmp_path, capsys):
        payload = base()
        payload["matrices"][1][0] = row
        _simulate_reports_one_error_line(payload, tmp_path, capsys)


def _simulate_reports_one_error_line(payload, tmp_path, capsys):
    inst_path = tmp_path / "bad.json"
    inst_path.write_text(json.dumps(payload))
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text("0 1\n")
    assert main(["simulate", str(inst_path), str(plan_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def _exact_v3():
    """The exact base as a version-3 document: matrix 0 moves no row, and
    matrix 1 moves rows 0 and 2 to rows entry 0, [[1, "1/1"]]."""
    return json.loads(roundtrip_text(_exact_instance()))


def _float_v3():
    return json.loads(roundtrip_text(_float_instance()))


def _set(key, value):
    return lambda doc: doc.update({key: value})


def _moves(*pairs):
    return lambda doc: doc["matrices"].__setitem__(1, list(pairs))


def _shared(row):
    return lambda doc: doc["rows"].__setitem__(0, row)


# (name, base document, mutation); d = 3, one "rows" entry
MALFORMED_V3 = [
    ("rows missing", _exact_v3, lambda doc: doc.pop("rows")),
    ("rows is null", _exact_v3, _set("rows", None)),
    ("rows is an object", _exact_v3, _set("rows", {"0": [[1, "1/1"]]})),
    ("rows is a string", _exact_v3, _set("rows", "[[[1, \"1/1\"]]]")),
    ("matrix is an object", _exact_v3, lambda doc: doc["matrices"].__setitem__(1, {"0": 0})),
    ("matrix is a v2 row list", _exact_v3, _moves([[1, "1/1"]], [[1, "1/1"]], [[1, "1/1"]])),
    ("row id is out of range", _exact_v3, _moves([0, 1])),
    ("row id is negative", _exact_v3, _moves([0, -1])),
    ("row id is a bool", _exact_v3, _moves([0, False])),
    ("row id is a float", _exact_v3, _moves([0, 0.0])),
    ("row id is a string", _exact_v3, _moves([0, "0"])),
    ("row index is d", _exact_v3, _moves([3, 0])),
    ("row index is negative", _exact_v3, _moves([-1, 0])),
    ("row index is a bool", _exact_v3, _moves([False, 0])),
    ("row index is a float", _exact_v3, _moves([0.0, 0])),
    ("row index repeated", _exact_v3, _moves([0, 0], [0, 0])),
    ("row index descending", _exact_v3, _moves([2, 0], [0, 0])),
    ("pair too short", _exact_v3, _moves([0])),
    ("pair too long", _exact_v3, _moves([0, 0, 0])),
    ("pair is a string", _exact_v3, _moves("0 0")),
    ("rows entry is a string", _exact_v3, _shared("1 1/1")),
    ("rows entry is a dense v1 row", _exact_v3, _shared(["0/1", "1/1", "0/1"])),
    ("rows entry column is d", _exact_v3, _shared([[3, "1/1"]])),
    ("rows entry column descending", _exact_v3, _shared([[2, "1/2"], [1, "1/2"]])),
    ("rows entry pair too long", _exact_v3, _shared([[1, "1/1", 0]])),
    ("rows entry value has a zero denominator", _exact_v3, _shared([[1, "1/0"]])),
    ("rows entry mass is not 1", _exact_v3, _shared([[1, "1/2"]])),
    ("unused rows entry is malformed", _exact_v3, lambda doc: doc["rows"].append([[1]])),
    ("float rows entry value is a string", _float_v3, _shared([[1, "1/1"]])),
    ("float rows entry value is a bool", _float_v3, _shared([[1, True]])),
]


class TestMalformedV3:
    @pytest.mark.parametrize("base", [_exact_v3, _float_v3])
    def test_unmutated_bases_read(self, base):
        payload = base()
        assert payload["format_version"] == 3
        assert payload["matrices"] == [[], [[0, 0], [2, 0]]]
        read_instance(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize("name, base, mutate", MALFORMED_V3, ids=[c[0] for c in MALFORMED_V3])
    def test_read_instance_raises_format_error(self, name, base, mutate):
        payload = base()
        mutate(payload)
        with pytest.raises(InstanceFormatError):
            read_instance(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize("name, base, mutate", MALFORMED_V3, ids=[c[0] for c in MALFORMED_V3])
    def test_cli_reports_one_error_line(self, name, base, mutate, tmp_path, capsys):
        payload = base()
        mutate(payload)
        _simulate_reports_one_error_line(payload, tmp_path, capsys)

    def test_malformed_pair_names_its_matrix(self):
        payload = _exact_v3()
        _moves([0, 0], [0, 0])(payload)
        with pytest.raises(InstanceFormatError, match="^matrix 1: row 0 "):
            read_instance(io.StringIO(json.dumps(payload)))


def _identity_v3(d, K, mode="exact"):
    """A version-3 identity document: K matrices that list no row."""
    zero, one = ("0/1", "1/1") if mode == "exact" else (0.0, 1.0)
    return {
        "format_version": 3, "numeric_mode": mode, "d": d, "K": K, "N": 1, "target": 0,
        "start": [one] + [zero] * (d - 1), "rows": [], "matrices": [[] for _ in range(K)],
    }


class TestSizeBudget:
    """A document whose d * d or K * d exceeds MAX_ENTRIES is refused
    before any row is built, whatever its own size."""

    @pytest.mark.parametrize("d, K", [(20_000, 1), (1_000, 10_001)])
    def test_too_large_is_refused_quickly(self, d, K, tmp_path, capsys):
        assert max(d * d, K * d) > MAX_ENTRIES
        payload = _identity_v3(d, K)
        text = json.dumps(payload)
        started = time.perf_counter()
        with pytest.raises(InstanceFormatError, match="document too large"):
            read_instance(io.StringIO(text))
        assert time.perf_counter() - started < 0.5
        _simulate_reports_one_error_line(payload, tmp_path, capsys)

    def test_within_the_budget_reads(self):
        inst = read_instance(io.StringIO(json.dumps(_identity_v3(2_000, 1, "float")))).instance
        assert (inst.d, inst.K) == (2_000, 1)
        assert inst.matrices[0].rows[1999][1999] == 1.0

    def test_m60_reduction_reads(self):
        _, formula = planted_formula(Random(2060), 17, 60)
        inst = encode_reduction(formula).instance
        assert (inst.d, inst.K) == (114, 422)
        assert read_instance(io.StringIO(roundtrip_text(inst))).instance == inst


def _reduction_base():
    """The single-clause reduction as a document; its witness is 0 2 1."""
    buf = io.StringIO()
    write_artifact(encode_reduction(single_clause_formula()), buf)
    return json.loads(buf.getvalue())


def _shift(table, by):
    return {name: index + by for name, index in table.items()}


def _without(table, name):
    return {key: index for key, index in table.items() if key != name}


# (name, mutation of reduction_meta); d = 13 states and K = 9 matrices
BAD_REDUCTION_META = [
    ("state_table emptied", lambda meta: meta.update(state_table={})),
    ("state_table lacks x0-", lambda meta: meta.update(state_table=_without(meta["state_table"], "x0-"))),
    ("state_table lacks x2+", lambda meta: meta.update(state_table=_without(meta["state_table"], "x2+"))),
    ("state indices shifted by 1000", lambda meta: meta.update(state_table=_shift(meta["state_table"], 1000))),
    ("state index is d", lambda meta: meta["state_table"].update(f=13)),
    ("state index is negative", lambda meta: meta["state_table"].update(d=-1)),
    ("matrix indices shifted by 1000", lambda meta: meta.update(matrix_table=_shift(meta["matrix_table"], 1000))),
    ("matrix index is K", lambda meta: meta["matrix_table"].update(F=9)),
    ("matrix index is negative", lambda meta: meta["matrix_table"].update(S=-1)),
    ("matrix_table lacks S", lambda meta: meta.update(matrix_table=_without(meta["matrix_table"], "S"))),
    ("matrix_table lacks F", lambda meta: meta.update(matrix_table=_without(meta["matrix_table"], "F"))),
]


def _reduction_base_v2():
    """The single-clause reduction as a version-2 document."""
    art = encode_reduction(single_clause_formula())
    return json.loads(instance_v2_text(art.instance, _meta_of(art)))


def _add_state(doc):
    """One more state, d = 14, which no matrix or start weight reaches."""
    doc["d"] += 1
    doc["start"].append("0/1")
    if doc["format_version"] == 2:
        for rows in doc["matrices"]:
            rows.append([[doc["d"] - 1, "1/1"]])


# (name, base document, mutation): reduction_meta intact, the instance not
# of the shape of a reduction of m = 1 clause over n = 3 variables
BAD_REDUCTION_SHAPE = [
    ("extra matrix, K = 10", _reduction_base, lambda doc: doc.update(
        K=10, matrices=doc["matrices"] + doc["matrices"][-1:], labels=doc["labels"] + [None],
    )),
    ("extra state, d = 14", _reduction_base_v2, _add_state),
    ("extra state, d = 14, version 3", _reduction_base, _add_state),
]


def _decode_reports_one_error_line(payload, tmp_path, capsys):
    inst_path = tmp_path / "bad.json"
    inst_path.write_text(json.dumps(payload))
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text("0 2 1\n")
    assert main(["decode", str(inst_path), str(plan_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


class TestMalformedReductionMeta:
    def test_unmutated_base_decodes(self, tmp_path, capsys):
        inst_path = tmp_path / "good.json"
        inst_path.write_text(json.dumps(_reduction_base()))
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("0 2 1\n")
        assert main(["decode", str(inst_path), str(plan_path)]) == 0
        assert capsys.readouterr().out.startswith("x0=")

    @pytest.mark.parametrize("name, mutate", BAD_REDUCTION_META, ids=[c[0] for c in BAD_REDUCTION_META])
    def test_read_raises_format_error(self, name, mutate):
        payload = _reduction_base()
        mutate(payload["reduction_meta"])
        with pytest.raises(InstanceFormatError):
            artifact_from_document(read_instance(io.StringIO(json.dumps(payload))))

    @pytest.mark.parametrize("name, mutate", BAD_REDUCTION_META, ids=[c[0] for c in BAD_REDUCTION_META])
    def test_cli_decode_reports_one_error_line(self, name, mutate, tmp_path, capsys):
        payload = _reduction_base()
        mutate(payload["reduction_meta"])
        _decode_reports_one_error_line(payload, tmp_path, capsys)

    @pytest.mark.parametrize(
        "name, base, mutate", BAD_REDUCTION_SHAPE, ids=[c[0] for c in BAD_REDUCTION_SHAPE]
    )
    def test_instance_not_of_the_reduction_shape_is_refused(self, name, base, mutate, tmp_path, capsys):
        payload = base()
        mutate(payload)
        doc = read_instance(io.StringIO(json.dumps(payload)))  # a valid instance
        with pytest.raises(InstanceFormatError, match="a reduction has"):
            artifact_from_document(doc)
        _decode_reports_one_error_line(payload, tmp_path, capsys)


class TestPlanFiles:
    def test_roundtrip_with_comment(self, tmp_path):
        path = str(tmp_path / "plan.txt")
        write_plan((0, 2, 1), path, comment="witness")
        assert read_plan(path) == (0, 2, 1)
        with open(path) as fh:
            assert fh.readline().startswith("# witness")

    def test_empty_plan(self, tmp_path):
        path = str(tmp_path / "empty.txt")
        write_plan((), path)
        assert read_plan(path) == ()

    def test_multiple_data_lines_rejected(self):
        with pytest.raises(ValueError, match="data lines"):
            read_plan(io.StringIO("0 1\n2 3\n"))

    def test_non_integer_token_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            read_plan(io.StringIO("0 x 1\n"))
