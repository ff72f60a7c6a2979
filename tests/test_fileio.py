import json

import pytest

import rackwork as rw
from rackwork import fileio


class TestStructureFiles:
    def test_round_trip_bytes(self, tmp_path, conj_s3):
        path = tmp_path / "conj.json"
        fileio.save_structure(str(path), conj_s3,
                              labels=["id", "(12)", "(13)", "(23)",
                                      "(123)", "(132)"])
        first = path.read_bytes()
        s, labels = fileio.load_structure(str(path))
        assert s == conj_s3
        assert labels == ["id", "(12)", "(13)", "(23)", "(123)", "(132)"]
        again = fileio.structure_to_json(s, labels)
        assert again.encode() == first

    def test_round_trip_without_labels(self, tmp_path):
        s = rw.boolean_weak_rack_implication(2)
        path = tmp_path / "w.json"
        fileio.save_structure(str(path), s)
        assert fileio.load_structure(str(path)) == (s, None)
        assert fileio.structure_to_json(s).encode() == path.read_bytes()

    def test_key_order_is_fixed(self):
        text = fileio.structure_to_json(rw.trivial_rack(2), labels=["a", "b"])
        keys = [line.split(":")[0].strip().strip('"')
                for line in text.splitlines() if '":' in line]
        assert keys == ["kind", "n", "dot", "diamond", "labels"]

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"kind": "rack", "n": 3, "dot": [[0')
        with pytest.raises(rw.InvalidFile):
            fileio.load_structure(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(rw.InvalidFile):
            fileio.load_structure(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("mutation", [
        lambda d: d.update(kind="quandle"),
        lambda d: d.update(n=0),
        lambda d: d.update(dot=[[0, 1], [0]]),
        lambda d: d.update(dot=[[0, 5], [0, 1]]),
        lambda d: d.update(labels=["only-one"]),
        lambda d: d.pop("diamond"),
    ])
    def test_schema_violations(self, tmp_path, mutation):
        import json
        doc = {
            "kind": "rack",
            "n": 2,
            "dot": [[0, 1], [0, 1]],
            "diamond": [[0, 0], [1, 1]],
        }
        mutation(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(rw.InvalidFile):
            fileio.load_structure(str(path))

    def test_kind_tag_is_trusted_on_load(self, tmp_path):
        """Loading never verifies; the check command does."""
        import json
        doc = {
            "kind": "rack",
            "n": 2,
            "dot": [[0, 0], [0, 0]],
            "diamond": [[0, 0], [0, 0]],
        }
        path = tmp_path / "lying.json"
        path.write_text(json.dumps(doc))
        s, _ = fileio.load_structure(str(path))
        assert s.kind == rw.RACK
        assert not rw.check_rack_axioms(s).passed


# JSON true/false load as bool, a subclass of int; tables must reject them
BOOLEAN_DOCS = [
    ("structure", {"kind": "rack", "n": 2,
                   "dot": [[True, False], [True, False]],
                   "diamond": [[True, True], [False, False]]}),
    ("structure", {"kind": "rack", "n": True, "dot": [[0]],
                   "diamond": [[0]]}),
    ("group", {"n": 2, "mul": [[False, True], [True, False]]}),
    ("group", {"n": True, "mul": [[0]]}),
    ("pair_map", {"n": 2, "out": [[False, False], [False, True],
                                  [True, False], [True, True]]}),
    ("pair_map", {"n": True, "out": [[0, 0]]}),
]


@pytest.mark.parametrize("loader, doc", BOOLEAN_DOCS)
def test_booleans_are_not_indices(tmp_path, loader, doc):
    import json
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(rw.InvalidFile):
        getattr(fileio, f"load_{loader}")(str(path))


class TestGroupFiles:
    def test_round_trip_and_validation(self, tmp_path, s3_group):
        path = tmp_path / "s3.json"
        fileio.save_group(str(path), s3_group)
        loaded, labels = fileio.load_group(str(path))
        assert loaded == s3_group
        assert labels is None
        assert fileio.group_to_json(loaded).encode() == path.read_bytes()

    def test_non_group_rejected_on_load(self, tmp_path):
        import json
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "mul": [[0, 0], [0, 0]]}))
        with pytest.raises(rw.InvalidFile):
            fileio.load_group(str(path))


class TestPairMapFiles:
    def test_round_trip(self, tmp_path, conj_s3):
        f = rw.exp_map(conj_s3, 1)
        path = tmp_path / "exp.json"
        fileio.save_pair_map(str(path), f)
        assert fileio.load_pair_map(str(path)) == f
        assert fileio.pair_map_to_json(f).encode() == path.read_bytes()

    def test_bad_pair_map(self, tmp_path):
        import json
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "out": [[0, 0], [0, 2],
                                                    [1, 1], [0, 0]]}))
        with pytest.raises(rw.InvalidFile):
            fileio.load_pair_map(str(path))


_DROP = object()  # a key to delete from the document


def _malformed_files():
    """(loader, doc, error, message) for files that every loader must
    reject with exactly this message, '{path}' standing for the file's
    path: single defects of every kind, and files with two defects, where
    the first in file order (dot before diamond, row by row) is reported."""
    rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    pairs = [[x, y] for x in range(3) for y in range(3)]
    base = {
        "structure": {"kind": "rack", "n": 3, "dot": rows, "diamond": rows},
        "group": {"n": 3, "mul": rows},
        "pair_map": {"n": 3, "out": pairs},
    }
    entries = "{path}: %s entries must be integers in [0, 2]"
    lengths = "{path}: %s rows must have length 3"
    count = "{path}: %s must be a list of 3 rows"
    out_entries = "{path}: out entries must be pairs of indices in [0, 2]"
    out_count = "{path}: out must list 9 pairs"
    bad_values = [True, False, 1.0, "1", None, -1, 3, 10 ** 30, -10 ** 30,
                  [0], {"a": 0}]
    cases = []

    def case(loader, error, message, **changes):
        doc = json.loads(json.dumps(base[loader]))
        for key, value in changes.items():
            if value is _DROP:
                del doc[key]
            else:
                doc[key] = value
        cases.append((loader, doc, error, message))

    def with_cells(matrix, *cells):
        out = json.loads(json.dumps(matrix))
        for (r, c), v in cells:
            out[r][c] = v
        return out

    for v in bad_values:
        for key in ("dot", "diamond"):
            for cell in ((0, 0), (2, 2)):
                case("structure", rw.InvalidFile, entries % key,
                     **{key: with_cells(rows, (cell, v))})
        case("group", rw.InvalidFile, entries % "mul",
             mul=with_cells(rows, ((1, 2), v)))
        for cell in ((0, 0), (8, 1)):
            case("pair_map", rw.InvalidFile, out_entries,
                 out=with_cells(pairs, (cell, v)))

    shapes = [
        (lengths, rows[:1] + [[0, 1]] + rows[2:]),
        (lengths, rows[:1] + [[0, 1, 2, 0]] + rows[2:]),
        (lengths, rows[:2] + [5]),
        (lengths, rows[:2] + ["012"]),
        (lengths, rows[:2] + [{"0": 0}]),
        (count, rows[:2]),
        (count, rows + [[0, 1, 2]]),
        (count, {"rows": rows}),
        (count, "012"),
        (count, _DROP),
    ]
    for message, matrix in shapes:
        for key in ("dot", "diamond"):
            case("structure", rw.InvalidFile, message % key, **{key: matrix})
        case("group", rw.InvalidFile, message % "mul", mul=matrix)
    for message, out in [
            (out_entries, pairs[:4] + [[0]] + pairs[5:]),
            (out_entries, pairs[:4] + [[0, 1, 2]] + pairs[5:]),
            (out_entries, pairs[:4] + [[]] + pairs[5:]),
            (out_entries, pairs[:8] + [5]),
            (out_entries, pairs[:8] + ["01"]),
            (out_count, pairs[:8]),
            (out_count, pairs + [[0, 0]]),
            (out_count, {"pairs": pairs}),
            (out_count, _DROP)]:
        case("pair_map", rw.InvalidFile, message, out=out)

    positive = "{path}: n must be a positive integer"
    for loader in base:
        for n in (0, -3, True, 3.0, "3", None, [3], _DROP):
            case(loader, rw.InvalidFile, positive, n=n)
        case(loader, rw.CarrierTooLarge,
             "carrier n of {path} = 257 exceeds cap", n=257)

    # two defects: the first in file order wins
    case("structure", rw.InvalidFile, entries % "dot",
         dot=with_cells(rows, ((0, 1), -1))[:1] + [[0, 1]] + rows[2:])
    case("structure", rw.InvalidFile, lengths % "dot",
         dot=[[0, 1]] + with_cells(rows, ((1, 1), -1))[1:])
    case("structure", rw.InvalidFile, lengths % "dot",
         dot=[[0, 1.0]] + rows[1:])
    case("structure", rw.InvalidFile, entries % "dot",
         dot=with_cells(rows, ((2, 0), 1.0)), diamond=[[0, 1]] + rows[1:])
    case("structure", rw.InvalidFile, entries % "diamond",
         diamond=with_cells(rows, ((1, 0), -1), ((2, 2), "x")))
    case("structure", rw.InvalidFile, entries % "dot",
         dot=with_cells(rows, ((1, 0), True), ((1, 1), 5)),
         labels=["only-one"])
    case("structure", rw.InvalidFile, "{path}: labels must be 3 strings",
         labels=["a", "b", 3])
    case("structure", rw.InvalidFile,
         "{path}: kind must be one of ('rack', 'weak_rack', 'unchecked')",
         kind="quandle", dot=[[0]])
    case("structure", rw.InvalidFile, positive, n=0, dot=[[0]])
    case("group", rw.InvalidFile, lengths % "mul",
         mul=[[0, 1]] + with_cells(rows, ((2, 2), 9))[1:])
    case("pair_map", rw.InvalidFile, out_entries,
         out=with_cells(pairs, ((0, 0), -1))[:1] + [[0]] + pairs[2:])
    case("pair_map", rw.InvalidFile, out_count,
         out=with_cells(pairs, ((0, 0), -1))[:8])
    return cases


MALFORMED = _malformed_files()


@pytest.mark.parametrize("loader, doc, error, message", MALFORMED)
def test_malformed_file_messages(tmp_path, loader, doc, error, message):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with pytest.raises(error) as exc:
        getattr(fileio, f"load_{loader}")(path)
    assert str(exc.value) == message.replace("{path}", path)
