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
        loaded = fileio.load_structure(str(path))
        assert loaded.structure == conj_s3
        assert loaded.labels == ["id", "(12)", "(13)", "(23)",
                                 "(123)", "(132)"]
        again = fileio.structure_to_json(loaded.structure, loaded.labels)
        assert again.encode() == first

    def test_round_trip_without_labels(self, tmp_path):
        s = rw.boolean_weak_rack_implication(2)
        path = tmp_path / "w.json"
        fileio.save_structure(str(path), s)
        assert fileio.load_structure(str(path)).structure == s
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
        loaded = fileio.load_structure(str(path))
        assert loaded.structure.kind == rw.RACK
        assert not rw.check_rack_axioms(loaded.structure).passed


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
