import json

import numpy as np
import pytest

from unsharp_spin import formats
from unsharp_spin import ks_solver as ks
from unsharp_spin import spin_core as sc


def json_file(tmp_path, doc):
    """Write ``doc`` (JSON text, or an object to serialize) to a file."""
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


# malformed components as JSON text, and documents with a component BAD in
# row 1 of the list their loader's error must name
BAD_COMPONENTS = {"string": '"a"', "boolean": "true", "null": "null", "nan": "NaN", "nested-list": "[1]"}
ROW_DOCS = [
    ("directions", '{"name": "d", "directions": [[1, 0, 0], [1, 0, BAD]]}'),
    ("directions", '{"name": "d", "directions": [[1, 0, 0], {"theta": 0, "phi": BAD}]}'),
    ("profile", '{"name": "p", "epsilon": 0.4, "profile": [[0, 1], [0.2, BAD], [0.4, 1]]}'),
    ("rays", '{"name": "r", "field": "real", "rays": [[1, 0, 0], [0, 1, BAD]]}'),
]
LOADERS = {
    "directions": formats.load_direction_file,
    "profile": formats.load_profile_file,
    "rays": formats.load_ray_file,
}


@pytest.mark.parametrize("component", list(BAD_COMPONENTS))
@pytest.mark.parametrize("key, text", ROW_DOCS, ids=["cartesian", "polar", "profile", "rays"])
def test_malformed_component_names_its_row(tmp_path, key, text, component):
    message = rf"^\w+ file: {key}\[1\] must be \[[a-z, ]+\] with finite numeric components, got "
    with pytest.raises(ValueError, match=message):
        LOADERS[key](json_file(tmp_path, text.replace("BAD", BAD_COMPONENTS[component])))


class TestRayFiles:
    def test_unnormalized_input_normalized_on_load(self, tmp_path):
        path = json_file(tmp_path, {"name": "raw", "field": "real", "rays": [[3, 0, 0], [0, 0, 5]]})
        _, loaded = formats.load_ray_file(path)
        np.testing.assert_allclose(loaded[0], [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(loaded[1], [0, 0, 1], atol=1e-15)

    def test_duplicate_rays_merged_on_load(self, tmp_path):
        path = json_file(tmp_path, {"name": "dup", "field": "real", "rays": [[1, 0, 0], [-2, 0, 0]]})
        _, loaded = formats.load_ray_file(path)
        assert len(loaded) == 1

    @pytest.mark.parametrize(
        "doc, field_hint",
        [
            ({"field": "real", "rays": [[1, 0, 0]]}, "name"),
            ({"name": "x", "field": "quaternionic", "rays": [[1, 0, 0]]}, "field"),
            ({"name": "x", "field": "real", "rays": []}, "rays"),
            ({"name": "x", "field": "real", "rays": [[1, 0]]}, "rays"),
            ({"name": "x", "field": "real", "rays": [[1, 0, "a"]]}, "component"),
        ],
    )
    def test_errors_name_offending_field(self, tmp_path, doc, field_hint):
        path = json_file(tmp_path, doc)
        with pytest.raises(ValueError, match=field_hint):
            formats.load_ray_file(path)

    @pytest.mark.parametrize("fixture", ["peres33", "integer49"])
    def test_bundled_ray_files_copy_direction_rows(self, fixture):
        # the ray files are the benchmark's frozen copies of the direction sets
        rows = json.loads(formats.fixture_path(f"{fixture}_directions.json").read_text())["directions"]
        assert json.loads(formats.fixture_path(f"{fixture}_rays.json").read_text())["rays"] == rows
        _, rays = formats.load_ray_file(formats.fixture_path(f"{fixture}_rays.json"))
        want = ks.canonicalize_and_dedupe(np.array(rows))
        assert np.array(rays).tobytes() == np.array(want).tobytes()


class TestDirectionFiles:
    def test_cartesian_and_polar_entries(self, tmp_path):
        path = json_file(tmp_path, {"name": "mix", "directions": [[0, 0, 2], {"theta": np.pi / 2, "phi": 0}]})
        name, dirs = formats.load_direction_file(path)
        assert name == "mix"
        np.testing.assert_allclose(dirs[0], [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(dirs[1], [1, 0, 0], atol=1e-12)

    def test_mixed_rows_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(31)
        entries, expected = [], []
        for k in range(40):
            if k % 3 == 0:
                theta, phi = float(rng.uniform(0, np.pi)), float(rng.uniform(-np.pi, np.pi))
                entries.append({"theta": theta, "phi": phi})
                expected.append(sc.unit_from_polar(theta, phi))
            else:
                v = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
                entries.append([float(x) for x in v])
                expected.append(v / np.linalg.norm(v))
        path = json_file(tmp_path, {"name": "mixed", "directions": entries})
        _, dirs = formats.load_direction_file(path)
        assert len(dirs) == len(expected)
        np.testing.assert_array_equal(np.array(dirs).view(np.uint64), np.array(expected).view(np.uint64))

    def test_zero_vector_rejected(self, tmp_path):
        path = json_file(tmp_path, {"name": "z", "directions": [[0, 0, 0]]})
        with pytest.raises(ValueError, match="directions"):
            formats.load_direction_file(path)

    def test_bad_polar_entry(self, tmp_path):
        path = json_file(tmp_path, {"name": "z", "directions": [{"theta": 1.0}]})
        with pytest.raises(ValueError, match="phi"):
            formats.load_direction_file(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "dirs.json"
        dirs = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
        formats.save_direction_file(path, "rt", dirs)
        _, loaded = formats.load_direction_file(path)
        for a, b in zip(dirs, loaded):
            np.testing.assert_allclose(a, b, atol=1e-15)


class TestProfileFiles:
    def test_tabulated_profile_loads(self, tmp_path):
        table = [[float(t), float(np.cos(t))] for t in np.linspace(0, 0.5, 21)]
        path = json_file(tmp_path, {"name": "cap", "epsilon": 0.5, "profile": table})
        model = formats.load_profile_file(path)
        assert model.epsilon == 0.5
        assert model.density([0, 0, 1], [0, 0, 1]) > 0

    def test_rejects_decreasing_thetas(self, tmp_path):
        path = json_file(tmp_path, {"name": "bad", "epsilon": 0.5, "profile": [[0.2, 1], [0.1, 1]]})
        with pytest.raises(ValueError, match="increasing"):
            formats.load_profile_file(path)

    def test_rejects_negative_weight(self, tmp_path):
        path = json_file(tmp_path, {"name": "bad", "epsilon": 0.5, "profile": [[0.0, 1], [0.5, -1]]})
        with pytest.raises(ValueError, match="nonnegative"):
            formats.load_profile_file(path)

    @pytest.mark.parametrize("table", [[[0, 1], [0.2, 1]], [[0.1, 1], [0.5, 1]]], ids=["short", "late-start"])
    def test_rejects_table_not_spanning_support(self, tmp_path, table):
        # np.interp would clamp, inventing a weight outside the table
        path = json_file(tmp_path, {"name": "bad", "epsilon": 0.5, "profile": table})
        with pytest.raises(ValueError, match=r"'profile' thetas must span \[0, epsilon\]"):
            formats.load_profile_file(path)


class TestFixtureAccess:
    def test_known_fixtures_exist(self):
        for name in ("peres33_directions.json", "integer49_directions.json"):
            assert formats.fixture_path(name).is_file()
        for name in ("peres33_rays.json", "integer49_rays.json"):  # the benchmark's copies
            assert formats.fixture_path(name).is_file()

    def test_unknown_fixture(self):
        with pytest.raises(FileNotFoundError):
            formats.fixture_path("nonexistent.json")


class TestReports:
    def test_stable_key_order_and_trailing_newline(self):
        text = formats.dumps_report({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')
        assert text.endswith("\n")

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.json"
        formats.write_report(path, {"x": 1})
        assert json.loads(path.read_text()) == {"x": 1}
