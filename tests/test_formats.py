import json

import numpy as np
import pytest

from unsharp_spin import formats
from unsharp_spin import spin_core as sc


class TestRayFiles:
    def test_round_trip_real(self, tmp_path):
        path = tmp_path / "rays.json"
        rays = [np.array([1, 0, 0], dtype=complex), np.array([0, 1, 1], dtype=complex) / np.sqrt(2)]
        formats.save_ray_file(path, "demo", rays, field="real")
        name, loaded = formats.load_ray_file(path)
        assert name == "demo"
        assert len(loaded) == 2
        for a, b in zip(rays, loaded):
            assert abs(abs(np.vdot(a, b)) - 1) < 1e-12

    def test_round_trip_complex(self, tmp_path):
        path = tmp_path / "rays.json"
        v = np.array([1, 1j, 0]) / np.sqrt(2)
        formats.save_ray_file(path, "cplx", [v], field="complex")
        _, loaded = formats.load_ray_file(path)
        assert abs(abs(np.vdot(v, loaded[0])) - 1) < 1e-12

    def test_unnormalized_input_normalized_on_load(self, tmp_path):
        path = tmp_path / "rays.json"
        path.write_text(json.dumps({"name": "raw", "field": "real", "rays": [[3, 0, 0], [0, 0, 5]]}))
        _, loaded = formats.load_ray_file(path)
        np.testing.assert_allclose(loaded[0], [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(loaded[1], [0, 0, 1], atol=1e-15)

    def test_duplicate_rays_merged_on_load(self, tmp_path):
        path = tmp_path / "rays.json"
        path.write_text(json.dumps({"name": "dup", "field": "real", "rays": [[1, 0, 0], [-2, 0, 0]]}))
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
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=field_hint):
            formats.load_ray_file(path)

    def test_complex_components_as_pairs(self, tmp_path):
        path = tmp_path / "rays.json"
        path.write_text(
            json.dumps({"name": "c", "field": "complex", "rays": [[[0.5, 0.5], [0.5, -0.5], 0]]})
        )
        _, loaded = formats.load_ray_file(path)
        want = np.array([0.5 + 0.5j, 0.5 - 0.5j, 0])
        assert abs(abs(np.vdot(want / np.linalg.norm(want), loaded[0])) - 1) < 1e-12


class TestDirectionFiles:
    def test_cartesian_and_polar_entries(self, tmp_path):
        path = tmp_path / "dirs.json"
        path.write_text(
            json.dumps(
                {
                    "name": "mix",
                    "directions": [[0, 0, 2], {"theta": np.pi / 2, "phi": 0.0}],
                }
            )
        )
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
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps({"name": "mixed", "directions": entries}))
        _, dirs = formats.load_direction_file(path)
        assert len(dirs) == len(expected)
        np.testing.assert_array_equal(np.array(dirs).view(np.uint64), np.array(expected).view(np.uint64))

    def test_zero_vector_rejected(self, tmp_path):
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps({"name": "z", "directions": [[0, 0, 0]]}))
        with pytest.raises(ValueError, match="directions"):
            formats.load_direction_file(path)

    def test_bad_polar_entry(self, tmp_path):
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps({"name": "z", "directions": [{"theta": 1.0}]}))
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
        path = tmp_path / "prof.json"
        thetas = np.linspace(0, 0.5, 21)
        table = [[float(t), float(np.cos(t))] for t in thetas]
        path.write_text(json.dumps({"name": "cap", "epsilon": 0.5, "profile": table}))
        model = formats.load_profile_file(path)
        assert model.epsilon == 0.5
        assert model.density([0, 0, 1], [0, 0, 1]) > 0

    def test_rejects_decreasing_thetas(self, tmp_path):
        path = tmp_path / "prof.json"
        path.write_text(
            json.dumps({"name": "bad", "epsilon": 0.5, "profile": [[0.2, 1], [0.1, 1]]})
        )
        with pytest.raises(ValueError, match="increasing"):
            formats.load_profile_file(path)

    def test_rejects_negative_weight(self, tmp_path):
        path = tmp_path / "prof.json"
        path.write_text(
            json.dumps({"name": "bad", "epsilon": 0.5, "profile": [[0.0, 1], [0.5, -1]]})
        )
        with pytest.raises(ValueError, match="nonnegative"):
            formats.load_profile_file(path)

    @pytest.mark.parametrize("table", [[[0, 1], [0.2, 1]], [[0.1, 1], [0.5, 1]]], ids=["short", "late-start"])
    def test_rejects_table_not_spanning_support(self, tmp_path, table):
        # np.interp would clamp, inventing a weight outside the table
        path = tmp_path / "prof.json"
        path.write_text(json.dumps({"name": "bad", "epsilon": 0.5, "profile": table}))
        with pytest.raises(ValueError, match=r"'profile' thetas must span \[0, epsilon\]"):
            formats.load_profile_file(path)


class TestFixtureAccess:
    def test_known_fixtures_exist(self):
        for name in ("peres33_rays.json", "peres33_directions.json", "integer49_rays.json"):
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
