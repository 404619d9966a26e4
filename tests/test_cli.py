import argparse
import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import unsharp_spin
from unsharp_spin import cli, formats, verify


# SHA-256 of `ks-check --output` on the Peres directions at epsilon 0.4, delta 0.1
PERES_REPORT_SHA256 = "f0bbe628027cab015b7a121d4e2c2f34e947b9acf4484d5698abcda2fa99fde4"
PERES = str(formats.fixture_path("peres33_directions.json"))
PERES_ARGV = ["ks-check", "--directions", PERES, "--epsilon", "0.4", "--delta", "0.1"]
STATE_EPS = ["--state", "0,1,0", "--epsilon", "0.4"]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThreshold:
    def test_report_output(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code, _, _ = run_cli(["threshold", "--delta", "0.1", "--output", str(path)], capsys)
        assert code == 0
        doc = json.loads(path.read_text())
        assert abs(doc["epsilon_rad"] - 0.459) < 5e-4
        assert abs(doc["epsilon_deg"] - 26.3) < 0.05


class TestAlphas:
    def test_isotropic(self, capsys):
        code, out, _ = run_cli(["alphas", "--epsilon", "3.141592653589793"], capsys)
        assert code == 0
        for line in out.splitlines():
            if line.startswith(("a1", "a2", "a3", "a4")):
                value = float(line.split("=")[1])
                assert abs(value - 1 / 3) < 1e-10

    def test_degrees_flag(self, capsys, tmp_path):
        path_deg = tmp_path / "deg.json"
        path_rad = tmp_path / "rad.json"
        run_cli(["alphas", "--epsilon", "45", "--degrees", "--output", str(path_deg)], capsys)
        run_cli(["alphas", "--epsilon", str(np.pi / 4), "--output", str(path_rad)], capsys)
        a = json.loads(path_deg.read_text())["closed_form"]
        b = json.loads(path_rad.read_text())["closed_form"]
        assert a == pytest.approx(b, abs=1e-12)

    def test_epsilon_required_without_profile(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["alphas"])

    def test_epsilon_and_profile_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["alphas", "--epsilon", "0.4", "--profile", "p.json"])
        assert exc.value.code == 2
        assert "--profile: not allowed with argument --epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["alphas"],
            ["effects", "--direction", "0,0"],
            ["prob", "--direction", "0,0", "--state", "0,1,0"],
            ["simulate", "--direction", "0,0", "--state", "0,1,0", "--trials", "10"],
        ],
        ids=["alphas", "effects", "prob", "simulate"],
    )
    def test_rejects_quadrature(self, capsys, argv):
        # effects come from a1..a4 and alphas from the 1-D axial rule; no
        # command takes a product-rule size
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--epsilon", "0.4", "--quadrature", "8,8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quadrature" in capsys.readouterr().err


class TestEffects:
    def test_matrices_and_residuals_printed(self, capsys):
        code, out, _ = run_cli(["effects", "--direction", "0,0", "--epsilon", "0.4"], capsys)
        assert code == 0
        assert "effect(+1)" in out
        assert "sum-to-identity residual" in out

    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(["effects", "--direction", "0,0", "--epsilon", "0.459"], capsys)
        # the (0,0) entry of effect(+1) is a1(0.459) = 0.949140755310...
        assert "0.94914075531" in out

    @pytest.mark.parametrize("command", ["effects", "prob", "simulate"])
    def test_kinked_profile_table(self, capsys, tmp_path, command):
        # an interior table node is a kink of the interpolated profile
        profile = tmp_path / "kinked.json"
        profile.write_text(json.dumps({"epsilon": 0.4, "profile": [[0, 1], [0.2, 0.5], [0.4, 1]]}))
        argv = [command, "--direction", "0.7,1.3", "--profile", str(profile)]
        extra = {"effects": [], "prob": ["--state", "0,1,0"], "simulate": ["--state", "0,1,0", "--trials", "100"]}
        code, out, err = run_cli(argv + extra[command], capsys)
        assert (code, err) == (0, "")
        assert out


class TestProbAndSimulate:
    def test_prob_middle_state(self, capsys):
        code, out, _ = run_cli(
            ["prob", "--state", "0,1,0", "--direction", "0,0", "--epsilon", "0.4"], capsys
        )
        assert code == 0
        assert "P(outcome 0) = 0.923138116225" in out

    def test_prob_fixed_resolution(self, capsys):
        # 1e-12 resolution, as effects prints: P(+1) = a2 = 2.499999375e-07 here
        _, out, _ = run_cli(["prob", "--state", "0,1,0", "--direction", "0,0", "--epsilon", "1e-3"], capsys)
        assert out.startswith("P(outcome +1) = 0.000000250000\n")

    def test_prob_complex_state(self, capsys):
        code, out, _ = run_cli(
            ["prob", "--state", "0.5+0.5i,0,0.70710678", "--direction", "0,0", "--epsilon", "0.4"],
            capsys,
        )
        assert code == 0
        assert "sum = 1" in out

    @pytest.mark.filterwarnings("error")
    def test_prob_overflowing_state(self, capsys):
        # the amplitudes' squared norm is past the float range
        argv = ["prob", "--direction", "0.7,1.3", "--epsilon", "0.4", "--state"]
        code, out, err = run_cli(argv + ["1e200,0,0"], capsys)
        assert (code, out, err) == run_cli(argv + ["1,0,0"], capsys)
        assert (code, err) == (0, "")

    def test_simulate_deterministic(self, capsys):
        argv = [
            "simulate", "--trials", "5000", "--seed", "3",
            "--state", "0,1,0", "--direction", "0,0", "--epsilon", "0.4",
        ]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("command", ["prob", "simulate"])
    @pytest.mark.parametrize("state, bad", [("0,1,nan", "nan"), ("nan,1,0", "nan"), ("inf,0,0", "inf")])
    def test_rejects_non_finite_state(self, capsys, command, state, bad):
        argv = [command, "--state", state, "--direction", "0,0", "--epsilon", "0.4"]
        code, out, err = run_cli(argv + (["--trials", "10"] if command == "simulate" else []), capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --state amplitude {bad!r} is not finite\n"

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    @pytest.mark.parametrize(
        "argv, err",
        [
            (["prob", *STATE_EPS, "--direction", "inf,0"], "--direction: angles must be finite, got 'inf,0'"),
            (["prob", *STATE_EPS, "--direction", "0,nan"], "--direction: angles must be finite, got '0,nan'"),
            (["simulate", *STATE_EPS, "--direction", "inf,0", "--trials", "10"],
             "--direction: angles must be finite, got 'inf,0'"),
            (["simulate", *STATE_EPS, "--direction", "0,0", "--trials", "10", "--seed", "-5"],
             "--seed: must be a non-negative integer, got -5"),
            (["simulate", *STATE_EPS, "--direction", "0,0", "--trials", "0"],
             "--trials: trials must be >= 1, got 0"),
            (["effects", "--direction", "0,0", "--epsilon", "4"],
             "--epsilon: epsilon must be in (0, pi], got 4.0"),
            (["alphas", "--epsilon", "200", "--degrees"],
             "--epsilon 200.0 --degrees: epsilon must be in (0, pi], got 3.490658503988659"),
            (["threshold", "--delta", "0.7"], "--delta: delta must satisfy 0 <= delta < 0.5, got 0.7"),
            (["threshold", "--delta", "0"],
             "--delta: delta must be positive: only the sharp limit satisfies delta = 0"),
            (["ks-check", "--directions", PERES, "--epsilon", "0.4", "--delta", "0.7"],
             "--delta: delta must satisfy 0 <= delta < 0.5, got 0.7"),
            (["prob", "--state", "1,0", "--direction", "0,0", "--epsilon", "0.4"],
             "--state expects three comma-separated amplitudes, got '1,0'"),
        ],
        ids=["prob-inf-theta", "prob-nan-phi", "simulate-inf-theta", "simulate-negative-seed",
             "simulate-zero-trials", "effects-epsilon-4", "alphas-epsilon-200-degrees", "threshold-delta-0.7",
             "threshold-delta-0", "ks-check-delta-0.7", "prob-malformed-state"],
    )
    def test_input_error_names_its_flag(self, capsys, argv, err):
        code, out, got = run_cli(argv, capsys)
        assert (code, out, got) == (2, "", f"error: {err}\n")

    # a file's error names its flag; an error ending in a newline is the
    # whole message, any other its start
    @pytest.mark.parametrize(
        "flag, doc, err",
        [
            ("--directions", None, "error: --directions"),
            ("--directions", '{"name": "z", "directions": [[0, 0, 1], [0, 0, 0]]}',
             "error: --directions: direction file: directions[1] is a zero vector\n"),
            ("--directions", '{"name": "n", "directions": [[0, 0, 1], [1, 0, null]]}',
             "error: --directions: direction file: directions[1] must be [x, y, z] with finite"),
            ("--profile", '{"name": "neg", "epsilon": 0.5, "profile": [[0, 1.0], [0.5, -1.0]]}',
             "error: --profile: profile file: 'profile' weights must be nonnegative\n"),
            ("--profile", '{"name": "p", "epsilon": 0.4, "profile": [[0, 1], [0.2, null], [0.4, 1]]}',
             "error: --profile: profile file: profile[1] must be [theta, weight] with finite"),
            ("--profile", '{"name": "p", "epsilon": 0.4, "profile": [[0, 1], [NaN, 1], [0.4, 1]]}',
             "error: --profile: profile file: profile[1] must be [theta, weight] with finite"),
            ("--profile", '{"name": "p", "epsilon": true, "profile": [[0, 1], [1, 1]]}',
             "error: --profile: profile file['epsilon'] must be [epsilon] with finite"),
            ("--profile", '{"name": "p", "epsilon": "0.4", "profile": [[0, 1], [1, 1]]}',
             "error: --profile: profile file['epsilon'] must be [epsilon] with finite"),
            ("--profile", '{"name": "p", "epsilon": null, "profile": [[0, 1], [1, 1]]}',
             "error: --profile: profile file['epsilon'] must be [epsilon] with finite"),
        ],
        ids=["missing-directions", "zero-direction", "null-component", "negative-weight", "null-weight",
             "nan-theta", "boolean-epsilon", "string-epsilon", "null-epsilon"],
    )
    def test_file_error_names_its_flag(self, capsys, tmp_path, flag, doc, err):
        path = tmp_path / "in.json"
        if doc is not None:
            path.write_text(doc)
        command = {"--directions": ["ks-check", "--epsilon", "0.4", "--delta", "0.1"], "--profile": ["alphas"]}[flag]
        code, out, got = run_cli([*command, flag, str(path)], capsys)
        assert (code, out) == (2, "")
        assert got == err if err.endswith("\n") else got.startswith(err)


class TestKsCheck:
    def test_peres_report_bytes_are_pinned(self, capsys, tmp_path):
        # any rewrite of the geometry or the search must reproduce this report
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            [
                "ks-check",
                "--directions", PERES,
                "--epsilon", "0.4",
                "--delta", "0.1",
                "--output", str(path),
            ],
            capsys,
        )
        assert code == 0
        assert "solver: UNSAT (16 nodes, depth 3)\n" in out
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PERES_REPORT_SHA256

    def test_condition_failure(self, capsys, tmp_path):
        # epsilon 0.6 fails at delta 0.1, and every cap at delta 0; -0.0 is
        # that same tolerance, in the same stdout and report bytes
        outputs = []
        for epsilon, delta in (("0.6", "0.1"), ("0.4", "0"), ("0.4", "-0.0")):
            argv = ["ks-check", "--directions", PERES, "--epsilon", epsilon, "--delta", delta]
            code, out, _ = run_cli(argv + ["--output", str(tmp_path / "report.json")], capsys)
            assert code == 0
            assert "CONDITION2_FAILED" in out
            outputs.append((out, (tmp_path / "report.json").read_bytes()))
        assert outputs[1] == outputs[2]

    def test_option_strings(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {s for a in sub.choices["ks-check"]._actions for s in a.option_strings}
        assert options == {
            "-h", "--help", "--directions", "--epsilon", "--delta", "--profile", "--degrees", "--output",
        }

    @pytest.mark.filterwarnings("error")
    def test_overflowing_row_reports_as_its_unit_row(self, capsys, tmp_path):
        # [1e200, 0, 0] has a squared norm past the float range
        outputs = []
        for first in ([1e200, 0, 0], [1, 0, 0]):
            path = tmp_path / "dirs.json"
            path.write_text(json.dumps({"name": "big", "directions": [first, [0, 1, 0], [0, 0, 1]]}))
            argv = ["ks-check", "--directions", str(path), "--epsilon", "0.4", "--delta", "0.1"]
            code, out, err = run_cli(argv + ["--output", str(tmp_path / "report.json")], capsys)
            assert (code, err) == (0, "")
            outputs.append((out, (tmp_path / "report.json").read_bytes()))
        assert outputs[0] == outputs[1]


class TestImports:
    def test_public_names_are_all(self):
        public = {
            name for name, value in vars(unsharp_spin).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert sorted(public) == sorted(unsharp_spin.__all__)

    def test_ks_check_does_not_load_verify(self):
        # a fresh interpreter, so no earlier import hides the one under test
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "unsharp_spin.cli", *PERES_ARGV],
            capture_output=True, text=True, env=env, check=True,
        )
        imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines() if "|" in line]
        assert "unsharp_spin.ks_solver" in imported
        assert "unsharp_spin.verify" not in imported
        assert "conclusion: KS_CONTRADICTION" in run.stdout

    def test_product_path_builds_no_eigenvector(self, monkeypatch, capsys):
        # the effects are polynomials in n.S and the KS check compares unit
        # rows, so every binding of sharp_eigenvectors may raise
        def forbidden(*args, **kwargs):
            raise AssertionError("the product path built an eigenvector")

        loaded = [m for name, m in sys.modules.items() if name.startswith("unsharp_spin.")]
        bindings = {m for m in loaded if hasattr(m, "sharp_eigenvectors")}
        for module in bindings | {unsharp_spin, unsharp_spin.spin_core, unsharp_spin.ks_solver}:
            monkeypatch.setattr(module, "sharp_eigenvectors", forbidden)
        n, model, psi = unsharp_spin.unit_from_polar(0.7, 1.3), unsharp_spin.UniformCap(0.4), np.array([0.6, 0.8j, 0.0])
        unsharp_spin.effects(n, model)
        unsharp_spin.outcome_probabilities(psi, n, model)
        unsharp_spin.simulate_outcomes(psi, n, model, 1000, seed=3)
        _, peres = formats.load_direction_file(PERES)
        assert unsharp_spin.ks_pipeline(peres, model, 0.1).conclusion == "KS_CONTRADICTION"
        for argv in (
            ["effects", "--direction", "0.7,1.3", "--epsilon", "0.4"],
            ["prob", *STATE_EPS, "--direction", "0.7,1.3"],
            ["simulate", *STATE_EPS, "--direction", "0.7,1.3", "--trials", "1000"],
            PERES_ARGV,
        ):
            assert run_cli(argv, capsys)[0] == 0, argv

    @pytest.mark.parametrize("command", [["prob"], ["simulate", "--trials", "1000"]])
    def test_probabilities_build_no_effect_matrix(self, monkeypatch, capsys, command):
        # both weight the spectra by the sharp Born rule, so neither builds
        # a sharp projector, the effects' one ingredient
        monkeypatch.setattr(unsharp_spin.unsharp_povm, "sharp_projectors", None)
        assert run_cli([*command, *STATE_EPS, "--direction", "0.7,1.3"], capsys)[0] == 0

    def test_probabilities_build_no_local_frame(self, monkeypatch, capsys):
        # P+ = (n^T Q n + n.s)/2 and P0 = 1 - n^T Q n in the lab frame; only
        # the simulation re-poles its sampled directions about n
        monkeypatch.setattr(unsharp_spin.unsharp_povm, "_repole", None)
        psi = np.array([0.6, 0.8j, 0.0])
        unsharp_spin.outcome_probabilities(psi, unsharp_spin.unit_from_polar(0.7, 1.3), unsharp_spin.UniformCap(0.4))
        assert run_cli(["prob", *STATE_EPS, "--direction", "0.7,1.3"], capsys)[0] == 0


class TestVerify:
    def test_pass_and_fail_lines(self, capsys, tmp_path, monkeypatch):
        # the real checks run in test_verify.py; here only the reporting
        def raises_boom():
            raise RuntimeError("boom")

        monkeypatch.setattr(
            verify,
            "ALL_CHECKS",
            [
                ("always-passes", lambda: (True, "fine")),
                ("always-fails", lambda: (False, "broken")),
                ("always-raises", raises_boom),
            ],
        )
        path = tmp_path / "verify.json"
        code, out, _ = run_cli(["verify", "--output", str(path)], capsys)
        assert code == 1
        assert "PASS always-passes: fine\n" in out
        assert "FAIL always-fails: broken\n" in out
        assert "FAIL always-raises: raised RuntimeError: boom\n" in out
        assert "1/3 properties passed\n" in out
        assert '"ok": false' in path.read_text()


class TestMisc:
    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x.json"
        code, out, err = run_cli(["alphas", "--epsilon", "0.4", "--output", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --output: ")
        assert not target.exists()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_profile_file_model(self, capsys, tmp_path):
        profile = tmp_path / "prof.json"
        thetas = np.linspace(0, 0.5, 11)
        profile.write_text(
            json.dumps(
                {"name": "flat", "epsilon": 0.5, "profile": [[float(t), 1.0] for t in thetas]}
            )
        )
        code, out, _ = run_cli(["alphas", "--profile", str(profile)], capsys)
        assert code == 0
        # a flat profile is the uniform cap; compare against its closed form
        from unsharp_spin.unsharp_povm import alphas_uniform_cap

        want = alphas_uniform_cap(0.5)
        got = float([l for l in out.splitlines() if l.startswith("a4")][0].split("=")[1])
        assert abs(got - want.a4) < 1e-8
