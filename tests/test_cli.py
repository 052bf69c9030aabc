import json
import math
from pathlib import Path

import pytest

from lilyseg import write_realization
from lilyseg.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def realization_file(tmp_path):
    path = tmp_path / "r.json"
    assert run(["generate", "--lambda", 1, "--window", "10x10", "--seed", 7, "--out", path]) == 0
    return path


@pytest.fixture()
def f3_file(tmp_path):
    path = tmp_path / "f3.json"
    payload = {
        "schema_version": "1",
        "seed": None,
        "lambda": None,
        "window": None,
        "points": [
            {"x": 0.0, "y": 0.0, "theta": 0.0},
            {"x": 4.0, "y": 3.0, "theta": math.pi / 2},
            {"x": 9.0, "y": 3.0, "theta": math.pi / 4},
        ],
    }
    path.write_text(json.dumps(payload))
    return path


class TestGenerate:
    def test_writes_realization_and_manifest(self, realization_file):
        obj = json.loads(realization_file.read_text())
        assert obj["lambda"] == 1.0 and obj["seed"] == 7
        assert len(obj["points"]) > 50
        manifest = json.loads((realization_file.parent / "r.json.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["outputs"] == [str(realization_file)]

    def test_stdout_default(self, capsys):
        assert run(["generate", "--lambda", 1, "--window", "4x4", "--seed", 1]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["window"]["shape"] == "rectangle"

    def test_disk_with_n_closest(self, tmp_path):
        path = tmp_path / "pinned.json"
        assert (
            run(
                ["generate", "--lambda", 1, "--disk", 10, "--n-closest", 41, "--seed", 7, "--out", path]
            )
            == 0
        )
        obj = json.loads(path.read_text())
        assert len(obj["points"]) == 42  # pinned origin + 41 nearest
        assert obj["points"][0] == {"x": 0.0, "y": 0.0, "theta": 0.0}

    def test_missing_window_is_validation_error(self):
        assert run(["generate", "--lambda", 1, "--seed", 1]) == 2

    def test_bad_window_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--lambda", 1, "--window", "banana", "--seed", 1])
        assert exc.value.code == 2


class TestSolve:
    def test_solve_f3_model1(self, f3_file, tmp_path):
        out = tmp_path / "s.json"
        assert run(["solve", "--model", 1, "--in", f3_file, "--out", out]) == 0
        obj = json.loads(out.read_text())
        assert obj["radii"][0] == pytest.approx(4.0, rel=1e-12)
        assert obj["radii"][1] == "inf"
        assert obj["radii"][2] == pytest.approx(5 * math.sqrt(2), rel=1e-12)

    def test_solve_model2(self, f3_file, tmp_path):
        out = tmp_path / "s2.json"
        assert run(["solve", "--model", 2, "--in", f3_file, "--out", out]) == 0
        obj = json.loads(out.read_text())
        assert obj["radii"][:2] == pytest.approx([4.0, 4.0], rel=1e-12)

    def test_method_all_asserts_agreement(self, realization_file, tmp_path):
        out = tmp_path / "s.json"
        assert run(["solve", "--model", 1, "--method", "all", "--in", realization_file, "--out", out]) == 0

    def test_condition_violation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema_version": "1",
                    "seed": None,
                    "lambda": None,
                    "window": None,
                    "points": [
                        {"x": 0.0, "y": 0.0, "theta": 0.0},
                        {"x": 2.0, "y": 0.0, "theta": 0.0},
                    ],
                }
            )
        )
        assert run(["solve", "--model", 1, "--in", bad]) == 2
        assert "collinear" in capsys.readouterr().err

    def test_far_tie_solves_by_fixed_point_only(self, far_tie, tmp_path, capsys):
        # The fixed-point solve screens the comparisons it makes; the oracle
        # solvers keep the full screen, which reports the tie.
        path = tmp_path / "far_tie.json"
        write_realization(far_tie, str(path))
        for model in (1, 2):
            assert run(["solve", "--model", model, "--method", "fixed", "--in", path, "--out", tmp_path / "s.json"]) == 0
            capsys.readouterr()
            assert run(["solve", "--model", model, "--method", "all", "--in", path]) == 2
            assert "near tie (0, 230) vs (0, 231)" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run(["solve", "--model", 1, "--in", tmp_path / "nope.json"]) == 2

    @pytest.mark.parametrize(
        "point", [{"x": 1.0, "y": 0.0, "theta": 4.0}, {"x": "1.0", "y": 0.0, "theta": 0.0}], ids=["theta", "text"]
    )
    def test_bad_point_value_exits_2(self, tmp_path, capsys, point):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": "1", "points": [{"x": 0.0, "y": 0.0, "theta": 0.0}, point]}))
        assert run(["solve", "--model", 1, "--in", path]) == 2
        assert capsys.readouterr().err.startswith("error: malformed realization")


class TestAnalyzeRender:
    def test_analyze_f3(self, f3_file, tmp_path):
        sol = tmp_path / "s.json"
        run(["solve", "--model", 1, "--in", f3_file, "--out", sol])
        out = tmp_path / "a.json"
        assert run(["analyze", "--in", sol, "--out", out]) == 0
        obj = json.loads(out.read_text())
        assert obj["structure"]["clusters"] == [[0, 1, 2]]
        assert obj["structure"]["cycles"] == []
        assert obj["structure"]["contacts"] == 2
        assert obj["identities"]["contact_count"]["holds"]
        assert obj["identities"]["mass_transport"]["exact"]

    def test_render_solution(self, f3_file, tmp_path):
        sol = tmp_path / "s.json"
        run(["solve", "--model", 1, "--in", f3_file, "--out", sol])
        out = tmp_path / "fig.svg"
        assert run(["render", "--in", sol, "--out", out]) == 0
        svg = out.read_text()
        assert svg.count("<circle") == 3

    def test_render_highlight_doublets(self, f3_file, tmp_path):
        sol = tmp_path / "s.json"
        run(["solve", "--model", 2, "--in", f3_file, "--out", sol])
        out = tmp_path / "fig.svg"
        assert run(["render", "--in", sol, "--out", out, "--highlight", "doublets"]) == 0
        assert "seg-hl" in out.read_text()


class TestMalformedSolution:
    @pytest.mark.parametrize("command", ["analyze", "render"])
    @pytest.mark.parametrize(
        "radii, model",
        [([4.0], 1), ([4.0, "inf", 1.0], 1), ([-4.0, "inf"], 1), ([float("nan"), "inf"], 1),
         ([4.0, "inf"], 3), (["abc", "inf"], 1)],
        ids=["short", "long", "negative", "nan", "model_3", "text_radius"],
    )
    def test_exits_2_with_error_line(self, tmp_path, capsys, command, radii, model):
        realization = {
            "schema_version": "1",
            "seed": None,
            "lambda": None,
            "window": None,
            "points": [
                {"x": 0.0, "y": 0.0, "theta": 0.0},
                {"x": 3.0, "y": 4.0, "theta": math.pi / 2},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"schema_version": "1", "model": model, "realization": realization, "radii": radii})
        )
        assert run([command, "--in", path]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestMc:
    def test_estimates_csv(self, tmp_path):
        out_dir = tmp_path / "mc"
        code = run(
            [
                "mc", "--model", 1, "--lambda", 1, "--window", "10x10", "--margin", 2,
                "--reps", 5, "--seed", 0, "--estimators", "nu", "--out-dir", out_dir,
            ]
        )
        assert code == 0
        text = (out_dir / "estimates.csv").read_text()
        assert text.splitlines()[0] == "name,estimate,stderr,n_effective,config_hash"
        assert "nu_mean" in text

    def test_trend_table(self, tmp_path):
        out_dir = tmp_path / "mc"
        code = run(
            [
                "mc", "--model", 2, "--lambda", 1, "--estimators", "trend",
                "--sizes", "6,8,10", "--reps", 4, "--seed", 1, "--out-dir", out_dir,
            ]
        )
        assert code == 0
        assert (out_dir / "trend.csv").exists()

    def test_trend_without_sizes_fails(self, tmp_path):
        assert (
            run(["mc", "--model", 2, "--estimators", "trend", "--out-dir", tmp_path / "x"]) == 2
        )

    def test_unknown_estimator_rejected(self, tmp_path):
        assert (
            run(["mc", "--model", 1, "--estimators", "sparkle", "--out-dir", tmp_path / "x"]) == 2
        )

    @pytest.mark.parametrize("estimators", ["nu", "trend"])
    def test_bad_intensity_is_a_validation_error(self, tmp_path, caplog, estimators):
        # Rejected before the first replication: exit 2, not 3 ("3/3 aborted").
        code = run(
            [
                "mc", "--model", 1, "--lambda", -1, "--window", "20x20", "--margin", 2,
                "--reps", 3, "--estimators", estimators, "--sizes", "5,6,7", "--out-dir", tmp_path / "x",
            ]
        )
        assert code == 2
        assert "aborted" not in caplog.text


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--lambda", 1, "--disk", 5, "--seed", 1, "--n-closest", 0],
        ["mc", "--model", 1, "--reps", 0],
        ["mc", "--model", 1, "--window", "10x10", "--margin", 8],
    ],
    ids=["n_closest_0", "reps_0", "margin_fills_window"],
)
def test_out_of_range_flag_exits_2(tmp_path, capsys, caplog, args):
    # Rejected before the first replication, not counted as aborts.
    if args[0] == "mc":
        args = args + ["--out-dir", tmp_path / "o"]
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert "aborted" not in caplog.text


class TestRoundTrip:
    def test_pipeline_completes_on_100_seeds(self, tmp_path):
        # generate -> solve -> analyze -> render, 20x20 window, seeds 0..99.
        for seed in range(100):
            real = tmp_path / f"r{seed}.json"
            sol = tmp_path / f"s{seed}.json"
            ana = tmp_path / f"a{seed}.json"
            svg = tmp_path / f"f{seed}.svg"
            assert run(["generate", "--lambda", 1, "--window", "20x20", "--seed", seed, "--out", real]) == 0
            assert run(["solve", "--model", 1, "--in", real, "--out", sol]) == 0
            assert run(["analyze", "--in", sol, "--out", ana]) == 0
            assert run(["render", "--in", sol, "--out", svg, "--clip"]) == 0
            assert json.loads(ana.read_text())["identities"]["contact_count"]["holds"]


class TestReplay:
    def test_generate_replay_byte_identical(self, realization_file):
        first = realization_file.read_bytes()
        manifest = realization_file.parent / "r.json.manifest.json"
        realization_file.unlink()
        assert run(["replay", manifest]) == 0
        assert realization_file.read_bytes() == first

    def test_full_pipeline_replay(self, tmp_path, f3_file):
        sol = tmp_path / "s.json"
        run(["solve", "--model", 1, "--in", f3_file, "--out", sol])
        svg = tmp_path / "fig.svg"
        run(["render", "--in", sol, "--out", svg])
        sol_bytes = sol.read_bytes()
        svg_bytes = svg.read_bytes()
        run(["replay", tmp_path / "s.json.manifest.json"])
        run(["replay", tmp_path / "fig.svg.manifest.json"])
        assert sol.read_bytes() == sol_bytes
        assert svg.read_bytes() == svg_bytes
