"""End-to-end tests of the command-line front end."""

import csv
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msamp.cli import main
from msamp import load_calibration, load_spec, samples_from_csv

from conftest import reference_sweep_csv


def run(*argv):
    return main(list(argv))


def synth(tmp_path, name="spec.json", seed="7", M="1", epsilon="0.1", N="1"):
    path = tmp_path / name
    code = run(
        "synth", "--N", N, "--M", M, "--epsilon", epsilon,
        "--atoms", "2", "--seed", seed, "--out", str(path),
    )
    assert code == 0
    return path


class TestSynth:
    def test_writes_valid_spec(self, tmp_path, capsys):
        path = synth(tmp_path)
        spec = load_spec(path)
        assert spec.M == 1 and spec.N == 1.0
        out = capsys.readouterr().out
        assert "spectral support" in out

    def test_rerun_byte_identical(self, tmp_path):
        a = synth(tmp_path, "a.json")
        b = synth(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_constraint_violation_exit_2(self, tmp_path, capsys):
        code = run(
            "synth", "--N", "1", "--M", "1", "--epsilon", "0.6",
            "--atoms", "1", "--seed", "0", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "2N" in capsys.readouterr().err

    def test_classical_spec(self, tmp_path):
        path = synth(tmp_path, "m0.json", M="0")
        assert load_spec(path).M == 0


class TestSample:
    def test_writes_csv(self, tmp_path):
        spec = synth(tmp_path)
        out = tmp_path / "samples.csv"
        code = run(
            "sample", "--spec", str(spec), "--dX", "0.22", "--dx", "0.03",
            "--P", "2", "--J", "32", "--out", str(out),
        )
        assert code == 0
        samples = samples_from_csv(out)
        assert samples.grid.n_points == 3 * 65

    def test_invalid_grid_lists_failures(self, tmp_path, capsys):
        spec = synth(tmp_path)
        code = run(
            "sample", "--spec", str(spec), "--dX", "0.6", "--dx", "0.03",
            "--P", "1", "--J", "8", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "delta_X <= 1/(2N)" in err
        assert "P == 2M" in err
        assert "cap=0.5" in err and "2M=2" in err

    def test_missing_spec_file_exit_1(self, tmp_path):
        code = run(
            "sample", "--spec", str(tmp_path / "absent.json"), "--dX", "0.22",
            "--dx", "0.03", "--P", "2", "--J", "8", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1


class TestMalformedInput:
    """Malformed spec JSON and --config files are constraint violations (exit 2)."""

    def sample_with_spec(self, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        return run(
            "sample", "--spec", str(spec), "--dX", "0.22", "--dx", "0.03",
            "--P", "2", "--J", "8", "--out", str(tmp_path / "s.csv"),
        )

    def test_spec_invalid_json_exit_2(self, tmp_path, capsys):
        assert self.sample_with_spec(tmp_path, '{"epsilon": 0.1,') == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_spec_missing_key_exit_2(self, tmp_path, capsys):
        assert self.sample_with_spec(tmp_path, '{"epsilon": 0.1, "N": 1}') == 2
        assert "malformed signal spec" in capsys.readouterr().err

    def test_spec_non_numeric_field_exit_2(self, tmp_path, capsys):
        good = json.loads(synth(tmp_path, "good.json").read_text())
        for mutate in (
            lambda d: d.update(epsilon="abc"),
            lambda d: d["bands"][0]["atoms"][0].update(re="abc"),
        ):
            d = json.loads(json.dumps(good))
            mutate(d)
            capsys.readouterr()
            assert self.sample_with_spec(tmp_path, json.dumps(d)) == 2
            assert "malformed signal spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(M=1.7),
            lambda d: d["bands"][0].update(m=-0.5),
            lambda d: d["bands"][0]["atoms"][0].update(j=2.9),
            lambda d: d["bands"].append(dict(d["bands"][0])),
        ],
        ids=["M", "band_m", "atom_j", "repeated_m"],
    )
    def test_spec_lossy_field_exit_2(self, tmp_path, capsys, mutate):
        d = json.loads(synth(tmp_path, "good.json").read_text())
        mutate(d)
        capsys.readouterr()
        assert self.sample_with_spec(tmp_path, json.dumps(d)) == 2
        assert "malformed signal spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("synth", "N", "abc"),
            ("synth", "M", 1.7),
            ("sample", "J", 8.7),
            ("reconstruct", "bands", "no"),
            ("reconstruct", "points", "x"),
        ],
    )
    def test_config_value_of_wrong_type_exit_2(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = run(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"--config {cfg}: {key} = {json.dumps(value)}" in err
        assert not (tmp_path / "out").exists()

    def test_env_seed_not_an_integer_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MSAMP_SEED", "abc")
        code = run("synth", "--N", "1", "--M", "1", "--epsilon", "0.1",
                   "--out", str(tmp_path / "a.json"))
        assert code == 2
        assert "MSAMP_SEED" in capsys.readouterr().err

    def test_flag_list_not_integers_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("calibrate", "--J-values", "16,x", "--out", str(tmp_path / "c.json"))
        assert exc.value.code == 2
        assert "--J-values" in capsys.readouterr().err

    def test_config_spec_number_is_a_path(self, tmp_path, capsys, monkeypatch):
        # 0 is the file "0", not file descriptor 0 (stdin)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"spec": 0}')
        code = run("sample", "--config", "cfg.json", "--dX", "0.22", "--dx", "0.03",
                   "--P", "2", "--J", "8", "--out", "s.csv")
        assert code == 1
        assert "I/O error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '{"N": 1,'])
    def test_config_not_a_json_object_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = run("synth", "--config", str(cfg), "--N", "1", "--M", "1",
                   "--epsilon", "0.1", "--out", str(tmp_path / "a.json"))
        assert code == 2
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "a.json").exists()


class TestReconstruct:
    def prepare(self, tmp_path):
        spec = synth(tmp_path)
        samples = tmp_path / "samples.csv"
        run(
            "sample", "--spec", str(spec), "--dX", "0.22", "--dx", "0.03",
            "--P", "2", "--J", "64", "--out", str(samples),
        )
        return spec, samples

    def test_with_ground_truth(self, tmp_path, capsys):
        spec, samples = self.prepare(tmp_path)
        out = tmp_path / "rec.csv"
        code = run(
            "reconstruct", "--samples", str(samples), "--spec", str(spec),
            "--points", "17", "--out", str(out),
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "max interior error" in printed
        header = out.read_text().splitlines()[0]
        assert header == "x,re_fhat,im_fhat,re_err,im_err"

    def test_without_truth_params_from_flags(self, tmp_path):
        _, samples = self.prepare(tmp_path)
        out = tmp_path / "rec.csv"
        code = run(
            "reconstruct", "--samples", str(samples), "--N", "1", "--M", "1",
            "--epsilon", "0.1", "--points", "9", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "x,re_fhat,im_fhat"

    def test_band_columns_behind_flag(self, tmp_path):
        spec, samples = self.prepare(tmp_path)
        out = tmp_path / "rec.csv"
        code = run(
            "reconstruct", "--samples", str(samples), "--spec", str(spec),
            "--points", "9", "--bands", "--out", str(out),
        )
        assert code == 0
        assert "re_band_1" in out.read_text().splitlines()[0]

    def test_straddling_grid_exit_2(self, tmp_path, capsys):
        spec = synth(tmp_path)
        samples = tmp_path / "samples.csv"
        run(
            "sample", "--spec", str(spec), "--dX", "0.35", "--dx", "0.03",
            "--P", "2", "--J", "16", "--out", str(samples),
        )
        code = run(
            "reconstruct", "--samples", str(samples), "--spec", str(spec),
            "--points", "5", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert "straddle" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-3"])
    @pytest.mark.parametrize("with_spec", [True, False])
    def test_points_below_one_exit_2(self, tmp_path, capsys, points, with_spec):
        spec, samples = self.prepare(tmp_path)
        truth = ["--spec", str(spec)] if with_spec else ["--N", "1", "--M", "1", "--epsilon", "0.1"]
        out = tmp_path / "rec.csv"
        capsys.readouterr()
        code = run(
            "reconstruct", "--samples", str(samples), *truth,
            "--points", points, "--out", str(out),
        )
        assert code == 2
        assert "--points must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicated_sample_row_exit_2(self, tmp_path, capsys):
        spec, samples = self.prepare(tmp_path)
        lines = samples.read_text().splitlines()
        samples.write_text("\n".join(lines + [lines[3]]) + "\n")
        code = run(
            "reconstruct", "--samples", str(samples), "--spec", str(spec),
            "--points", "5", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert "repeats the row" in capsys.readouterr().err


class TestStability:
    def test_report_fields_and_sandwich(self, tmp_path, capsys):
        spec = synth(tmp_path)
        capsys.readouterr()  # drop synth output
        code = run(
            "stability", "--spec", str(spec), "--dX", "0.22", "--dx", "0.03",
            "--P", "2", "--J", "32",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gautschi_lower"] <= report["vinv_norm"] <= report["gautschi_upper"]
        assert report["measured_ratio"] <= report["C_theoretical"] * 1.05
        assert report["parameters"]["P"] == 2

    def test_node_collision_exit_3(self, tmp_path, capsys):
        spec = synth(tmp_path)
        code = run(
            "stability", "--spec", str(spec), "--dX", "0.35",
            "--dx", str(0.35 / 3), "--P", "2", "--J", "8",
        )
        assert code == 3
        assert "singular" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("dX, P", [("0.7", "2"), ("0.22", "4")])
    def test_invalid_grid_exit_2(self, tmp_path, capsys, dX, P):
        spec = synth(tmp_path, seed="5")
        capsys.readouterr()
        code = run(
            "stability", "--spec", str(spec), "--dX", dX, "--dx", "0.03",
            "--P", P, "--J", "8",
        )
        assert code == 2
        assert "grid fails reconstruction constraints" in capsys.readouterr().err

    def test_non_finite_spacing_exit_2(self, tmp_path, capsys):
        spec = synth(tmp_path)
        code = run(
            "stability", "--spec", str(spec), "--dX", "inf", "--dx", "0.03",
            "--P", "2", "--J", "8",
        )
        assert code == 2
        assert "delta_X=inf" in capsys.readouterr().err


class TestSweep:
    def test_monotone_C_and_determinism(self, tmp_path):
        spec = synth(tmp_path)
        out1 = tmp_path / "sweep1.csv"
        out2 = tmp_path / "sweep2.csv"
        for out in (out1, out2):
            code = run(
                "sweep", "--spec", str(spec), "--dX", "0.22", "--J", "48",
                "--points", "12", "--seed", "3", "--out", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = out1.read_text().strip().splitlines()
        assert len(rows) == 13
        C = [float(r.split(",")[4]) for r in rows[1:]]
        assert all(b < a for a, b in zip(C, C[1:]))
        ratios = [float(r.split(",")[1]) for r in rows[1:]]
        assert ratios[-1] == pytest.approx(1 / 3, rel=1e-12)

    def test_invalid_points_skipped_not_fatal(self, tmp_path):
        spec = synth(tmp_path)
        out = tmp_path / "sweep.csv"
        code = run(
            "sweep", "--spec", str(spec), "--dX", "0.7", "--J", "16",
            "--points", "4", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        assert all(r.split(",")[3] == "0" for r in rows)  # all skipped


    @pytest.mark.parametrize("dX", ["0.22", "0.35"])
    def test_bytes_match_reference_writer(self, tmp_path, dX):
        # every row valid at dX = 0.22, every row blank at 0.35; the values
        # read back are written again by csv.writer
        spec = synth(tmp_path)
        out = tmp_path / "sweep.csv"
        code = run(
            "sweep", "--spec", str(spec), "--dX", dX, "--J", "16",
            "--points", "5", "--eval-points", "4", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        for row in rows:
            row["index"], row["ok"] = int(row["index"]), int(row["ok"])
            for key in ("ratio", "delta_x", "C", "vinv_norm", "max_err"):
                row[key] = float(row[key]) if row[key] else ""
        assert {row["ok"] for row in rows} == ({1} if dX == "0.22" else {0})
        reference_sweep_csv(rows, tmp_path / "ref.csv")
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


    @pytest.mark.parametrize("eval_points", ["0", "-3"])
    def test_eval_points_below_one_exit_2(self, tmp_path, capsys, eval_points):
        spec = synth(tmp_path)
        capsys.readouterr()
        code = run(
            "sweep", "--spec", str(spec), "--dX", "0.22", "--J", "16", "--points", "3",
            "--eval-points", eval_points, "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 2
        assert "--eval-points must be >= 1" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_writes_loadable_table(self, tmp_path):
        out = tmp_path / "cal.json"
        code = run(
            "calibrate", "--J-values", "16,32", "--trials", "2",
            "--seed", "11", "--out", str(out),
        )
        assert code == 0
        table = load_calibration(out)
        assert table.j_values == (16, 32)
        assert table.seed == 11

    def test_empty_J_values_exit_2(self, tmp_path, capsys):
        code = run("calibrate", "--J-values", "", "--trials", "2", "--out", str(tmp_path / "c.json"))
        assert code == 2
        assert "J_values must not be empty" in capsys.readouterr().err

    def test_byte_reproducible_under_pinned_clock(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(
                "calibrate", "--J-values", "16,32", "--trials", "2",
                "--seed", "11", "--out", str(out),
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestConfigPrecedence:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 1.0, "M": 1, "epsilon": 0.1, "atoms": 2}))
        a = tmp_path / "a.json"
        code = run("synth", "--config", str(cfg), "--seed", "5", "--out", str(a))
        assert code == 0
        assert load_spec(a).M == 1

        b = tmp_path / "b.json"
        code = run(
            "synth", "--config", str(cfg), "--M", "2", "--seed", "5", "--out", str(b)
        )
        assert code == 0
        assert load_spec(b).M == 2

    def test_env_seed_used_without_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MSAMP_SEED", "99")
        a = tmp_path / "a.json"
        run("synth", "--N", "1", "--M", "1", "--epsilon", "0.1",
            "--atoms", "2", "--out", str(a))
        monkeypatch.delenv("MSAMP_SEED")
        b = tmp_path / "b.json"
        run("synth", "--N", "1", "--M", "1", "--epsilon", "0.1",
            "--atoms", "2", "--seed", "99", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_config_seed_beats_env_seed(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        monkeypatch.setenv("MSAMP_SEED", "99")
        a = tmp_path / "a.json"
        run("synth", "--config", str(cfg), "--N", "1", "--M", "1", "--epsilon", "0.1",
            "--atoms", "2", "--out", str(a))
        monkeypatch.delenv("MSAMP_SEED")
        b = tmp_path / "b.json"
        run("synth", "--N", "1", "--M", "1", "--epsilon", "0.1",
            "--atoms", "2", "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_ignored_when_flag_given(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MSAMP_SEED", "99")
        a = tmp_path / "a.json"
        run("synth", "--N", "1", "--M", "1", "--epsilon", "0.1",
            "--atoms", "2", "--seed", "1", "--out", str(a))
        monkeypatch.delenv("MSAMP_SEED")
        b = tmp_path / "b.json"
        run("synth", "--N", "1", "--M", "1", "--epsilon", "0.1",
            "--atoms", "2", "--seed", "1", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @given(
        N=st.floats(0.1, 4.0),
        M=st.integers(0, 4),
        epsilon=st.floats(0.005, 0.1),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_config_values_convert_as_flags(
        self, tmp_path_factory, N, M, epsilon, seed
    ):
        # 2N*epsilon <= 0.8 keeps every draw a valid spec
        tmp = tmp_path_factory.mktemp("cfg")
        values = {"N": N, "M": M, "epsilon": epsilon, "seed": seed}
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(values))
        a, b = tmp / "a.json", tmp / "b.json"
        assert run("synth", "--config", str(cfg), "--out", str(a)) == 0
        flags = [arg for k, v in values.items() for arg in ("--" + k, repr(v))]
        assert run("synth", *flags, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
