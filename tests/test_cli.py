import json
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from rtbm.cli import load_data, load_model, main, store_model
from rtbm.model import RtbmModel
from rtbm.sampler import RngStream, sample_visible

from conftest import random_valid_model


@pytest.fixture
def model_path(tmp_path, test_model_1d):
    path = tmp_path / "model.json"
    store_model(test_model_1d, str(path))
    return str(path)


@pytest.fixture
def data_path(tmp_path, test_model_1d):
    draws = sample_visible(test_model_1d, 500, RngStream(1)).samples[:, 0]
    path = tmp_path / "data.csv"
    path.write_text("v1\n" + "\n".join(repr(float(x)) for x in draws) + "\n")
    return str(path)


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = random_valid_model(rng, nv=2, nh=2)
        path = tmp_path / "m.json"
        store_model(m, str(path), metadata={"note": "x"})
        loaded, meta = load_model(str(path))
        for f in ("t", "q", "w", "bv", "bh"):
            npt.assert_array_equal(getattr(loaded, f), getattr(m, f))
        assert meta == {"note": "x"}

    def test_invalid_model_rejected(self, tmp_path):
        bad = RtbmModel([[1.0]], [[1.0]], [[1.0]], [0.0], [0.0])  # S = 0
        path = tmp_path / "bad.json"
        store_model(bad, str(path))
        rc = main(["sample", "--model", str(path), "--n", "10", "--seed", "1",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("field, value", [("bv", [float("nan")]), ("w", [[float("inf")]])])
    def test_non_finite_parameter_rejected(self, tmp_path, test_model_1d, field, value):
        doc = test_model_1d.to_dict()
        doc[field] = value
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # json writes and reads NaN and Infinity
        rc = main(["sample", "--model", str(path), "--n", "10", "--seed", "1",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert not (tmp_path / "s.csv").exists()

    def test_phase_two_rejected(self, tmp_path, test_model_1d):
        doc = test_model_1d.to_dict()
        doc["phase"] = "II"
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(doc))
        rc = main(["sample", "--model", str(path), "--n", "10", "--seed", "1",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        rc = main(["pdf", "--model", str(path), "--grid", "0:1:2",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert not (tmp_path / "s.csv").exists() and not (tmp_path / "o.csv").exists()

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"format_version": 9}))
        rc = main(["pdf", "--model", str(path), "--grid", "0:1:2",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestDataFile:
    def test_header_detected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("value\n1.0\n2.0\n")
        npt.assert_array_equal(load_data(str(path)), [[1.0], [2.0]])

    def test_no_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        assert load_data(str(path)).shape == (2, 2)

    def test_non_numeric_cell_is_hard_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0\nnope\n")
        rc = main(["train", "--data", str(path), "--nh", "1",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0\n")
        rc = main(["train", "--data", str(path), "--nh", "1",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_empty_file_exit_2(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        rc = main(["train", "--data", str(path), "--nh", "1",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2


class TestTrainCommand:
    def test_train_writes_model_with_metadata(self, tmp_path, data_path):
        out = tmp_path / "fit.json"
        rc = main(["train", "--data", data_path, "--nh", "1", "--out", str(out),
                   "--seed", "3", "--max-evals", "400", "--restarts", "1"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == 1
        assert set(doc["metadata"]) == {"seed", "nll", "evaluations", "restart_nlls"}
        assert np.isfinite(doc["metadata"]["nll"])
        load_model(str(out))

    def test_restart_nlls_in_metadata(self, tmp_path, data_path):
        out = tmp_path / "fit.json"
        rc = main(["train", "--data", data_path, "--nh", "1", "--out", str(out),
                   "--seed", "3", "--max-evals", "200", "--restarts", "2"])
        assert rc == 0
        nlls = json.loads(out.read_text())["metadata"]["restart_nlls"]
        assert len(nlls) == 2 and all(np.isfinite(nlls))

    @pytest.mark.parametrize("flags", [
        ["--population", "2"], ["--population", "0"],
        # each of these used to return the starting model with exit 0
        ["--sigma0", "0"], ["--sigma0", "-1"], ["--sigma0", "nan"],
        ["--max-evals", "0"], ["--max-evals", "-5"],
        ["--restarts", "0"], ["--restarts", "-3"],
    ])
    def test_bad_optimizer_flags_exit_2(self, tmp_path, data_path, flags):
        out = tmp_path / "fit.json"
        rc = main(["train", "--data", data_path, "--nh", "1", "--out", str(out),
                   "--max-evals", "100", *flags])
        assert rc == 2
        assert not out.exists()

    def test_deterministic_given_seed(self, tmp_path, data_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--data", data_path, "--nh", "1", "--seed", "5",
                "--max-evals", "300", "--restarts", "1"]
        assert main(["train", *args, "--out", str(a)]) == 0
        assert main(["train", *args, "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestSampleCommand:
    def test_sample_shape_and_header(self, tmp_path, model_path):
        out = tmp_path / "s.csv"
        rc = main(["sample", "--model", model_path, "--n", "200", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "v1"
        assert len(lines) == 201

    def test_zero_count_exit_2(self, tmp_path, model_path):
        rc = main(["sample", "--model", model_path, "--n", "0", "--seed", "1",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_identical_seed_identical_file(self, tmp_path, model_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sample", "--model", model_path, "--n", "100", "--seed", "9", "--out", str(a)])
        main(["sample", "--model", model_path, "--n", "100", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestPdfCommand:
    def test_1d_grid_with_cdf_column(self, tmp_path):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        mp = tmp_path / "m.json"
        store_model(m, str(mp))
        out = tmp_path / "pdf.csv"
        rc = main(["pdf", "--model", str(mp), "--grid=-5:5:11", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "v1,pdf,cdf"
        assert len(lines) == 12
        center = [float(c) for c in lines[6].split(",")]
        npt.assert_allclose(center[0], 0.0, atol=1e-12)
        npt.assert_allclose(center[1], 1.0 / np.sqrt(2 * np.pi), atol=1e-9)

    def test_malformed_grid_exit_2(self, tmp_path, model_path):
        for grid in ("5:-5:10", "0:1:1", "a:b:c", "0:1", "nan:1:3", "-inf:0:3", "0:inf:3"):
            rc = main(["pdf", "--model", model_path, "--grid", grid,
                       "--out", str(tmp_path / "o.csv")])
            assert rc == 2

    def test_2d_grid(self, tmp_path):
        rng = np.random.default_rng(1)
        m = random_valid_model(rng, nv=2, nh=1)
        mp = tmp_path / "m2.json"
        store_model(m, str(mp))
        out = tmp_path / "pdf2.csv"
        rc = main(["pdf", "--model", str(mp), "--grid=-2:2:5;-1:1:3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "v1,v2,pdf"
        assert len(lines) == 16


class TestTransformCommand:
    def test_identity_preserves_parameters(self, tmp_path, model_path):
        out = tmp_path / "t.json"
        rc = main(["transform", "--model", model_path, "--matrix", "1",
                   "--shift", "0", "--out", str(out)])
        assert rc == 0
        src = json.loads(open(model_path).read())
        dst = json.loads(out.read_text())
        for f in ("t", "q", "w", "bv", "bh"):
            npt.assert_allclose(dst[f], src[f], atol=1e-12)

    def test_singular_matrix_exit_2(self, tmp_path):
        rng = np.random.default_rng(2)
        m = random_valid_model(rng, nv=2, nh=1)
        mp = tmp_path / "m.json"
        store_model(m, str(mp))
        rc = main(["transform", "--model", str(mp), "--matrix", "1,0;0,0",
                   "--shift", "0,0", "--out", str(tmp_path / "t.json")])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [("--matrix", "nan,0;0,1"), ("--matrix", "1,0;0,inf"),
                                             ("--shift", "nan,0"), ("--shift", "0,-inf")])
    def test_non_finite_input_exit_2(self, tmp_path, capsys, flag, value):
        m = random_valid_model(np.random.default_rng(2), nv=2, nh=1)
        mp, out = tmp_path / "m.json", tmp_path / "t.json"
        store_model(m, str(mp))
        args = {"--matrix": "1,0;0,1", "--shift": "0,0", flag: value}
        rc = main(["transform", "--model", str(mp), "--out", str(out),
                   "--matrix", args["--matrix"], "--shift", args["--shift"]])
        assert rc == 2
        assert f"{flag} entries must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestValidateCommand:
    def test_report_written(self, tmp_path, model_path, data_path):
        out = tmp_path / "report.json"
        rc = main(["validate", "--model", model_path, "--data", data_path,
                   "--samples", "20000", "--seed", "4", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        for key in ("chi2_over_bins", "mse_sampling_rtbm", "mse_sampling_pdf",
                    "mse_pdf_rtbm", "ks", "moments"):
            assert key in rep
        assert rep["ks"] < 0.02

    @pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-5"],
                                       ["--bins", "0"]])
    def test_bad_counts_exit_2(self, tmp_path, model_path, data_path, flags):
        out = tmp_path / "r.json"
        rc = main(["validate", "--model", model_path, "--data", data_path,
                   "--out", str(out), *flags])
        assert rc == 2
        assert not out.exists()

    def test_missing_data_exit_2(self, tmp_path, model_path):
        rc = main(["validate", "--model", model_path, "--data", str(tmp_path / "no.csv"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_2d_marginal_report(self, tmp_path):
        rng = np.random.default_rng(3)
        m = random_valid_model(rng, nv=2, nh=1)
        mp = tmp_path / "m.json"
        store_model(m, str(mp))
        dp = tmp_path / "d.csv"
        draws = sample_visible(m, 300, RngStream(5)).samples
        dp.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in draws) + "\n")
        out = tmp_path / "r.json"
        rc = main(["validate", "--model", str(mp), "--data", str(dp),
                   "--samples", "5000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert len(rep["marginals"]) == 2


class TestThetaCommand:
    def test_prints_value(self, capsys):
        rc = main(["theta", "--z", "0", "--omega", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "log_magnitude" in out
        mag = float(out.split("log_magnitude: ")[1].split("\n")[0])
        npt.assert_allclose(np.exp(mag), 1.7726372, atol=1e-6)

    def test_non_pd_omega_exit_2(self):
        assert main(["theta", "--z", "0", "--omega", "-1"]) == 2

    @pytest.mark.parametrize("flag, value", [("--z", "nan"), ("--z", "0,inf"),
                                             ("--omega", "nan"), ("--omega", "inf")])
    def test_non_finite_input_exit_2(self, capsys, flag, value):
        args = {"--z": "0", "--omega": "2", flag: value}
        assert main(["theta", "--z", args["--z"], "--omega", args["--omega"]]) == 2
        assert f"{flag} entries must be finite" in capsys.readouterr().err

    def test_eps_sweep_point_counts_non_decreasing(self, capsys):
        counts = []
        for eps in ("1e-6", "1e-10", "1e-14"):
            assert main(["theta", "--z", "0.5,0.25", "--omega", "2", "--eps", eps]) == 0
            out = capsys.readouterr().out
            counts.append(int(out.split("point_count: ")[1].split("\n")[0]))
        assert counts == sorted(counts)


class TestEnvironment:
    def test_eps_env_var(self, tmp_path, model_path, monkeypatch, capsys):
        monkeypatch.setenv("RTBM_THETA_EPS", "1e-6")
        rc = main(["theta", "--z", "0", "--omega", "2"])
        assert rc == 0
        tail = float(capsys.readouterr().out.split("tail_bound: ")[1].split("\n")[0])
        assert tail <= 1e-6
        monkeypatch.setenv("RTBM_THETA_EPS", "bogus")
        assert main(["theta", "--z", "0", "--omega", "2"]) == 2
        monkeypatch.setenv("RTBM_THETA_EPS", "1")
        assert main(["theta", "--z", "0", "--omega", "2"]) == 2

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "rtbm.cli", "theta", "--z", "0", "--omega", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "point_count" in result.stdout
