"""End-to-end command-line behavior: files, determinism, and exit codes."""

import json

import numpy as np
import pytest

from mtaggr import checks, cli, linstats
from mtaggr.checks import CheckResult
from mtaggr.data import Dataset, load_dataset, schema_for
from mtaggr.synth import SynthConfig, generate


def run(*argv):
    return cli.main(list(argv))


SYNTH_FLAGS = [
    "--tasks", "3", "--features", "5", "--samples", "60", "--test-samples", "60",
    "--sigma", "1.0", "--feature-std", "1.0",
]


class TestSynthCommand:
    def test_writes_dataset_files(self, tmp_path):
        out = tmp_path / "data"
        code = run("synth", *SYNTH_FLAGS, "--seed", "3", "--out-dir", str(out),
                   "--quiet")
        assert code == 0
        assert (out / "train.csv").exists()
        assert (out / "test.csv").exists()
        truth = json.loads((out / "truth.json").read_text())
        assert len(truth["coefficients"]) == 3

    def test_byte_identical_re_run(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", *SYNTH_FLAGS, "--seed", "9", "--out-dir", str(a), "--quiet")
        run("synth", *SYNTH_FLAGS, "--seed", "9", "--out-dir", str(b), "--quiet")
        assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_tasks": 2, "n_features": 3, "n_train": 40,
                                   "n_test": 10, "sigma": 0.5}))
        out = tmp_path / "out"
        assert run("synth", "--config", str(cfg), "--out-dir", str(out),
                   "--quiet") == 0
        ds = load_dataset(out / "train.csv",
                          {**{f"x{k}": "feature" for k in range(3)},
                           **{f"y{k}": "target" for k in range(2)}})
        assert ds.n_samples == 40

    def test_config_file_with_list_values(self, tmp_path):
        settings = {"n_tasks": 2, "n_features": 3, "n_train": 20, "n_test": 10,
                    "noise_correlation": [[1.0, 0.5], [0.5, 1.0]],
                    "coefficient_intervals": [[-1.0, -0.5], [0.5, 1.0]],
                    "group_assignment": [1, 0]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        out = tmp_path / "out"
        assert run("synth", "--config", str(cfg), "--seed", "2", "--out-dir", str(out),
                   "--quiet") == 0
        train, _, _ = generate(SynthConfig(**settings), 2)
        got = load_dataset(out / "train.csv", schema_for(train))
        assert np.array_equal(got.targets, train.targets)
        # group_assignment puts task 0 in the positive interval.
        assert min(json.loads((out / "truth.json").read_text())["coefficients"][0]) > 0

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tasks": 2}))
        assert run("synth", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "o")) == 1

    def test_sigma_zero_dataset_is_noiseless(self, tmp_path):
        out = tmp_path / "clean"
        run("synth", *SYNTH_FLAGS[:-2], "--sigma", "0.0", "--seed", "4",
            "--out-dir", str(out), "--quiet")
        schema = {**{f"x{k}": "feature" for k in range(5)},
                  **{f"y{k}": "target" for k in range(3)}}
        ds = load_dataset(out / "train.csv", schema)
        X = ds.features - ds.features.mean(axis=0)
        y = ds.targets[:, 0] - ds.targets[:, 0].mean()
        assert linstats.r2_score(X, y) > 1.0 - 1e-9


@pytest.fixture()
def dataset_csv(tmp_path):
    out = tmp_path / "data"
    run("synth", *SYNTH_FLAGS, "--seed", "5", "--out-dir", str(out), "--quiet")
    return out / "train.csv"


class TestAggregateCommand:
    def test_writes_result_files(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "res"
        code = run("aggregate", "--input", str(dataset_csv),
                   "--targets", "y0,y1,y2", "--seed", "1", "--out-dir", str(out))
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        assert set(doc) == {"format_version", "seed", "epsilon1", "epsilon2",
                            "homogeneous", "fingerprint", "task_clusters",
                            "feature_clusters", "trace"}
        assert doc["format_version"] == 2
        assert doc["homogeneous"] is False
        assert doc["trace"] and not any("members" in r for r in doc["trace"])
        assert (out / "summary.txt").exists()
        assert (out / "reduced_cluster0.csv").exists()
        assert "clusters" in capsys.readouterr().out

    def test_huge_epsilon1_gives_single_cluster(self, tmp_path, dataset_csv):
        out = tmp_path / "res1"
        run("aggregate", "--input", str(dataset_csv), "--targets", "y0,y1,y2",
            "--epsilon1", "1e6", "--seed", "1", "--out-dir", str(out), "--quiet")
        doc = json.loads((out / "result.json").read_text())
        assert len(doc["task_clusters"]) == 1

    def test_byte_identical_re_run(self, tmp_path, dataset_csv):
        a, b = tmp_path / "r1", tmp_path / "r2"
        for out in (a, b):
            run("aggregate", "--input", str(dataset_csv), "--targets", "y0,y1,y2",
                "--seed", "7", "--out-dir", str(out), "--quiet")
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
        assert (a / "reduced_cluster0.csv").read_bytes() == (
            b / "reduced_cluster0.csv"
        ).read_bytes()
        assert (a / "summary.txt").read_bytes() == (b / "summary.txt").read_bytes()

    def test_missing_input_exits_1(self, tmp_path):
        assert run("aggregate", "--input", str(tmp_path / "none.csv"),
                   "--targets", "y0") == 1

    def test_bad_cell_exits_1(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,y\n1,2\nNaN,4\n")
        assert run("aggregate", "--input", str(p), "--targets", "y") == 1

    @pytest.mark.parametrize("good_rows", [0, 2000])
    def test_non_utf8_input_exits_1_naming_the_file(self, tmp_path, capsys, good_rows):
        # Without good rows the bad byte is read with the header; after 2000
        # of them, only when the body is.
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"a,b,y\n" + b"1,2,3\n" * good_rows + b"4,\xff5,6\n")
        out = tmp_path / "res"
        assert run("aggregate", "--input", str(p), "--targets", "y",
                   "--out-dir", str(out), "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and f"{p}: not UTF-8" in err
        assert not out.exists()

    def test_unknown_target_exits_1(self, tmp_path, dataset_csv):
        assert run("aggregate", "--input", str(dataset_csv),
                   "--targets", "nope") == 1

    def test_bad_flag_exits_1(self):
        assert run("aggregate", "--nope") == 1

    def test_homogeneous_from_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 60
        rows = ["a@y0,b@y0,a@y1,b@y1,y0,y1"]
        slab0 = rng.standard_normal((n, 2))
        slab1 = rng.standard_normal((n, 2))
        y0 = slab0 @ [1.0, 0.5] + 0.1 * rng.standard_normal(n)
        y1 = slab1 @ [1.0, 0.5] + 0.1 * rng.standard_normal(n)
        for i in range(n):
            rows.append(",".join(repr(float(v)) for v in
                                 (slab0[i, 0], slab0[i, 1],
                                  slab1[i, 0], slab1[i, 1], y0[i], y1[i])))
        p = tmp_path / "homog.csv"
        p.write_text("\n".join(rows) + "\n")
        out = tmp_path / "res"
        code = run("aggregate", "--input", str(p), "--targets", "y0,y1",
                   "--homogeneous", "--epsilon", "0.0", "--seed", "0",
                   "--out-dir", str(out), "--quiet")
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        covered = sorted(t for c in doc["task_clusters"] for t in c)
        assert covered == [0, 1]

    @pytest.mark.parametrize("header, listed", [
        ("a@y0,b@y0,b@y1,a@y1,y0,y1", "['b', 'a']"),
        ("a@y0,b@y0,a@y1,c@y1,y0,y1", "['a', 'c']"),
    ], ids=["reordered", "renamed"])
    def test_homogeneous_slabs_listing_other_features_exit_1(self, tmp_path, capsys,
                                                             header, listed):
        # Slabs are stacked in header order, so they must name the same
        # features in the same order or the walk would average unlike columns.
        p = tmp_path / "slabs.csv"
        p.write_text(header + "\n1,2,3,4,5,6\n6,5,4,3,2,1\n0,1,0,1,0,1\n")
        out = tmp_path / "res"
        assert run("aggregate", "--input", str(p), "--targets", "y0,y1",
                   "--homogeneous", "--out-dir", str(out), "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: homogeneous mode: target 'y1' "
                              f"lists features {listed}")
        assert not out.exists()

    def test_epsilon_without_homogeneous_exits_1(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "res"
        assert run("aggregate", "--input", str(dataset_csv), "--targets", "y0,y1,y2",
                   "--epsilon", "0.5", "--out-dir", str(out), "--quiet") == 1
        assert "--homogeneous" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("kind", ["plain", "mixed_units", "duplicate"])
def test_single_task_predictions_match_lstsq_per_slab(kind):
    # Well-conditioned slabs take the Gram fit, whatever the units of their
    # columns; a duplicate column makes every slab rank-deficient, so each
    # falls back to lstsq.
    rng = np.random.default_rng(5)
    n, D, L = 80, 4, 3
    slabs = [rng.standard_normal((n, D)) for _ in range(L)]
    for slab in slabs:
        if kind == "mixed_units":
            slab *= [1e-3, 1.0, 1e2, 1e3]
        if kind == "duplicate":
            slab[:, 2] = slab[:, 0]
    Y = np.column_stack([s @ rng.uniform(-1, 1, D) + rng.standard_normal(n)
                         for s in slabs])
    ds = Dataset(np.mean(slabs, axis=0), Y, per_task_features=tuple(slabs))
    got = cli._single_task_predictions(ds)
    want = np.column_stack([s @ np.linalg.lstsq(s, Y[:, t], rcond=None)[0]
                            for t, s in enumerate(slabs)])
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


class TestSweepCommand:
    def test_writes_csv_with_trend(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--axis", "n_train", "--values", "20,60,300",
                   "--tasks", "2", "--features", "6", "--samples", "80",
                   "--test-samples", "4000", "--sigma", "1.0",
                   "--feature-std", "1.0", "--repeats", "3",
                   "--out", str(out), "--quiet")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n_train,metric,mean,std"
        singles = [float(line.split(",")[2]) for line in lines[1:]
                   if line.split(",")[1] == "mse_single"]
        assert singles[0] > singles[1] > singles[2]

    def test_unknown_axis_exits_1(self, tmp_path):
        assert run("sweep", "--axis", "bogus", "--values", "1",
                   "--out", str(tmp_path / "s.csv")) == 1

    @pytest.mark.parametrize("argv, config", [
        (["--axis", "sigma", "--values", "1", "--repeats", "0"], None),
        (["--axis", "n_train", "--values", "2.5"], None),
        (["--axis", "n_train", "--values", "60"], {"sigma": "1"}),
        (["--axis", "n_train", "--values", "60"], {"n_tasks": 2.5}),
        (["--axis", "n_train", "--values", "60"], "{not json"),
        (["--axis", "n_train", "--values", "60"], ["n_tasks"]),
    ], ids=["zero_repeats", "fractional_count", "text_sigma", "fractional_tasks",
            "config_not_json", "config_not_an_object"])
    def test_values_it_cannot_run_exit_1(self, tmp_path, capsys, argv, config):
        out = tmp_path / "s.csv"
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        assert run("sweep", *argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "Traceback" not in err
        assert not out.exists()

    def test_synth_config_it_cannot_run_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_tasks": 2, "sigma": "1"}))
        out = tmp_path / "out"
        assert run("synth", "--config", str(cfg), "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.startswith("validation error: sigma")
        assert not out.exists()

    def test_synth_infinite_sigma_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("synth", "--sigma", "inf", "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.startswith("validation error: sigma must be finite")
        assert not out.exists()


class TestVerifyCommand:
    def test_quick_named_checks_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = run("verify", "--quick", "--checks",
                   "noise_variance,coefficient_covariance",
                   "--seed", "0", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        names = {c["check"] for c in doc["checks"]}
        assert names == {"noise_variance", "coefficient_covariance"}
        for c in doc["checks"]:
            assert set(c) >= {"check", "theoretical", "empirical",
                              "standard_error", "passed", "replicates"}

    def test_unknown_check_exits_1(self, tmp_path):
        assert run("verify", "--checks", "bogus",
                   "--out", str(tmp_path / "r.json")) == 1

    @pytest.mark.parametrize("flags, field", [
        (("--draws", "0"), "draws"),
        (("--draws", "-1"), "draws"),
        (("--n-eval", "9999"), "n_eval"),
        (("--replicates", "99"), "replicates"),
        (("--n-pop", "9999"), "n_pop"),
    ])
    def test_budget_no_check_can_run_with_exits_1(self, tmp_path, monkeypatch, capsys,
                                                   flags, field):
        ran = []
        monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(a) or [])
        out = tmp_path / "r.json"
        assert run("verify", "--quick", *flags, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and field in err
        assert "Traceback" not in err
        assert ran == [] and not out.exists()

    def test_merge_guarantee_populations_do_not_follow_n_pop(self, tmp_path, monkeypatch,
                                                            capsys):
        rows, worsened = [], checks._worsened

        def counted(signal, *args):
            rows.append(len(signal))
            return worsened(signal, *args)

        monkeypatch.setattr(checks, "_worsened", counted)
        assert run("verify", "--checks", "merge_guarantee_targets,merge_guarantee_features",
                   "--draws", "1", "--n-pop", "20000",
                   "--out", str(tmp_path / "r.json")) == 0
        assert rows and set(rows) == {100_000}
        assert run("verify", "--help") == 0
        assert "always 100 000 rows" in " ".join(capsys.readouterr().out.split())

    def test_failed_check_exits_3(self, tmp_path, monkeypatch):
        def failing(budget, seed=0):
            return CheckResult("noise_variance", False, 1.0, 2.0, 0.0, 1)

        monkeypatch.setitem(cli.run_checks.__globals__["CHECKS"],
                            "noise_variance", failing)
        code = run("verify", "--checks", "noise_variance",
                   "--out", str(tmp_path / "r.json"))
        assert code == 3
