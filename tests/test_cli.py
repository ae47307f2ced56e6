"""End-to-end command-line behavior: files, determinism, and exit codes."""

import json

import numpy as np
import pytest

from mtaggr import aggregation, checks, cli, linstats
from mtaggr.aggregation import apply_partition, assert_replay, result_from_json
from mtaggr.checks import CheckResult
from mtaggr.data import Dataset, center, load_dataset, save_dataset
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
        ds = load_dataset(out / "train.csv", ["y0", "y1"])
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
        got = load_dataset(out / "train.csv", train.target_names)
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
        ds = load_dataset(out / "train.csv", ["y0", "y1", "y2"])
        X = ds.features - ds.features.mean(axis=0)
        y = ds.targets[:, 0] - ds.targets[:, 0].mean()
        assert linstats.r2_score(X, y) > 1.0 - 1e-9


@pytest.fixture()
def dataset_csv(tmp_path):
    out = tmp_path / "data"
    run("synth", *SYNTH_FLAGS, "--seed", "5", "--out-dir", str(out), "--quiet")
    return out / "train.csv"


@pytest.fixture()
def slabs_csv(tmp_path):
    """Two targets, each with its own slab of the features a and b."""
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
    return p


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

    def test_ignored_columns_are_dropped(self, tmp_path, dataset_csv):
        out = tmp_path / "res"
        assert run("aggregate", "--input", str(dataset_csv), "--targets", "y0,y1",
                   "--ignore", "x4,y2", "--seed", "2", "--out-dir", str(out),
                   "--quiet") == 0
        ds = center(load_dataset(dataset_csv, ["y0", "y1"], ignore=["x4", "y2"])).dataset
        assert ds.n_features == 4 and ds.n_tasks == 2
        result = result_from_json((out / "result.json").read_text(), ds)
        assert_replay(ds, result)
        # Each reduced CSV reloads as the cluster's mean target on its features.
        for ci, (y, X) in enumerate(apply_partition(ds, result)):
            path = out / f"reduced_cluster{ci}.csv"
            header = ",".join([f"phi{k}" for k in range(X.shape[1])] + [f"y_cluster{ci}"])
            assert path.read_bytes().startswith(header.encode() + b"\r\n")
            reduced = load_dataset(path, [f"y_cluster{ci}"])
            assert np.array_equal(reduced.features, X)
            assert np.array_equal(reduced.targets[:, 0], y)

    def test_target_also_ignored_exits_1(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "res"
        assert run("aggregate", "--input", str(dataset_csv), "--targets", "y0,y1",
                   "--ignore", "y0", "--out-dir", str(out), "--quiet") == 1
        assert capsys.readouterr().err.startswith(
            "validation error: columns ['y0'] are named both as targets and as ignored")
        assert not out.exists()

    def test_bad_flag_exits_1(self):
        assert run("aggregate", "--nope") == 1

    def test_homogeneous_from_csv(self, tmp_path, slabs_csv):
        out = tmp_path / "res"
        code = run("aggregate", "--input", str(slabs_csv), "--targets", "y0,y1",
                   "--homogeneous", "--epsilon", "0.0", "--seed", "0",
                   "--out-dir", str(out), "--quiet")
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        covered = sorted(t for c in doc["task_clusters"] for t in c)
        assert covered == [0, 1]

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_written_result_reloads_and_replays(self, tmp_path, dataset_csv, slabs_csv,
                                                homogeneous):
        if homogeneous:
            path, targets = slabs_csv, ["y0", "y1"]
            flags = ["--homogeneous", "--epsilon", "0.0"]
        else:
            path, targets = dataset_csv, ["y0", "y1", "y2"]
            flags = []
        out = tmp_path / "res"
        assert run("aggregate", "--input", str(path), "--targets", ",".join(targets),
                   *flags, "--seed", "3", "--out-dir", str(out), "--quiet") == 0
        ds = center(load_dataset(path, targets, homogeneous=homogeneous)).dataset
        result = result_from_json((out / "result.json").read_text(encoding="utf-8"), ds)
        assert result.homogeneous is homogeneous
        assert_replay(ds, result)

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
        assert err.startswith("validation error: per-task slabs: target 'y1' "
                              f"lists features {listed}")
        assert not out.exists()

    def test_homogeneous_targets_named_with_at(self, tmp_path):
        # The column x@t@1 belongs to the target t@1, not to a target 1.
        rng = np.random.default_rng(4)
        header = ["x@t@1", "w@t@1", "x@u", "w@u", "t@1", "u"]
        p = tmp_path / "at.csv"
        np.savetxt(p, rng.standard_normal((40, 6)), delimiter=",", header=",".join(header),
                   comments="")
        ds = load_dataset(p, ["t@1", "u"], homogeneous=True)
        assert ds.feature_names == ("x", "w")
        assert ds.target_names == ("t@1", "u")
        table = np.loadtxt(p, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(ds.per_task_features[0], table[:, 0:2])
        np.testing.assert_array_equal(ds.per_task_features[1], table[:, 2:4])
        out = tmp_path / "res"
        assert run("aggregate", "--input", str(p), "--targets", "t@1,u", "--homogeneous",
                   "--epsilon", "0", "--out-dir", str(out), "--quiet") == 0
        ds = center(ds).dataset
        assert_replay(ds, result_from_json((out / "result.json").read_text(), ds))

    def test_column_ending_in_two_targets_exits_1(self, tmp_path, capsys):
        # x@t@1 ends in @1 and in @t@1, so it could be either target's.
        p = tmp_path / "at.csv"
        p.write_text("x@t@1,x@1,t@1,1\n1,2,3,4\n4,3,2,1\n0,1,0,1\n")
        out = tmp_path / "res"
        assert run("aggregate", "--input", str(p), "--targets", "1,t@1", "--homogeneous",
                   "--out-dir", str(out), "--quiet") == 1
        assert capsys.readouterr().err.startswith(
            "validation error: homogeneous mode: column 'x@t@1' ends in @<target> "
            "for the targets ['1', 't@1']")
        assert not out.exists()

    def test_epsilon_without_homogeneous_exits_1(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "res"
        assert run("aggregate", "--input", str(dataset_csv), "--targets", "y0,y1,y2",
                   "--epsilon", "0.5", "--out-dir", str(out), "--quiet") == 1
        assert "--homogeneous" in capsys.readouterr().err
        assert not out.exists()


def refit_r2_lines(centered, result):
    """The summary's R^2 lines with every single task refitted.

    Shared features are fitted by one lstsq of all targets, slabs one at a
    time as the homogeneous walk fits them.
    """
    if centered.per_task_features is None:
        coef, *_ = np.linalg.lstsq(centered.features, centered.targets, rcond=None)
        single = centered.features @ coef
    else:
        single = np.column_stack([
            slab @ linstats._slab_fit(slab, centered.targets[:, t])[0]
            for t, slab in enumerate(centered.per_task_features)
        ])
    lines = []
    for ci, (y, X) in enumerate(apply_partition(centered, result)):
        pred = X @ linstats._core_fit(X, y)[0]
        for t in result.task_partition.clusters[ci]:
            actual = centered.targets[:, t]
            before = linstats._prediction_r2(single[:, t], actual)
            after = linstats._prediction_r2(pred, actual)
            lines.append(f"  {centered.target_names[t]}: {before:.4f} -> {after:.4f}")
    return lines


def shared_csv(tmp_path, kind):
    """A CSV of shared features and its target names."""
    rng = np.random.default_rng(7)
    if kind == "reference":
        ds = generate(SynthConfig(), 10)[0]
    elif kind == "many_targets":
        ds = generate(SynthConfig(n_tasks=200, n_features=10, n_train=60), 1)[0]
    elif kind == "n_below_d":
        ds = generate(SynthConfig(n_tasks=3, n_features=30, n_train=20), 2)[0]
    else:
        n, D, L = 50, 6, 1 if kind == "one_task" else 4
        X = rng.standard_normal((n, D))
        Y = X @ rng.uniform(-1, 1, (D, L)) + rng.standard_normal((n, L))
        if kind == "constant_target":
            Y[:, 1] = 3.0
        if kind == "duplicate_columns":
            X[:, 4] = X[:, 1]
        ds = Dataset(X, Y, feature_names=tuple(f"x{k}" for k in range(D)),
                     target_names=tuple(f"y{k}" for k in range(L)))
    p = tmp_path / f"{kind}.csv"
    save_dataset(ds, p)
    return p, list(ds.target_names)


def slab_csv(tmp_path):
    """Six tasks with slabs about one shared draw; task 2's slab repeats a
    column, so its fits fall back to lstsq."""
    rng = np.random.default_rng(8)
    n, D, L = 40, 4, 6
    base = rng.standard_normal((n, D))
    slabs = [base + 0.3 * rng.standard_normal((n, D)) for _ in range(L)]
    slabs[2][:, 3] = slabs[2][:, 0]
    Y = np.column_stack([s @ [1.0, -0.5, 0.25, 0.5] + rng.standard_normal(n)
                         for s in slabs])
    header = [f"x{k}@y{t}" for t in range(L) for k in range(D)] + [f"y{t}" for t in range(L)]
    p = tmp_path / "slabs.csv"
    p.write_text("\n".join([",".join(header)] + [
        ",".join(map(repr, row)) for row in np.hstack(slabs + [Y]).tolist()]) + "\n")
    return p, [f"y{t}" for t in range(L)]


def aggregate(tmp_path, csv, targets, homogeneous):
    out = tmp_path / "res"
    flags = ["--homogeneous", "--epsilon", "0.05"] if homogeneous else []
    assert run("aggregate", "--input", str(csv), "--targets", ",".join(targets), *flags,
               "--out-dir", str(out), "--quiet") == 0
    centered = center(load_dataset(csv, targets, homogeneous=homogeneous)).dataset
    result = result_from_json((out / "result.json").read_text(), centered)
    return out, centered, result


class TestSummary:
    @pytest.mark.parametrize("kind", ["reference", "many_targets", "n_below_d",
                                      "constant_target", "duplicate_columns", "one_task",
                                      "slabs"])
    def test_r2_lines_match_a_refit_of_every_single_task(self, tmp_path, kind):
        if kind == "slabs":
            (csv, targets), homogeneous = slab_csv(tmp_path), True
        else:
            (csv, targets), homogeneous = shared_csv(tmp_path, kind), False
        out, centered, result = aggregate(tmp_path, csv, targets, homogeneous)
        lines = (out / "summary.txt").read_text().splitlines()
        start = lines.index("in-sample R^2 per task (single-task -> aggregated):") + 1
        got = lines[start:start + centered.n_tasks]
        assert got == refit_r2_lines(centered, result)
        if kind == "constant_target":
            assert "  y1: 0.0000 -> 0.0000" in got

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_fits_each_single_task_once_and_each_task_cluster_once(
            self, tmp_path, monkeypatch, homogeneous):
        calls = {"slab_fit": 0, "lstsq": 0, "walk_lstsq": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        def walk(fn):
            def call(*args, **kwargs):
                before = calls["lstsq"]
                result = fn(*args, **kwargs)
                calls["walk_lstsq"] += calls["lstsq"] - before
                return result
            return call

        monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
        for owner in (aggregation, linstats):
            monkeypatch.setattr(owner, "_slab_fit", counted("slab_fit", owner._slab_fit))
        for name in ("nonlin_ctfa", "nonlin_ctfa_homogeneous"):
            monkeypatch.setattr(cli, name, walk(getattr(cli, name)))
        csv, targets = slab_csv(tmp_path) if homogeneous else shared_csv(tmp_path,
                                                                        "reference")
        out, centered, result = aggregate(tmp_path, csv, targets, homogeneous)
        walk_fits = centered.n_tasks + len(result.trace) if homogeneous else 0
        # Reading the result back in ``aggregate`` fits nothing.
        assert calls["slab_fit"] == walk_fits
        assert calls["lstsq"] - calls["walk_lstsq"] == result.task_partition.n_clusters
        # Only the slab with a repeated column falls back to lstsq in the walk.
        assert (calls["walk_lstsq"] > 0) == homogeneous


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
